// Single-thread speedup of the simd.h kernel table over its scalar oracle —
// the four vectorized hot-loop families of the scan/funnel path:
//
//   pearson   — sum_pair + centered_moments (AlignedPearson / correlation)
//   som       — squared_distances (BMU search over the flat weight buffer)
//   sanitizer — classify_values + min_positive_gap (verdict/grid pass)
//   gorilla   — full chunk decode: the two-phase decoder (word-at-a-time
//               parse + batch prefix reconstruction + bulk append) against a
//               verbatim copy of the pre-rework bit-by-bit decoder. The
//               64-bit prefix kernels themselves delegate to scalar on AVX2
//               (in-register i64 scans measured slower than the 1-add/cycle
//               scalar chain), so the family's speedup lives in the decode
//               restructuring and is measured there.
//   loess     — the LoessPlan kernels at STL's period-144 trend span (217
//               points, 612-point window): plan build (loess_edge_weights plus
//               the four constant-sum loess_edge_dot calls, per weight) and
//               plan apply (loess_dot2 plus the two edge loess_edge_dot
//               calls, per output)
//   fft       — every fft_butterflies stage of a 2048-point transform (the
//               padded ACF size of a 612-point window), per element-stage
//
// A last table prices the long-term screen (DESIGN §13), which is plain
// scalar code and so has no oracle column: at the fallback period 30 and the
// daily period 144 of a 612-point window, one STL (what a screened series
// saves), one table entry's build (paid once per shape), and the screen's
// decision on one series. Its identity check is the detector's: the
// screened and unscreened Detect agree, and the bench series is screened.
// It lands in the "long_term_screen" section of BENCH_simd.json, with no
// speed gate.
//
// An "acf" table prices the certified ACF (DESIGN §13) at the pipeline's
// n = 612 (lags to 204) and at n = 4096: the reference (the 2n-padded
// complex transform and the peak search, as DetectSeasonality ran before
// the certified path) against DetectSeasonality, per series. Its identity
// check: both reach the same (present, period) on every bench series; the
// fallback count is reported. No speed gate.
//
// Every kernel is first checked bit-identical against the scalar oracle on
// the bench inputs, then timed (min of repetitions, fixed element count).
// Results land in the "kernels" section of BENCH_simd.json. Off --smoke,
// when a vector ISA is available, each family's dominant measurement must
// beat its oracle by >= 2x (the PR's acceptance bar); the forced-scalar leg
// (FBD_DISABLE_SIMD=1) still runs the identity checks and the decode
// comparison (the two-phase decode needs no vector ISA to win).
#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/check.h"
#include "src/common/random.h"
#include "src/common/simd.h"
#include "src/core/long_term.h"
#include "src/core/series_decomposition.h"
#include "src/observe/telemetry.h"
#include "src/stats/correlation.h"
#include "src/tsa/stl.h"
#include "src/tsdb/gorilla.h"

namespace fbdetect {
namespace {

int64_t UnZigZag(uint64_t value) {
  return static_cast<int64_t>(value >> 1) ^ -static_cast<int64_t>(value & 1);
}

// Verbatim copy of the pre-rework decoder — bit-by-bit reads through the
// public BitReader, point-by-point appends — kept here as the measurement
// oracle for the two-phase decode.
void LegacyDecodeInto(const CompressedTimeSeries& chunk, TimeSeries& out) {
  if (chunk.empty()) {
    return;
  }
  BitReader reader(chunk.bytes(), chunk.bit_count());
  TimePoint timestamp = static_cast<TimePoint>(reader.ReadBits(64));
  uint64_t value_bits = reader.ReadBits(64);
  out.Append(timestamp, std::bit_cast<double>(value_bits));

  Duration delta = 0;
  int leading = 0;
  int trailing = 0;
  for (size_t i = 1; i < chunk.size(); ++i) {
    int64_t dod = 0;
    if (!reader.ReadBit()) {
      dod = 0;
    } else if (!reader.ReadBit()) {
      dod = UnZigZag(reader.ReadBits(7));
    } else if (!reader.ReadBit()) {
      dod = UnZigZag(reader.ReadBits(9));
    } else if (!reader.ReadBit()) {
      dod = UnZigZag(reader.ReadBits(12));
    } else {
      dod = UnZigZag(reader.ReadBits(64));
    }
    delta += dod;
    timestamp += delta;
    if (reader.ReadBit()) {
      if (reader.ReadBit()) {
        leading = static_cast<int>(reader.ReadBits(5));
        int block_bits = static_cast<int>(reader.ReadBits(6));
        if (block_bits == 0) {
          block_bits = 64;
        }
        trailing = 64 - leading - block_bits;
        value_bits ^= reader.ReadBits(block_bits) << trailing;
      } else {
        const int block_bits = 64 - leading - trailing;
        value_bits ^= reader.ReadBits(block_bits) << trailing;
      }
    }
    out.Append(timestamp, std::bit_cast<double>(value_bits));
  }
}

using Clock = std::chrono::steady_clock;

// DetectSeasonality as it ran before the certified ACF: the reference
// transform's ACF and the peak search over it.
SeasonalityEstimate ReferenceSeasonality(std::span<const double> values, size_t min_period,
                                         size_t max_period, double min_correlation) {
  SeasonalityEstimate estimate;
  const size_t n = values.size();
  const size_t cap = std::min(max_period, n / 2);
  const std::vector<double> acf = AutocorrelationFunction(values, cap);
  const double noise_band = 2.0 / std::sqrt(static_cast<double>(n));
  double best = 0.0;
  size_t best_lag = 0;
  for (size_t lag = min_period; lag <= cap; ++lag) {
    const double r = acf[lag - 1];
    const double prev = acf[lag - 2];
    const double next = lag < cap ? acf[lag] : r;
    if (r >= prev && r >= next && r > best) {
      best = r;
      best_lag = lag;
    }
  }
  if (best_lag != 0 && best > std::max(min_correlation, noise_band)) {
    estimate.present = true;
    estimate.period = best_lag;
  }
  return estimate;
}

// One timed measurement: runs `fn` `iters` times, returns best ns/element.
template <typename Fn>
double BestNsPerElement(size_t elements, int reps, int iters, const Fn& fn) {
  double best_ns = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = Clock::now();
    for (int i = 0; i < iters; ++i) {
      fn();
    }
    const double ns =
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
        static_cast<double>(iters);
    best_ns = std::min(best_ns, ns);
  }
  return best_ns / static_cast<double>(elements);
}

bool ContractEqual(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b) ||
         (std::isnan(a) && std::isnan(b));
}

struct Entry {
  const char* kernel;
  double scalar_ns;  // Per element.
  double simd_ns;    // Per element (the Active() table).
  double speedup() const { return scalar_ns / simd_ns; }
};

// Keep optimizers from deleting the timed loops.
volatile double g_sink = 0.0;

// The kernel calls of one LoessPlan, run on a given table. Build fills the
// edge weights and the constant sums as the plan does (y = 1 and y = x);
// apply computes the interior dot products and both edges' y sums.
struct LoessPlanKernels {
  static constexpr size_t kN = 612;
  static constexpr size_t kSpan = 217;
  static constexpr size_t kHalf = kSpan / 2;
  static constexpr size_t kInterior = kN - kSpan + 1;
  static constexpr size_t kRight = kSpan - kHalf - 1;

  std::vector<double> values = std::vector<double>(kN);
  std::vector<double> kernel = std::vector<double>(kSpan);
  std::vector<double> kernel_k = std::vector<double>(kSpan);
  std::vector<double> ones = std::vector<double>(kSpan, 1.0);
  std::vector<double> xs = std::vector<double>(kSpan);
  std::vector<double> weights = std::vector<double>(4 * kSpan * ((kHalf + 3) / 4));
  std::vector<double> sums = std::vector<double>(8 * kHalf);  // Build outputs.
  std::vector<double> out = std::vector<double>(kInterior * 2 + kHalf * 4);  // Apply outputs.

  void Build(const simd::Kernels& k) {
    k.loess_edge_weights(kSpan, 0, kHalf, weights.data());
    double* s = sums.data();
    k.loess_edge_dot(weights.data(), kSpan, kHalf, false, ones.data(), 0, s, s + kHalf);
    k.loess_edge_dot(weights.data(), kSpan, kHalf, false, xs.data(), 0, s + 2 * kHalf,
                     s + 3 * kHalf);
    k.loess_edge_dot(weights.data(), kSpan, kRight, true, ones.data(), kN - kSpan,
                     s + 4 * kHalf, s + 5 * kHalf);
    k.loess_edge_dot(weights.data(), kSpan, kRight, true, xs.data(), kN - kSpan,
                     s + 6 * kHalf, s + 7 * kHalf);
  }

  void Apply(const simd::Kernels& k) {
    double* o = out.data();
    k.loess_dot2(values.data(), kInterior, kernel.data(), kernel_k.data(), kSpan, o,
                 o + kInterior);
    o += 2 * kInterior;
    k.loess_edge_dot(weights.data(), kSpan, kHalf, false, values.data(), 0, o, o + kHalf);
    k.loess_edge_dot(weights.data(), kSpan, kRight, true, values.data() + kN - kSpan,
                     kN - kSpan, o + 2 * kHalf, o + 3 * kHalf);
  }
};

bool AllContractEqual(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (!ContractEqual(a[i], b[i])) {
      return false;
    }
  }
  return true;
}

}  // namespace
}  // namespace fbdetect

int main(int argc, char** argv) {
  using namespace fbdetect;

  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") {
      smoke = true;
    }
  }

  PrintHeader(std::string("SIMD kernels vs scalar oracles (single thread)") +
              (smoke ? " [smoke]" : ""));
  const simd::Kernels& active = simd::Active();
  const simd::Kernels& scalar = simd::Scalar();
  const bool vectorized = &active != &scalar;
  std::printf("active ISA: %s%s\n", simd::IsaName(simd::ActiveIsa()),
              vectorized ? "" : " (scalar: identity checks only, speedups = 1x)");

  // A funnel-realistic span: a 10-day window at 10-minute ticks is 1440
  // points; 4096 keeps each timed call long enough to measure while staying
  // resident in L1.
  const size_t kN = 4096;
  const int kReps = smoke ? 3 : 7;
  const int kIters = smoke ? 50 : 400;

  Rng rng(4242);
  std::vector<double> x(kN);
  std::vector<double> y(kN);
  for (size_t i = 0; i < kN; ++i) {
    x[i] = rng.Uniform(-100.0, 100.0);
    y[i] = rng.Uniform(-100.0, 100.0);
  }

  std::vector<Entry> entries;

  // --- pearson: sum_pair + centered_moments ------------------------------
  {
    double sx_a = 0, sy_a = 0, sx_b = 0, sy_b = 0;
    active.sum_pair(x.data(), y.data(), kN, &sx_a, &sy_a);
    scalar.sum_pair(x.data(), y.data(), kN, &sx_b, &sy_b);
    FBD_CHECK(ContractEqual(sx_a, sx_b) && ContractEqual(sy_a, sy_b));
    const double simd_ns = BestNsPerElement(kN, kReps, kIters, [&] {
      double sx = 0, sy = 0;
      active.sum_pair(x.data(), y.data(), kN, &sx, &sy);
      g_sink = sx + sy;
    });
    const double scalar_ns = BestNsPerElement(kN, kReps, kIters, [&] {
      double sx = 0, sy = 0;
      scalar.sum_pair(x.data(), y.data(), kN, &sx, &sy);
      g_sink = sx + sy;
    });
    entries.push_back({"sum_pair", scalar_ns, simd_ns});

    const double mx = sx_b / static_cast<double>(kN);
    const double my = sy_b / static_cast<double>(kN);
    double m_a[3], m_b[3];
    active.centered_moments(x.data(), y.data(), kN, mx, my, &m_a[0], &m_a[1], &m_a[2]);
    scalar.centered_moments(x.data(), y.data(), kN, mx, my, &m_b[0], &m_b[1], &m_b[2]);
    for (int i = 0; i < 3; ++i) {
      FBD_CHECK(ContractEqual(m_a[i], m_b[i]));
    }
    const double cm_simd_ns = BestNsPerElement(kN, kReps, kIters, [&] {
      double sxy = 0, sxx = 0, syy = 0;
      active.centered_moments(x.data(), y.data(), kN, mx, my, &sxy, &sxx, &syy);
      g_sink = sxy + sxx + syy;
    });
    const double cm_scalar_ns = BestNsPerElement(kN, kReps, kIters, [&] {
      double sxy = 0, sxx = 0, syy = 0;
      scalar.centered_moments(x.data(), y.data(), kN, mx, my, &sxy, &sxx, &syy);
      g_sink = sxy + sxx + syy;
    });
    entries.push_back({"centered_moments", cm_scalar_ns, cm_simd_ns});
  }

  // --- som: squared_distances over a funnel-sized flat map ---------------
  {
    // L = ceil(600^(1/4)) = 5 gives a 25-cell map in the funnel; a 256-cell
    // map with 16 dims represents the larger cohorts and times cleanly.
    const size_t kCells = 256;
    const size_t kDims = 16;
    std::vector<double> weights(kCells * kDims);
    std::vector<double> item(kDims);
    for (double& w : weights) {
      w = rng.Uniform(-1.0, 1.0);
    }
    for (double& v : item) {
      v = rng.Uniform(-1.0, 1.0);
    }
    std::vector<double> d2_a(kCells), d2_b(kCells);
    active.squared_distances(weights.data(), kCells, kDims, item.data(), d2_a.data());
    scalar.squared_distances(weights.data(), kCells, kDims, item.data(), d2_b.data());
    for (size_t c = 0; c < kCells; ++c) {
      FBD_CHECK(ContractEqual(d2_a[c], d2_b[c]));
    }
    const size_t elements = kCells * kDims;
    const double simd_ns = BestNsPerElement(elements, kReps, kIters, [&] {
      active.squared_distances(weights.data(), kCells, kDims, item.data(), d2_a.data());
      g_sink = d2_a[0];
    });
    const double scalar_ns = BestNsPerElement(elements, kReps, kIters, [&] {
      scalar.squared_distances(weights.data(), kCells, kDims, item.data(), d2_b.data());
      g_sink = d2_b[0];
    });
    entries.push_back({"squared_distances", scalar_ns, simd_ns});
  }

  // --- sanitizer: classify_values + min_positive_gap ---------------------
  {
    std::vector<double> values = x;
    values[kN / 3] = std::numeric_limits<double>::quiet_NaN();  // Mixed data.
    values[kN / 2] = -std::numeric_limits<double>::infinity();
    uint64_t nf_a = 0, neg_a = 0, nf_b = 0, neg_b = 0;
    active.classify_values(values.data(), kN, &nf_a, &neg_a);
    scalar.classify_values(values.data(), kN, &nf_b, &neg_b);
    FBD_CHECK(nf_a == nf_b && neg_a == neg_b);
    const double simd_ns = BestNsPerElement(kN, kReps, kIters, [&] {
      uint64_t nf = 0, neg = 0;
      active.classify_values(values.data(), kN, &nf, &neg);
      g_sink = static_cast<double>(nf + neg);
    });
    const double scalar_ns = BestNsPerElement(kN, kReps, kIters, [&] {
      uint64_t nf = 0, neg = 0;
      scalar.classify_values(values.data(), kN, &nf, &neg);
      g_sink = static_cast<double>(nf + neg);
    });
    entries.push_back({"classify_values", scalar_ns, simd_ns});

    std::vector<int64_t> stamps(kN);
    int64_t t = 0;
    for (int64_t& s : stamps) {
      t += static_cast<int64_t>(rng.NextUint64(3));  // Gaps 0..2: dirty grid.
      s = t;
    }
    FBD_CHECK(active.min_positive_gap(stamps.data(), kN) ==
              scalar.min_positive_gap(stamps.data(), kN));
    const double gap_simd_ns = BestNsPerElement(kN, kReps, kIters, [&] {
      g_sink = static_cast<double>(active.min_positive_gap(stamps.data(), kN));
    });
    const double gap_scalar_ns = BestNsPerElement(kN, kReps, kIters, [&] {
      g_sink = static_cast<double>(scalar.min_positive_gap(stamps.data(), kN));
    });
    entries.push_back({"min_positive_gap", gap_scalar_ns, gap_simd_ns});
  }

  // --- gorilla: chunk decode, two-phase vs legacy bit-by-bit -------------
  {
    // Identity checks on the phase-2 prefix kernels (delegated to scalar on
    // AVX2, so these are trivially equal there — they still guard any future
    // ISA table that does provide vector scans).
    std::vector<int64_t> dods(kN);
    for (int64_t& d : dods) {
      d = static_cast<int64_t>(rng.NextUint64(17)) - 8;  // Realistic DoD range.
    }
    std::vector<int64_t> out_a(kN), out_b(kN);
    active.prefix_sum_i64(dods.data(), kN, 600, out_a.data());
    scalar.prefix_sum_i64(dods.data(), kN, 600, out_b.data());
    FBD_CHECK(out_a == out_b);
    std::vector<uint64_t> xors(kN);
    for (uint64_t& v : xors) {
      v = rng.NextUint64() & 0x000fffff00000000ull;  // XOR-block-shaped bits.
    }
    std::vector<double> dec_a(kN), dec_b(kN);
    const uint64_t seed = std::bit_cast<uint64_t>(1.25);
    active.prefix_xor_to_doubles(xors.data(), kN, seed, dec_a.data());
    scalar.prefix_xor_to_doubles(xors.data(), kN, seed, dec_b.data());
    for (size_t i = 0; i < kN; ++i) {
      FBD_CHECK(std::bit_cast<uint64_t>(dec_a[i]) == std::bit_cast<uint64_t>(dec_b[i]));
    }

    // The measured family win: decode a realistic chunk (mostly-regular
    // timestamps, sparsely-changing values) through the current two-phase
    // decoder vs the verbatim pre-rework bit-by-bit loop above.
    CompressedTimeSeries chunk;
    int64_t t = 0;
    double value = 100.0;
    for (size_t i = 0; i < kN; ++i) {
      t += 600 + (rng.NextUint64(50) == 0 ? static_cast<int64_t>(rng.NextUint64(30)) : 0);
      if (rng.NextUint64(10) < 3) {
        value += static_cast<double>(rng.NextUint64(1000)) / 1000.0 - 0.5;
      }
      chunk.Append(t, value);
    }
    TimeSeries legacy_out;
    LegacyDecodeInto(chunk, legacy_out);
    const TimeSeries new_out = chunk.Decode();
    FBD_CHECK(legacy_out.size() == new_out.size() && new_out.size() == kN);
    for (size_t i = 0; i < kN; ++i) {
      FBD_CHECK(legacy_out.timestamps()[i] == new_out.timestamps()[i]);
      FBD_CHECK(std::bit_cast<uint64_t>(legacy_out.values()[i]) ==
                std::bit_cast<uint64_t>(new_out.values()[i]));
    }
    const size_t decode_iters = smoke ? 5 : 50;
    const double new_ns = BestNsPerElement(kN, kReps, decode_iters, [&] {
      TimeSeries out;
      chunk.DecodeInto(out);
      g_sink = out.values().back();
    });
    const double legacy_ns = BestNsPerElement(kN, kReps, decode_iters, [&] {
      TimeSeries out;
      LegacyDecodeInto(chunk, out);
      g_sink = out.values().back();
    });
    entries.push_back({"gorilla_decode", legacy_ns, new_ns});
  }

  // --- loess: LoessPlan build and apply ---------------------------------
  {
    LoessPlanKernels plan_a;
    for (size_t i = 0; i < LoessPlanKernels::kN; ++i) {
      plan_a.values[i] = x[i];
    }
    for (size_t k = 0; k < LoessPlanKernels::kSpan; ++k) {
      plan_a.kernel[k] = rng.Uniform(0.0, 1.0);
      plan_a.kernel_k[k] = rng.Uniform(-1.0, 1.0);
      plan_a.xs[k] = static_cast<double>(k);
    }
    LoessPlanKernels plan_b = plan_a;
    plan_a.Build(active);
    plan_b.Build(scalar);
    FBD_CHECK(AllContractEqual(plan_a.weights, plan_b.weights));
    FBD_CHECK(AllContractEqual(plan_a.sums, plan_b.sums));
    plan_a.Apply(active);
    plan_b.Apply(scalar);
    FBD_CHECK(AllContractEqual(plan_a.out, plan_b.out));
    const int plan_iters = smoke ? 5 : 50;
    const size_t weight_count = LoessPlanKernels::kHalf * LoessPlanKernels::kSpan;
    const double build_simd_ns = BestNsPerElement(weight_count, kReps, plan_iters, [&] {
      plan_a.Build(active);
      g_sink = plan_a.sums[0];
    });
    const double build_scalar_ns = BestNsPerElement(weight_count, kReps, plan_iters, [&] {
      plan_b.Build(scalar);
      g_sink = plan_b.sums[0];
    });
    entries.push_back({"loess_plan_build", build_scalar_ns, build_simd_ns});
    const double apply_simd_ns = BestNsPerElement(LoessPlanKernels::kN, kReps, plan_iters, [&] {
      plan_a.Apply(active);
      g_sink = plan_a.out[0];
    });
    const double apply_scalar_ns =
        BestNsPerElement(LoessPlanKernels::kN, kReps, plan_iters, [&] {
          plan_b.Apply(scalar);
          g_sink = plan_b.out[0];
        });
    entries.push_back({"loess_plan_apply", apply_scalar_ns, apply_simd_ns});
  }

  // --- fft: every butterfly stage of a 2048-point transform --------------
  {
    const size_t kFft = 2048;
    std::vector<double> tw_re(kFft - 1);
    std::vector<double> tw_im(kFft - 1);
    for (size_t i = 0; i + 1 < kFft; ++i) {
      tw_re[i] = rng.Uniform(-1.0, 1.0);
      tw_im[i] = rng.Uniform(-1.0, 1.0);
    }
    const auto transform = [&](const simd::Kernels& k, std::vector<double>& re,
                               std::vector<double>& im) {
      for (size_t half = 1; half < kFft; half <<= 1) {
        k.fft_butterflies(re.data(), im.data(), kFft, half, tw_re.data() + half - 1,
                          tw_im.data() + half - 1);
      }
    };
    std::vector<double> re_a(x.begin(), x.begin() + kFft);
    std::vector<double> im_a(y.begin(), y.begin() + kFft);
    std::vector<double> re_b = re_a;
    std::vector<double> im_b = im_a;
    transform(active, re_a, im_a);
    transform(scalar, re_b, im_b);
    FBD_CHECK(AllContractEqual(re_a, re_b) && AllContractEqual(im_a, im_b));
    // Each timed call restarts from the input; the copy is in both columns.
    const std::vector<double> re0(x.begin(), x.begin() + kFft);
    const std::vector<double> im0(y.begin(), y.begin() + kFft);
    const size_t element_stages = kFft * 11;
    const double simd_ns = BestNsPerElement(element_stages, kReps, kIters / 10, [&] {
      re_a = re0;
      im_a = im0;
      transform(active, re_a, im_a);
      g_sink = re_a[1];
    });
    const double scalar_ns = BestNsPerElement(element_stages, kReps, kIters / 10, [&] {
      re_b = re0;
      im_b = im0;
      transform(scalar, re_b, im_b);
      g_sink = re_b[1];
    });
    entries.push_back({"fft_butterflies", scalar_ns, simd_ns});
  }

  // --- Report ------------------------------------------------------------
  std::printf("\n%-24s %14s %14s %9s\n", "kernel", "scalar ns/elem", "simd ns/elem",
              "speedup");
  std::string json = "{\"n\": 4096, \"entries\": [";
  for (size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    std::printf("%-24s %14.3f %14.3f %8.2fx\n", e.kernel, e.scalar_ns, e.simd_ns,
                e.speedup());
    char buffer[160];
    std::snprintf(buffer, sizeof(buffer),
                  "%s{\"kernel\": \"%s\", \"scalar_ns_per_elem\": %.3f, "
                  "\"simd_ns_per_elem\": %.3f, \"speedup\": %.2f}",
                  i == 0 ? "" : ", ", e.kernel, e.scalar_ns, e.simd_ns, e.speedup());
    json += buffer;
  }
  json += "]}";
  UpdateBenchSimdJson("kernels", json);

  // --- long-term screen: STL per series, entry build per key, screen per
  // series ---------------------------------------------------------------
  {
    const size_t historical = 576;
    const size_t analysis = 24;
    const size_t n = historical + analysis + 12;
    std::vector<TimePoint> timestamps;
    for (size_t i = historical; i < n; ++i) {
      timestamps.push_back(static_cast<TimePoint>(i) * Minutes(10));
    }
    DetectionConfig config;
    config.threshold = 0.5;  // Far above the bench series' delta: screened.
    const LongTermDetector detector(config);
    const MetricId id{"svc", MetricKind::kGcpu, "sub/f", {}};
    std::printf("\n%-8s %12s %16s %10s %18s\n", "period", "stl us", "entry build us",
                "build/stl", "screen us/series");
    std::string screen_json = "{\"n\": 612, \"entries\": [";
    const int screen_iters = smoke ? 3 : 20;
    for (const size_t period : {size_t{30}, size_t{144}}) {
      std::vector<double> values(n);
      for (size_t i = 0; i < n; ++i) {
        values[i] = 1.0 + 0.2 * std::sin(2.0 * M_PI * static_cast<double>(i % period) /
                                         static_cast<double>(period)) +
                    rng.Normal(0.0, 0.01);
      }
      ScanView view;
      view.full = values;
      view.historical_size = historical;
      view.analysis_size = analysis;
      view.extended_size = n - historical - analysis;
      view.analysis_timestamps = timestamps;
      view.analysis_begin = timestamps.front();
      view.as_of = timestamps.back();
      // Identity: the detector decides the same with and without the screen,
      // and the screen decides this series.
      LongTermScreen screen;
      SeriesDecomposition plain(view.full);
      const bool plain_found = detector.Detect(id, view, plain).has_value();
      SeriesDecomposition screened_shared(view.full);
      bool screened = false;
      const bool screened_found =
          detector.Detect(id, view, screened_shared, {}, &screen, &screened).has_value();
      FBD_CHECK(!plain_found && !screened_found && screened);
      const size_t used_period = plain.Season(config.seasonality_min_correlation).present
                                     ? plain.Season(config.seasonality_min_correlation).period
                                     : n / 20;
      const double stl_ns = BestNsPerElement(1, kReps, screen_iters, [&] {
        g_sink = StlDecompose(values, used_period).trend[0];
      });
      const LongTermScreen::Key key{n, used_period, historical, analysis};
      const double build_ns = BestNsPerElement(1, kReps, screen_iters, [&] {
        g_sink = LongTermScreen::Build(key).epsilon;
      });
      // The screen's own time, from its timer, with its entry cached and the
      // seasonality estimate computed once.
      Histogram timer;
      for (int i = 0; i < screen_iters * kReps; ++i) {
        detector.Detect(id, view, screened_shared, {nullptr, nullptr, nullptr, &timer}, &screen);
      }
      const double screen_ns =
          static_cast<double>(timer.sum()) / static_cast<double>(timer.count());
      std::printf("%-8zu %12.1f %16.1f %9.1fx %18.2f\n", used_period, stl_ns / 1e3,
                  build_ns / 1e3, build_ns / stl_ns, screen_ns / 1e3);
      char buffer[200];
      std::snprintf(buffer, sizeof(buffer),
                    "%s{\"period\": %zu, \"stl_us\": %.1f, \"entry_build_us\": %.1f, "
                    "\"screen_us_per_series\": %.2f}",
                    period == 30 ? "" : ", ", used_period, stl_ns / 1e3, build_ns / 1e3,
                    screen_ns / 1e3);
      screen_json += buffer;
    }
    screen_json += "]}";
    UpdateBenchSimdJson("long_term_screen", screen_json);
  }

  // --- certified ACF: DetectSeasonality against the reference, per series
  {
    std::printf("\n%-6s %8s %16s %16s %9s %10s\n", "n", "series", "reference us",
                "certified us", "speedup", "fallbacks");
    std::string acf_json = "{\"min_period\": 4, \"max_period\": \"n/3\", \"entries\": [";
    const int acf_series = smoke ? 40 : 400;
    for (const size_t n : {size_t{612}, size_t{4096}}) {
      const size_t max_period = n / 3;
      std::vector<std::vector<double>> series(acf_series, std::vector<double>(n));
      for (std::vector<double>& values : series) {
        const size_t period = 4 + static_cast<size_t>(rng.NextUint64(max_period - 4));
        const double amplitude = rng.Uniform(0.0, 0.3);
        const double noise = std::pow(10.0, rng.Uniform(-3.0, -1.0));
        for (size_t i = 0; i < n; ++i) {
          values[i] = 1.0 + amplitude * std::sin(2.0 * M_PI * static_cast<double>(i % period) /
                                                 static_cast<double>(period)) +
                      rng.Normal(0.0, noise);
        }
      }
      // Identity: the same decision on every bench series.
      int fallbacks = 0;
      for (const std::vector<double>& values : series) {
        bool exact_fallback = false;
        const SeasonalityEstimate certified =
            DetectSeasonality(values, 4, max_period, 0.3, &exact_fallback);
        const SeasonalityEstimate reference = ReferenceSeasonality(values, 4, max_period, 0.3);
        FBD_CHECK(certified.present == reference.present &&
                  certified.period == reference.period);
        fallbacks += exact_fallback ? 1 : 0;
      }
      const double reference_ns = BestNsPerElement(series.size(), kReps, 1, [&] {
        for (const std::vector<double>& values : series) {
          g_sink = static_cast<double>(ReferenceSeasonality(values, 4, max_period, 0.3).period);
        }
      });
      const double certified_ns = BestNsPerElement(series.size(), kReps, 1, [&] {
        for (const std::vector<double>& values : series) {
          g_sink = static_cast<double>(DetectSeasonality(values, 4, max_period, 0.3).period);
        }
      });
      std::printf("%-6zu %8zu %16.2f %16.2f %8.2fx %10d\n", n, series.size(),
                  reference_ns / 1e3, certified_ns / 1e3, reference_ns / certified_ns,
                  fallbacks);
      char buffer[240];
      std::snprintf(buffer, sizeof(buffer),
                    "%s{\"kernel\": \"acf\", \"n\": %zu, \"series\": %zu, "
                    "\"reference_us_per_series\": %.2f, \"certified_us_per_series\": %.2f, "
                    "\"speedup\": %.2f, \"fallbacks\": %d}",
                    n == 612 ? "" : ", ", n, series.size(), reference_ns / 1e3,
                    certified_ns / 1e3, reference_ns / certified_ns, fallbacks);
      acf_json += buffer;
    }
    acf_json += "]}";
    UpdateBenchSimdJson("acf", acf_json);
  }

  // Acceptance bar: each family's dominant kernel >= 2x its oracle, single
  // thread, when a vector ISA is live. Smoke runs (shared CI machines, tiny
  // iteration counts) check identity only.
  if (vectorized && !smoke) {
    for (const char* dominant :
         {"centered_moments", "squared_distances", "classify_values", "gorilla_decode"}) {
      for (const Entry& e : entries) {
        if (std::string(e.kernel) == dominant) {
          FBD_CHECK(e.speedup() >= 2.0);
        }
      }
    }
  }
  return 0;
}
