// Property tests for the SIMD kernel dispatch layer (src/common/simd.h).
//
// The contract under test (DESIGN.md §13): every kernel implementation —
// scalar, AVX2, NEON — produces byte-identical output for identical input.
// Each test runs BestAvailable() (whatever this CPU supports, ignoring
// FBD_DISABLE_SIMD) against Scalar() on random and adversarial inputs and
// compares results bit-for-bit, so the suite is meaningful on both the
// vectorized and the forced-scalar CI legs. Also covers the Arena scratch
// allocator and the ThreadPool granularity floor these kernels ride on.

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/arena.h"
#include "src/common/random.h"
#include "src/common/simd.h"
#include "src/common/thread_pool.h"

namespace fbdetect {
namespace {

// Lengths that exercise empty/singleton spans, sub-vector-width tails,
// exact vector multiples, and long streams.
const size_t kLengths[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 13, 16, 31, 64, 100, 255, 1000};

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

// Random doubles with occasional NaN/Inf/negative-zero/denormal landmines.
std::vector<double> AdversarialDoubles(size_t n, Rng& rng) {
  std::vector<double> values(n);
  for (double& v : values) {
    switch (rng.NextUint64(12)) {
      case 0:
        v = std::numeric_limits<double>::quiet_NaN();
        break;
      case 1:
        v = std::numeric_limits<double>::infinity();
        break;
      case 2:
        v = -std::numeric_limits<double>::infinity();
        break;
      case 3:
        v = -0.0;
        break;
      case 4:
        v = std::numeric_limits<double>::denorm_min();
        break;
      default:
        v = rng.Uniform(-1e6, 1e6);
        break;
    }
  }
  return values;
}

std::vector<double> FiniteDoubles(size_t n, Rng& rng) {
  std::vector<double> values(n);
  for (double& v : values) {
    v = rng.Uniform(-100.0, 100.0);
  }
  return values;
}

// The determinism contract (simd.h): bit-identical results, except that any
// NaN is equivalent to any NaN. IEEE addition is bit-commutative EXCEPT for
// which operand's NaN payload survives, and the compiler may commute the
// scalar oracle's adds — so once a reduction is NaN-poisoned, only NaN-ness
// (which every consumer checks via isfinite/comparisons) is defined, not the
// payload or sign bit.
bool ContractEqual(double a, double b) {
  return Bits(a) == Bits(b) || (std::isnan(a) && std::isnan(b));
}

void ExpectBitEqual(double a, double b, const char* what, size_t n) {
  EXPECT_TRUE(ContractEqual(a, b)) << what << " diverges at n=" << n << " (" << a
                                   << " vs " << b << ")";
}

TEST(SimdKernelsTest, ActiveIsaIsReportable) {
  // Smoke: the dispatch resolves and names every table.
  EXPECT_STREQ(simd::IsaName(simd::Isa::kScalar), "scalar");
  const char* active = simd::IsaName(simd::ActiveIsa());
  const char* best = simd::IsaName(simd::BestAvailableIsa());
  EXPECT_NE(active, nullptr);
  EXPECT_NE(best, nullptr);
}

TEST(SimdKernelsTest, SumPairMatchesScalarOnRandomInputs) {
  Rng rng(101);
  const simd::Kernels& best = simd::BestAvailable();
  const simd::Kernels& scalar = simd::Scalar();
  for (size_t n : kLengths) {
    for (int trial = 0; trial < 8; ++trial) {
      const std::vector<double> x =
          trial % 2 == 0 ? FiniteDoubles(n, rng) : AdversarialDoubles(n, rng);
      const std::vector<double> y =
          trial % 2 == 0 ? FiniteDoubles(n, rng) : AdversarialDoubles(n, rng);
      double sx_a = -1.0, sy_a = -1.0, sx_b = -2.0, sy_b = -2.0;
      best.sum_pair(x.data(), y.data(), n, &sx_a, &sy_a);
      scalar.sum_pair(x.data(), y.data(), n, &sx_b, &sy_b);
      ExpectBitEqual(sx_a, sx_b, "sum_pair sum_x", n);
      ExpectBitEqual(sy_a, sy_b, "sum_pair sum_y", n);
    }
  }
}

TEST(SimdKernelsTest, SumPairAllowsAliasedInputs) {
  Rng rng(102);
  const std::vector<double> x = FiniteDoubles(33, rng);
  double sx_a = 0.0, sy_a = 0.0, sx_b = 0.0, sy_b = 0.0;
  simd::BestAvailable().sum_pair(x.data(), x.data(), x.size(), &sx_a, &sy_a);
  simd::Scalar().sum_pair(x.data(), x.data(), x.size(), &sx_b, &sy_b);
  EXPECT_EQ(Bits(sx_a), Bits(sx_b));
  EXPECT_EQ(Bits(sx_a), Bits(sy_a));
}

TEST(SimdKernelsTest, CenteredMomentsMatchScalarOnRandomInputs) {
  Rng rng(103);
  const simd::Kernels& best = simd::BestAvailable();
  const simd::Kernels& scalar = simd::Scalar();
  for (size_t n : kLengths) {
    for (int trial = 0; trial < 8; ++trial) {
      const std::vector<double> x =
          trial % 2 == 0 ? FiniteDoubles(n, rng) : AdversarialDoubles(n, rng);
      const std::vector<double> y =
          trial % 2 == 0 ? FiniteDoubles(n, rng) : AdversarialDoubles(n, rng);
      const double mx = rng.Uniform(-10.0, 10.0);
      const double my = rng.Uniform(-10.0, 10.0);
      double sxy_a = 0, sxx_a = 0, syy_a = 0, sxy_b = 0, sxx_b = 0, syy_b = 0;
      best.centered_moments(x.data(), y.data(), n, mx, my, &sxy_a, &sxx_a, &syy_a);
      scalar.centered_moments(x.data(), y.data(), n, mx, my, &sxy_b, &sxx_b, &syy_b);
      ExpectBitEqual(sxy_a, sxy_b, "centered_moments sxy", n);
      ExpectBitEqual(sxx_a, sxx_b, "centered_moments sxx", n);
      ExpectBitEqual(syy_a, syy_b, "centered_moments syy", n);
    }
  }
}

TEST(SimdKernelsTest, SquaredDistancesMatchScalarAcrossShapes) {
  Rng rng(104);
  const simd::Kernels& best = simd::BestAvailable();
  const simd::Kernels& scalar = simd::Scalar();
  // Cell counts around the 4-cell transpose block and dimension counts around
  // the 4-dim inner block, plus funnel-realistic shapes (L^2 cells, ~12 dims).
  const size_t kCells[] = {1, 2, 3, 4, 5, 7, 8, 9, 16, 25, 49};
  const size_t kDims[] = {1, 2, 3, 4, 5, 8, 11, 12, 17};
  for (size_t cells : kCells) {
    for (size_t dims : kDims) {
      for (int trial = 0; trial < 2; ++trial) {
        const std::vector<double> weights =
            trial == 0 ? FiniteDoubles(cells * dims, rng)
                       : AdversarialDoubles(cells * dims, rng);
        const std::vector<double> item =
            trial == 0 ? FiniteDoubles(dims, rng) : AdversarialDoubles(dims, rng);
        std::vector<double> d2_a(cells, -1.0);
        std::vector<double> d2_b(cells, -2.0);
        best.squared_distances(weights.data(), cells, dims, item.data(), d2_a.data());
        scalar.squared_distances(weights.data(), cells, dims, item.data(), d2_b.data());
        for (size_t c = 0; c < cells; ++c) {
          EXPECT_TRUE(ContractEqual(d2_a[c], d2_b[c]))
              << "squared_distances diverges at cell " << c << " (cells=" << cells
              << ", dims=" << dims << ")";
        }
      }
    }
  }
}

TEST(SimdKernelsTest, ClassifyValuesMatchesScalarAndIsExact) {
  Rng rng(105);
  const simd::Kernels& best = simd::BestAvailable();
  const simd::Kernels& scalar = simd::Scalar();
  for (size_t n : kLengths) {
    for (int trial = 0; trial < 8; ++trial) {
      const std::vector<double> values = AdversarialDoubles(n, rng);
      uint64_t nf_a = 99, neg_a = 99, nf_b = 77, neg_b = 77;
      best.classify_values(values.data(), n, &nf_a, &neg_a);
      scalar.classify_values(values.data(), n, &nf_b, &neg_b);
      EXPECT_EQ(nf_a, nf_b) << "non_finite count diverges at n=" << n;
      EXPECT_EQ(neg_a, neg_b) << "negative count diverges at n=" << n;
      // Independent reference: the sanitizer's historical scalar loop.
      uint64_t nf_ref = 0, neg_ref = 0;
      for (double v : values) {
        if (!std::isfinite(v)) {
          ++nf_ref;
        } else if (v < 0.0) {
          ++neg_ref;
        }
      }
      EXPECT_EQ(nf_a, nf_ref);
      EXPECT_EQ(neg_a, neg_ref);
    }
  }
}

TEST(SimdKernelsTest, ClassifyValuesTreatsNegativeZeroAsNonNegative) {
  const double values[] = {-0.0, 0.0, -1.0};
  uint64_t nf = 0, neg = 0;
  simd::BestAvailable().classify_values(values, 3, &nf, &neg);
  EXPECT_EQ(nf, 0u);
  EXPECT_EQ(neg, 1u);  // Only -1.0; IEEE -0.0 is not < 0.
}

TEST(SimdKernelsTest, MinPositiveGapMatchesScalar) {
  Rng rng(106);
  const simd::Kernels& best = simd::BestAvailable();
  const simd::Kernels& scalar = simd::Scalar();
  for (size_t n : kLengths) {
    for (int trial = 0; trial < 8; ++trial) {
      std::vector<int64_t> stamps(n);
      int64_t t = static_cast<int64_t>(rng.NextUint64(1000));
      for (int64_t& s : stamps) {
        // Mix of positive gaps, repeats, and out-of-order drops so the
        // positive-gap filter actually has to discriminate.
        const uint64_t kind = rng.NextUint64(4);
        if (kind == 0) {
          t -= static_cast<int64_t>(rng.NextUint64(30));
        } else if (kind == 1) {
          // Repeat: zero gap.
        } else {
          t += static_cast<int64_t>(1 + rng.NextUint64(120));
        }
        s = t;
      }
      EXPECT_EQ(best.min_positive_gap(stamps.data(), n),
                scalar.min_positive_gap(stamps.data(), n))
          << "min_positive_gap diverges at n=" << n << " trial=" << trial;
    }
  }
}

TEST(SimdKernelsTest, MinPositiveGapEdgeCases) {
  const simd::Kernels& k = simd::BestAvailable();
  EXPECT_EQ(k.min_positive_gap(nullptr, 0), 0);
  const int64_t one[] = {42};
  EXPECT_EQ(k.min_positive_gap(one, 1), 0);
  const int64_t flat[] = {5, 5, 5, 5, 5, 5, 5, 5, 5};
  EXPECT_EQ(k.min_positive_gap(flat, 9), 0);  // No strictly positive gap.
  const int64_t falling[] = {9, 8, 7, 6, 5, 4, 3, 2, 1};
  EXPECT_EQ(k.min_positive_gap(falling, 9), 0);
  // INT64_MAX as the only positive gap must be reported, not treated as the
  // "none found" sentinel.
  const int64_t huge[] = {0, std::numeric_limits<int64_t>::max()};
  EXPECT_EQ(k.min_positive_gap(huge, 2), std::numeric_limits<int64_t>::max());
}

TEST(SimdKernelsTest, PrefixSumMatchesScalarWithWraparound) {
  Rng rng(107);
  const simd::Kernels& best = simd::BestAvailable();
  const simd::Kernels& scalar = simd::Scalar();
  for (size_t n : kLengths) {
    for (int trial = 0; trial < 8; ++trial) {
      std::vector<int64_t> in(n);
      for (int64_t& v : in) {
        // Full-range values force two's-complement wraparound in the sums.
        v = static_cast<int64_t>(rng.NextUint64());
      }
      const int64_t seed = static_cast<int64_t>(rng.NextUint64());
      std::vector<int64_t> out_a(n, -1);
      std::vector<int64_t> out_b(n, -2);
      best.prefix_sum_i64(in.data(), n, seed, out_a.data());
      scalar.prefix_sum_i64(in.data(), n, seed, out_b.data());
      EXPECT_EQ(out_a, out_b) << "prefix_sum_i64 diverges at n=" << n;
    }
  }
}

TEST(SimdKernelsTest, PrefixSumWorksInPlace) {
  Rng rng(108);
  std::vector<int64_t> in(100);
  for (int64_t& v : in) {
    v = static_cast<int64_t>(rng.NextUint64(1000)) - 500;
  }
  std::vector<int64_t> expected(in.size());
  simd::Scalar().prefix_sum_i64(in.data(), in.size(), 7, expected.data());
  std::vector<int64_t> inplace = in;
  simd::BestAvailable().prefix_sum_i64(inplace.data(), inplace.size(), 7,
                                       inplace.data());
  EXPECT_EQ(inplace, expected);
}

TEST(SimdKernelsTest, PrefixXorToDoublesMatchesScalar) {
  Rng rng(109);
  const simd::Kernels& best = simd::BestAvailable();
  const simd::Kernels& scalar = simd::Scalar();
  for (size_t n : kLengths) {
    for (int trial = 0; trial < 8; ++trial) {
      std::vector<uint64_t> in(n);
      for (uint64_t& v : in) {
        // Arbitrary bit patterns: XOR chains routinely pass through NaN and
        // Inf encodings mid-stream, and the payload bits must survive.
        v = rng.NextUint64();
      }
      const uint64_t seed = rng.NextUint64();
      std::vector<double> out_a(n, 1.0);
      std::vector<double> out_b(n, 2.0);
      best.prefix_xor_to_doubles(in.data(), n, seed, out_a.data());
      scalar.prefix_xor_to_doubles(in.data(), n, seed, out_b.data());
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(Bits(out_a[i]), Bits(out_b[i]))
            << "prefix_xor_to_doubles diverges at i=" << i << " n=" << n;
      }
    }
  }
}

TEST(SimdKernelsTest, LoessDot2MatchesScalarAcrossShapes) {
  Rng rng(110);
  const simd::Kernels& best = simd::BestAvailable();
  const simd::Kernels& scalar = simd::Scalar();
  // Output counts around the 4- and 8-lane blocks; tap counts from the
  // shortest loess span to STL trend spans.
  const size_t kCounts[] = {0, 1, 3, 4, 5, 7, 8, 9, 12, 15, 16, 17, 100, 396};
  const size_t kTaps[] = {1, 2, 3, 7, 8, 31, 145, 217};
  for (size_t count : kCounts) {
    for (size_t taps : kTaps) {
      for (int trial = 0; trial < 2; ++trial) {
        const size_t n = count + taps - 1;
        const std::vector<double> x =
            trial == 0 ? FiniteDoubles(n, rng) : AdversarialDoubles(n, rng);
        const std::vector<double> a =
            trial == 0 ? FiniteDoubles(taps, rng) : AdversarialDoubles(taps, rng);
        const std::vector<double> b = FiniteDoubles(taps, rng);
        std::vector<double> a_best(count, -1.0), b_best(count, -1.0);
        std::vector<double> a_scalar(count, -2.0), b_scalar(count, -2.0);
        best.loess_dot2(x.data(), count, a.data(), b.data(), taps, a_best.data(),
                        b_best.data());
        scalar.loess_dot2(x.data(), count, a.data(), b.data(), taps, a_scalar.data(),
                          b_scalar.data());
        for (size_t o = 0; o < count; ++o) {
          EXPECT_TRUE(ContractEqual(a_best[o], a_scalar[o]))
              << "loess_dot2 a diverges at o=" << o << " count=" << count << " taps=" << taps;
          EXPECT_TRUE(ContractEqual(b_best[o], b_scalar[o]))
              << "loess_dot2 b diverges at o=" << o << " count=" << count << " taps=" << taps;
        }
      }
    }
  }
}

TEST(SimdKernelsTest, LoessEdgeWeightsMatchScalarAcrossShapes) {
  const simd::Kernels& best = simd::BestAvailable();
  const simd::Kernels& scalar = simd::Scalar();
  // Spans from 1 (zero half-width: every weight is 1) to STL trend spans;
  // fit counts around the four-lane blocks, up to the whole window.
  const size_t kSpans[] = {1, 2, 3, 4, 5, 7, 8, 9, 31, 145, 217};
  for (size_t span : kSpans) {
    for (size_t count = 0; count <= span; ++count) {
      if (count > 13 && count != span / 2 && count != span / 2 + 1 && count != span) {
        continue;
      }
      const size_t size = 4 * span * ((count + 3) / 4);
      std::vector<double> w_best(size, -1.0);
      std::vector<double> w_scalar(size, -2.0);
      const size_t first = (span - count) / 2;  // A chunk that starts mid-edge.
      best.loess_edge_weights(span, first, count, w_best.data());
      scalar.loess_edge_weights(span, first, count, w_scalar.data());
      for (size_t i = 0; i < size; ++i) {
        EXPECT_EQ(Bits(w_best[i]), Bits(w_scalar[i]))
            << "loess_edge_weights diverges at block " << i / (4 * span) << " row "
            << i % (4 * span) / 4 << " lane " << i % 4 << " span=" << span
            << " first=" << first << " count=" << count;
      }
    }
  }
}

TEST(SimdKernelsTest, LoessEdgeDotMatchesScalarAcrossShapes) {
  Rng rng(111);
  const simd::Kernels& best = simd::BestAvailable();
  const simd::Kernels& scalar = simd::Scalar();
  // Fit counts around the 4- and 8-lane blocks, so partial remainder lanes
  // and a lone trailing block both occur.
  const size_t kCounts[] = {0, 1, 3, 4, 5, 7, 8, 9, 11, 12, 13, 15, 16, 17, 37, 108};
  const size_t kSpans[] = {1, 2, 3, 7, 8, 31, 217};
  for (size_t count : kCounts) {
    for (size_t span : kSpans) {
      for (int trial = 0; trial < 2; ++trial) {
        const std::vector<double> y =
            trial == 0 ? FiniteDoubles(span, rng) : AdversarialDoubles(span, rng);
        // Weights with zeros and negatives (skipped terms) mixed in.
        std::vector<double> weights = FiniteDoubles(4 * span * ((count + 3) / 4), rng);
        for (double& w : weights) {
          if (rng.NextUint64(4) == 0) {
            w = rng.NextUint64(2) == 0 ? 0.0 : -w * w;
          }
        }
        const size_t lo = rng.NextUint64(1000);
        for (bool mirrored : {false, true}) {
          std::vector<double> y_best(count, -1.0), xy_best(count, -1.0);
          std::vector<double> y_scalar(count, -2.0), xy_scalar(count, -2.0);
          best.loess_edge_dot(weights.data(), span, count, mirrored, y.data(), lo,
                              y_best.data(), xy_best.data());
          scalar.loess_edge_dot(weights.data(), span, count, mirrored, y.data(), lo,
                                y_scalar.data(), xy_scalar.data());
          for (size_t o = 0; o < count; ++o) {
            EXPECT_TRUE(ContractEqual(y_best[o], y_scalar[o]))
                << "loess_edge_dot swy diverges at o=" << o << " count=" << count
                << " span=" << span << " mirrored=" << mirrored;
            EXPECT_TRUE(ContractEqual(xy_best[o], xy_scalar[o]))
                << "loess_edge_dot swxy diverges at o=" << o << " count=" << count
                << " span=" << span << " mirrored=" << mirrored;
          }
        }
      }
    }
  }
}

TEST(SimdKernelsTest, FftButterfliesMatchScalarAtEveryStage) {
  Rng rng(112);
  const simd::Kernels& best = simd::BestAvailable();
  const simd::Kernels& scalar = simd::Scalar();
  for (size_t n = 2; n <= 4096; n *= 2) {
    for (size_t half = 1; half < n; half *= 2) {
      for (int trial = 0; trial < 2; ++trial) {
        const std::vector<double> re =
            trial == 0 ? FiniteDoubles(n, rng) : AdversarialDoubles(n, rng);
        const std::vector<double> im = FiniteDoubles(n, rng);
        const std::vector<double> wr = FiniteDoubles(half, rng);
        const std::vector<double> wi =
            trial == 0 ? FiniteDoubles(half, rng) : AdversarialDoubles(half, rng);
        std::vector<double> re_best = re, im_best = im;
        std::vector<double> re_scalar = re, im_scalar = im;
        best.fft_butterflies(re_best.data(), im_best.data(), n, half, wr.data(), wi.data());
        scalar.fft_butterflies(re_scalar.data(), im_scalar.data(), n, half, wr.data(),
                               wi.data());
        for (size_t i = 0; i < n; ++i) {
          EXPECT_TRUE(ContractEqual(re_best[i], re_scalar[i]) &&
                      ContractEqual(im_best[i], im_scalar[i]))
              << "fft_butterflies diverges at i=" << i << " n=" << n << " half=" << half
              << " trial=" << trial;
        }
      }
    }
  }
}

TEST(SimdKernelsTest, ScalarTableIsUsedWhenEnvDisablesSimd) {
  // Active() is resolved once per process, so this test only checks
  // consistency: if the env var is set the active table must be scalar.
  const char* env = std::getenv("FBD_DISABLE_SIMD");
  if (env != nullptr && env[0] != '\0' && !(env[0] == '0' && env[1] == '\0')) {
    EXPECT_EQ(simd::ActiveIsa(), simd::Isa::kScalar);
    EXPECT_EQ(&simd::Active(), &simd::Scalar());
  } else {
    EXPECT_EQ(simd::ActiveIsa(), simd::BestAvailableIsa());
  }
}

// --- Arena ------------------------------------------------------------------

TEST(ArenaTest, AllocationsAreAligned) {
  Arena arena;
  for (size_t bytes : {1, 3, 63, 64, 65, 1000}) {
    void* p = arena.AllocateBytes(bytes);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % Arena::kAlignment, 0u)
        << "allocation of " << bytes << " bytes is misaligned";
  }
}

TEST(ArenaTest, MakeSpanZeroInitializesAndUninitializedSpanIsDistinct) {
  Arena arena;
  const std::span<double> zeroed = arena.MakeSpan<double>(257);
  for (double v : zeroed) {
    EXPECT_EQ(Bits(v), 0u);
  }
  const std::span<int64_t> raw = arena.MakeUninitializedSpan<int64_t>(17);
  EXPECT_EQ(raw.size(), 17u);
  EXPECT_NE(static_cast<void*>(raw.data()), static_cast<void*>(zeroed.data()));
}

TEST(ArenaTest, ScopeRewindReusesMemory) {
  Arena arena;
  void* first = nullptr;
  {
    ArenaScope scope(arena);
    first = scope.MakeUninitializedSpan<double>(100).data();
  }
  {
    ArenaScope scope(arena);
    // After the rewind the same storage is handed out again — the steady
    // state of the scan loop is zero mallocs.
    EXPECT_EQ(scope.MakeUninitializedSpan<double>(100).data(), first);
  }
}

TEST(ArenaTest, ScopesNestLikeStackFrames) {
  Arena arena;
  ArenaScope outer(arena);
  const std::span<int64_t> outer_span = outer.MakeSpan<int64_t>(8);
  outer_span[0] = 42;
  const size_t before = arena.reserved_bytes();
  {
    ArenaScope inner(arena);
    const std::span<int64_t> inner_span = inner.MakeSpan<int64_t>(1 << 20);
    inner_span[0] = 7;  // Large enough to force extra blocks.
    EXPECT_GT(arena.reserved_bytes(), before);
  }
  // Inner blocks are released; the outer allocation is untouched.
  EXPECT_EQ(arena.reserved_bytes(), before);
  EXPECT_EQ(outer_span[0], 42);
}

TEST(ArenaTest, ThreadLocalArenasAreDistinctPerThread) {
  Arena* main_arena = &Arena::ThreadLocal();
  Arena* worker_arena = nullptr;
  ThreadPool pool(1);
  pool.ParallelFor(2, [&](size_t task) {
    if (task == 1) {
      // Task 1 runs wherever; both tasks claiming scratch concurrently must
      // not alias the main thread's arena state.
      ArenaScope scope(Arena::ThreadLocal());
      scope.MakeSpan<double>(64);
    } else {
      worker_arena = &Arena::ThreadLocal();
    }
  });
  EXPECT_NE(worker_arena, nullptr);
  (void)main_arena;
}

// --- ThreadPool granularity floor -------------------------------------------

TEST(ThreadPoolGranularityTest, ResultsIdenticalAcrossGrainAndPoolSize) {
  // The regression this guards: ParallelIndexFor's min_items_per_lane floor
  // must never change results, only whether the pool is woken. Sweep n around
  // the threshold for serial, small-pool, and large-pool execution.
  const size_t kGrain = 8;
  for (size_t n : {0ul, 1ul, 7ul, 8ul, 15ul, 16ul, 17ul, 64ul, 129ul}) {
    std::vector<uint64_t> expected(n);
    for (size_t i = 0; i < n; ++i) {
      expected[i] = i * i + 1;
    }
    for (size_t workers : {0ul, 1ul, 3ul, 7ul}) {
      ThreadPool pool(workers);
      std::vector<uint64_t> got(n, 0);
      ParallelIndexFor(
          n, &pool, [&](size_t i) { got[i] = i * i + 1; }, kGrain);
      EXPECT_EQ(got, expected) << "n=" << n << " workers=" << workers;
    }
  }
}

TEST(ThreadPoolGranularityTest, SmallBatchesStayOnCallingThread) {
  // Below the floor the pool must not be dispatched at all: every index runs
  // on the calling thread (observable via thread-local identity).
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on(7);
  ParallelIndexFor(
      ran_on.size(), &pool, [&](size_t i) { ran_on[i] = std::this_thread::get_id(); },
      /*min_items_per_lane=*/8);
  for (size_t i = 0; i < ran_on.size(); ++i) {
    EXPECT_EQ(ran_on[i], caller) << "index " << i << " left the calling thread";
  }
  EXPECT_EQ(pool.stats().batches, 0u);
}

TEST(ThreadPoolGranularityTest, LargeBatchesUseThePool) {
  ThreadPool pool(4);
  std::atomic<size_t> off_thread{0};
  const std::thread::id caller = std::this_thread::get_id();
  ParallelIndexFor(
      1024, &pool,
      [&](size_t) {
        if (std::this_thread::get_id() != caller) {
          off_thread.fetch_add(1, std::memory_order_relaxed);
        }
      },
      /*min_items_per_lane=*/8);
  EXPECT_GT(pool.stats().batches, 0u);
}

TEST(ThreadPoolGranularityTest, ExceptionsStillPropagateThroughGrainedPath) {
  ThreadPool pool(2);
  EXPECT_THROW(
      ParallelIndexFor(
          256, &pool,
          [&](size_t i) {
            if (i == 200) {
              throw std::runtime_error("boom");
            }
          },
          /*min_items_per_lane=*/4),
      std::runtime_error);
  // The pool must remain usable after an exception drains.
  std::atomic<size_t> count{0};
  ParallelIndexFor(
      64, &pool, [&](size_t) { count.fetch_add(1, std::memory_order_relaxed); }, 1);
  EXPECT_EQ(count.load(), 64u);
}

}  // namespace
}  // namespace fbdetect
