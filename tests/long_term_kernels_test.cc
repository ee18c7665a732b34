// Byte-identity oracles for the long-term path's kernels: the FFT behind the
// seasonality ACF, loess, and STL. Each test holds a frozen copy of the
// straightforward implementation these kernels replaced (std::complex
// butterflies with a running twiddle product, per-point loess fits, STL on
// per-iteration vectors) and compares results bit for bit. NaN/Inf inputs
// follow the DESIGN.md §13 carve-out: a NaN equals any NaN.
//
// Also checks that SeasonalityStage and LongTermDetector fed one shared
// SeriesDecomposition decide exactly as they do on their own, and that the
// transposes behind the long-term screen (LoessPlan::ApplyTranspose,
// StlTrendAdjoint) are the adjoints of Apply and of StlDecompose's trend
// within the rounding bounds DESIGN §13 derives.

#include <algorithm>
#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/arena.h"
#include "src/common/random.h"
#include "src/common/rounding.h"
#include "src/core/long_term.h"
#include "src/core/seasonality_stage.h"
#include "src/core/series_decomposition.h"
#include "src/core/workload_config.h"
#include "src/stats/descriptive.h"
#include "src/stats/fourier.h"
#include "src/tsa/loess.h"
#include "src/tsa/stl.h"

namespace fbdetect {
namespace {

// ---------------------------------------------------------------------------
// Frozen reference implementations.
// ---------------------------------------------------------------------------
namespace frozen {

void Fft(std::vector<std::complex<double>>& data, bool inverse) {
  const size_t n = data.size();
  if (n == 1) {
    return;
  }
  for (size_t i = 1, j = 0; i < n; ++i) {
    size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) {
      j ^= bit;
    }
    j ^= bit;
    if (i < j) {
      std::swap(data[i], data[j]);
    }
  }
  for (size_t len = 2; len <= n; len <<= 1) {
    const double angle = (inverse ? 2.0 : -2.0) * M_PI / static_cast<double>(len);
    const std::complex<double> wlen = std::polar(1.0, angle);
    for (size_t i = 0; i < n; i += len) {
      std::complex<double> w(1.0, 0.0);
      for (size_t k = 0; k < len / 2; ++k) {
        const std::complex<double> even = data[i + k];
        const std::complex<double> odd = data[i + k + len / 2] * w;
        data[i + k] = even + odd;
        data[i + k + len / 2] = even - odd;
        w *= wlen;
      }
    }
  }
  if (inverse) {
    const double scale = 1.0 / static_cast<double>(n);
    for (std::complex<double>& value : data) {
      value *= scale;
    }
  }
}

std::vector<double> AutocovarianceSumsFft(std::span<const double> values, size_t max_lag) {
  const size_t n = values.size();
  if (n == 0) {
    return {};
  }
  const size_t limit = std::min(max_lag, n - 1);
  const double mean = Mean(values);
  const size_t padded = NextPowerOfTwo(2 * n);
  std::vector<std::complex<double>> buffer(padded, std::complex<double>(0.0, 0.0));
  for (size_t i = 0; i < n; ++i) {
    buffer[i] = std::complex<double>(values[i] - mean, 0.0);
  }
  Fft(buffer, /*inverse=*/false);
  for (std::complex<double>& value : buffer) {
    value = std::complex<double>(std::norm(value), 0.0);
  }
  Fft(buffer, /*inverse=*/true);
  std::vector<double> sums(limit + 1, 0.0);
  for (size_t lag = 0; lag <= limit; ++lag) {
    sums[lag] = buffer[lag].real();
  }
  return sums;
}

double Tricube(double u) {
  const double a = 1.0 - std::fabs(u) * std::fabs(u) * std::fabs(u);
  return a <= 0.0 ? 0.0 : a * a * a;
}

double LoessFitAt(std::span<const double> values, std::span<const double> robustness,
                  size_t span, size_t i) {
  const size_t n = values.size();
  size_t lo = i >= span / 2 ? i - span / 2 : 0;
  if (lo + span > n) {
    lo = n - span;
  }
  const size_t hi = lo + span;
  const double max_dist =
      std::max(static_cast<double>(i - lo), static_cast<double>(hi - 1 - i));
  double sw = 0.0;
  double swx = 0.0;
  double swy = 0.0;
  double swxx = 0.0;
  double swxy = 0.0;
  for (size_t j = lo; j < hi; ++j) {
    const double dist = std::fabs(static_cast<double>(j) - static_cast<double>(i));
    double w = max_dist > 0.0 ? Tricube(dist / (max_dist + 1.0)) : 1.0;
    if (!robustness.empty()) {
      w *= robustness[j];
    }
    if (w <= 0.0) {
      continue;
    }
    const double x = static_cast<double>(j);
    sw += w;
    swx += w * x;
    swy += w * values[j];
    swxx += w * x * x;
    swxy += w * x * values[j];
  }
  if (sw <= 0.0) {
    return values[i];
  }
  const double denom = sw * swxx - swx * swx;
  const double x_i = static_cast<double>(i);
  if (std::fabs(denom) < 1e-12 * sw * swxx + 1e-300) {
    return swy / sw;
  }
  const double slope = (sw * swxy - swx * swy) / denom;
  const double intercept = (swy - slope * swx) / sw;
  return slope * x_i + intercept;
}

std::vector<double> LoessSmoothWeighted(std::span<const double> values, size_t span,
                                        std::span<const double> robustness) {
  const size_t n = values.size();
  std::vector<double> smoothed(n, 0.0);
  if (n == 0) {
    return smoothed;
  }
  if (n == 1) {
    smoothed[0] = values[0];
    return smoothed;
  }
  span = std::clamp<size_t>(span, 2, n);
  const size_t half = span / 2;
  if (robustness.empty() && n > span) {
    const double center = static_cast<double>(half);
    const double max_dist = std::max(center, static_cast<double>(span - 1 - half));
    std::vector<double> kernel(span);
    std::vector<double> kernel_k(span);
    double sw = 0.0;
    double swk = 0.0;
    double swkk = 0.0;
    for (size_t k = 0; k < span; ++k) {
      const double offset = static_cast<double>(k) - center;
      const double w = max_dist > 0.0 ? Tricube(std::fabs(offset) / (max_dist + 1.0)) : 1.0;
      kernel[k] = w;
      kernel_k[k] = w * offset;
      sw += w;
      swk += w * offset;
      swkk += w * offset * offset;
    }
    const double denom = sw * swkk - swk * swk;
    const bool degenerate = sw <= 0.0 || std::fabs(denom) < 1e-12 * sw * swkk + 1e-300;
    const size_t first = half;
    const size_t last = n - span + half;
    for (size_t i = first; i <= last; ++i) {
      const double* window = values.data() + (i - half);
      double swy = 0.0;
      double swky = 0.0;
      for (size_t k = 0; k < span; ++k) {
        swy += kernel[k] * window[k];
        swky += kernel_k[k] * window[k];
      }
      if (degenerate) {
        smoothed[i] = sw > 0.0 ? swy / sw : values[i];
      } else {
        const double slope = (sw * swky - swk * swy) / denom;
        smoothed[i] = (swy - slope * swk) / sw;
      }
    }
    for (size_t i = 0; i < first; ++i) {
      smoothed[i] = LoessFitAt(values, robustness, span, i);
    }
    for (size_t i = last + 1; i < n; ++i) {
      smoothed[i] = LoessFitAt(values, robustness, span, i);
    }
    return smoothed;
  }
  for (size_t i = 0; i < n; ++i) {
    smoothed[i] = LoessFitAt(values, robustness, span, i);
  }
  return smoothed;
}

size_t NextOdd(size_t x) { return x % 2 == 0 ? x + 1 : x; }

std::vector<double> CenteredMovingAverage(std::span<const double> values, size_t width) {
  const size_t n = values.size();
  std::vector<double> out(n, 0.0);
  if (width == 0 || n == 0) {
    return out;
  }
  std::vector<double> prefix(n + 1, 0.0);
  for (size_t i = 0; i < n; ++i) {
    prefix[i + 1] = prefix[i] + values[i];
  }
  for (size_t i = 0; i < n; ++i) {
    const size_t half = width / 2;
    size_t lo = i >= half ? i - half : 0;
    size_t hi = std::min(n, i + half + 1);
    if (width % 2 == 0) {
      hi = std::min(n, i + half);
      if (hi <= lo) {
        hi = lo + 1;
      }
    }
    out[i] = (prefix[hi] - prefix[lo]) / static_cast<double>(hi - lo);
  }
  return out;
}

Decomposition StlDecompose(std::span<const double> values, size_t period,
                           const StlConfig& config) {
  Decomposition result;
  const size_t n = values.size();
  result.seasonal.assign(n, 0.0);
  result.trend.assign(values.begin(), values.end());
  result.residual.assign(n, 0.0);
  if (period < 2 || n < 2 * period) {
    return result;
  }
  const size_t trend_span =
      config.trend_span != 0 ? config.trend_span : NextOdd(period + period / 2);
  const size_t lowpass_span = config.lowpass_span != 0 ? config.lowpass_span : NextOdd(period);
  std::vector<double> seasonal(n, 0.0);
  std::vector<double> trend(n, 0.0);
  std::vector<double> robustness;
  for (int outer = 0; outer < std::max(1, config.outer_iterations); ++outer) {
    for (int inner = 0; inner < std::max(1, config.inner_iterations); ++inner) {
      std::vector<double> detrended(n);
      for (size_t i = 0; i < n; ++i) {
        detrended[i] = values[i] - trend[i];
      }
      std::vector<double> cycle(n, 0.0);
      for (size_t phase = 0; phase < period; ++phase) {
        std::vector<double> subseries;
        std::vector<double> subweights;
        std::vector<size_t> indices;
        for (size_t i = phase; i < n; i += period) {
          subseries.push_back(detrended[i]);
          indices.push_back(i);
          if (!robustness.empty()) {
            subweights.push_back(robustness[i]);
          }
        }
        const std::vector<double> smoothed =
            LoessSmoothWeighted(subseries, config.seasonal_span, subweights);
        for (size_t k = 0; k < indices.size(); ++k) {
          cycle[indices[k]] = smoothed[k];
        }
      }
      std::vector<double> lowpass = CenteredMovingAverage(cycle, period);
      lowpass = LoessSmoothWeighted(lowpass, lowpass_span, {});
      for (size_t i = 0; i < n; ++i) {
        seasonal[i] = cycle[i] - lowpass[i];
      }
      std::vector<double> deseasonalized(n);
      for (size_t i = 0; i < n; ++i) {
        deseasonalized[i] = values[i] - seasonal[i];
      }
      trend = LoessSmoothWeighted(deseasonalized, trend_span, robustness);
    }
    if (outer + 1 < config.outer_iterations) {
      std::vector<double> abs_residuals(n);
      for (size_t i = 0; i < n; ++i) {
        abs_residuals[i] = std::fabs(values[i] - seasonal[i] - trend[i]);
      }
      const double h = 6.0 * Median(abs_residuals);
      robustness.assign(n, 1.0);
      if (h > 0.0) {
        for (size_t i = 0; i < n; ++i) {
          const double u = abs_residuals[i] / h;
          const double w = u >= 1.0 ? 0.0 : (1.0 - u * u) * (1.0 - u * u);
          robustness[i] = w;
        }
      }
    }
  }
  result.seasonal = std::move(seasonal);
  result.trend = std::move(trend);
  for (size_t i = 0; i < n; ++i) {
    result.residual[i] = values[i] - result.seasonal[i] - result.trend[i];
  }
  result.valid = true;
  return result;
}

}  // namespace frozen

// ---------------------------------------------------------------------------
// Inputs and comparison.
// ---------------------------------------------------------------------------

// Bit equality, except that any NaN equals any NaN (DESIGN.md §13).
bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b) ||
         (std::isnan(a) && std::isnan(b));
}

void ExpectSameBits(std::span<const double> actual, std::span<const double> expected,
                    const std::string& what) {
  ASSERT_EQ(actual.size(), expected.size()) << what;
  for (size_t i = 0; i < actual.size(); ++i) {
    if (!SameBits(actual[i], expected[i])) {
      ADD_FAILURE() << what << ": index " << i << " differs (" << actual[i] << " vs "
                    << expected[i] << ")";
      return;
    }
  }
}

struct Input {
  std::string name;
  std::vector<double> values;
};

// Random, seasonal, constant, huge (+-1e300), denormal, and non-finite
// series of length n.
std::vector<Input> Inputs(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Input> inputs;
  Input random{"random", {}};
  Input seasonal{"seasonal", {}};
  Input constant{"constant", std::vector<double>(n, 3.25)};
  Input huge{"huge", {}};
  Input denormal{"denormal", {}};
  Input non_finite{"non_finite", {}};
  const size_t period = 4 + static_cast<size_t>(rng.NextUint64(153));  // 4..156.
  for (size_t i = 0; i < n; ++i) {
    const double phase = 2.0 * M_PI * static_cast<double>(i % period) / period;
    random.values.push_back(rng.Uniform(-50.0, 50.0));
    seasonal.values.push_back(10.0 + 3.0 * std::sin(phase) + 0.01 * static_cast<double>(i) +
                              rng.Normal(0.0, 0.2));
    huge.values.push_back((i % 3 == 0 ? -1e300 : 1e300) * rng.Uniform(0.5, 1.0));
    denormal.values.push_back(std::numeric_limits<double>::denorm_min() *
                              static_cast<double>(rng.NextUint64(1000)) *
                              (i % 2 == 0 ? 1.0 : -1.0));
    double v = rng.Uniform(-5.0, 5.0);
    switch (rng.NextUint64(16)) {
      case 0:
        v = std::numeric_limits<double>::quiet_NaN();
        break;
      case 1:
        v = std::numeric_limits<double>::infinity();
        break;
      case 2:
        v = -std::numeric_limits<double>::infinity();
        break;
      default:
        break;
    }
    non_finite.values.push_back(v);
  }
  inputs.push_back(std::move(random));
  inputs.push_back(std::move(seasonal));
  inputs.push_back(std::move(constant));
  inputs.push_back(std::move(huge));
  inputs.push_back(std::move(denormal));
  inputs.push_back(std::move(non_finite));
  return inputs;
}

// The two window lengths the benchmark's detection settings produce, short
// series around the edge and interior boundaries, and a length whose padded
// transform is past the per-thread FFT cache.
const size_t kLengths[] = {1, 2, 3, 5, 8, 17, 40, 64, 100, 599, 612, 2500};

// ---------------------------------------------------------------------------
// FFT.
// ---------------------------------------------------------------------------

TEST(LongTermKernelsTest, FftMatchesStdComplexButterflies) {
  Rng rng(11);
  for (size_t n = 1; n <= 8192; n *= 2) {
    for (int trial = 0; trial < 3; ++trial) {
      std::vector<std::complex<double>> data(n);
      for (std::complex<double>& value : data) {
        value = {rng.Uniform(-1e3, 1e3), rng.Uniform(-1e3, 1e3)};
        if (trial == 2 && rng.NextUint64(64) == 0) {
          value = {std::numeric_limits<double>::infinity(), value.imag()};
        }
      }
      for (bool inverse : {false, true}) {
        std::vector<std::complex<double>> expected = data;
        std::vector<std::complex<double>> actual = data;
        frozen::Fft(expected, inverse);
        Fft(actual, inverse);
        const std::span<const double> a(reinterpret_cast<const double*>(actual.data()), 2 * n);
        const std::span<const double> e(reinterpret_cast<const double*>(expected.data()),
                                        2 * n);
        ExpectSameBits(a, e,
                       "Fft n=" + std::to_string(n) + " inverse=" + std::to_string(inverse) +
                           " trial=" + std::to_string(trial));
      }
    }
  }
}

TEST(LongTermKernelsTest, AutocovarianceSumsMatchFrozenOnEveryInputKind) {
  for (size_t n : kLengths) {
    for (const Input& input : Inputs(n, 100 + n)) {
      for (size_t max_lag : {size_t{0}, n / 3, n}) {
        ExpectSameBits(AutocovarianceSumsFft(input.values, max_lag),
                       frozen::AutocovarianceSumsFft(input.values, max_lag),
                       "acov " + input.name + " n=" + std::to_string(n) +
                           " max_lag=" + std::to_string(max_lag));
      }
    }
  }
}

TEST(LongTermKernelsTest, SeasonalPeriodsFourTo156MatchFrozenAcov) {
  Rng rng(12);
  for (size_t period = 4; period <= 156; ++period) {
    std::vector<double> values(612);
    for (size_t i = 0; i < values.size(); ++i) {
      values[i] = std::sin(2.0 * M_PI * static_cast<double>(i % period) / period) +
                  rng.Normal(0.0, 0.3);
    }
    ExpectSameBits(AutocovarianceSumsFft(values, 204),
                   frozen::AutocovarianceSumsFft(values, 204),
                   "acov period=" + std::to_string(period));
  }
}

// ---------------------------------------------------------------------------
// Loess.
// ---------------------------------------------------------------------------

void ExpectLoessMatches(const Input& input, size_t span, std::span<const double> robustness) {
  ExpectSameBits(LoessSmoothWeighted(input.values, span, robustness),
                 frozen::LoessSmoothWeighted(input.values, span, robustness),
                 "loess " + input.name + " n=" + std::to_string(input.values.size()) +
                     " span=" + std::to_string(span) +
                     (robustness.empty() ? "" : " weighted"));
}

TEST(LongTermKernelsTest, LoessMatchesFrozenForEverySpanOnShortSeries) {
  Rng rng(13);
  for (size_t n = 0; n <= 40; ++n) {
    std::vector<double> robustness(n);
    for (double& w : robustness) {
      w = rng.NextUint64(5) == 0 ? 0.0 : rng.Uniform(0.0, 1.0);
    }
    for (const Input& input : Inputs(n, 200 + n)) {
      for (size_t span = 2; span <= n + 1; ++span) {
        ExpectLoessMatches(input, span, {});
        ExpectLoessMatches(input, span, robustness);
      }
    }
  }
}

TEST(LongTermKernelsTest, LoessMatchesFrozenForEverySpanAtScanWindowLengths) {
  for (size_t n : {size_t{599}, size_t{612}}) {
    const std::vector<Input> inputs = Inputs(n, 300 + n);
    for (size_t span = 2; span <= n + 1; ++span) {
      ExpectLoessMatches(inputs[0], span, {});  // Random.
    }
    // Every input kind at the spans STL uses for periods 4..156, and spans
    // around the 4- and 8-output vector blocks.
    for (const Input& input : inputs) {
      for (size_t span : {2, 3, 7, 8, 9, 13, 31, 45, 73, 145, 217, 235, 300, 611}) {
        ExpectLoessMatches(input, span, {});
      }
    }
  }
}

// A plan built once for (n, span) and applied to every input kind in turn
// matches the frozen loess on each.
void ExpectPlanMatches(const std::vector<Input>& inputs, size_t n, size_t span) {
  ArenaScope scope(Arena::ThreadLocal());
  LoessPlan plan(n, span, scope);
  std::vector<double> out(n);
  for (const Input& input : inputs) {
    std::fill(out.begin(), out.end(), -7.0);
    plan.Apply(input.values, out);
    ExpectSameBits(out, frozen::LoessSmoothWeighted(input.values, span, {}),
                   "plan " + input.name + " n=" + std::to_string(n) +
                       " span=" + std::to_string(span));
  }
}

TEST(LongTermKernelsTest, LoessPlanMatchesFrozenForEverySpanOnShortSeries) {
  for (size_t n = 0; n <= 64; ++n) {
    const std::vector<Input> inputs = Inputs(n, 500 + n);
    for (size_t span = 2; span <= n + 2; ++span) {
      ExpectPlanMatches(inputs, n, span);
    }
  }
}

TEST(LongTermKernelsTest, LoessPlanMatchesFrozenForEverySpanAtScanWindowLengths) {
  for (size_t n : {size_t{599}, size_t{612}}) {
    const std::vector<Input> inputs = Inputs(n, 600 + n);
    // Random and seasonal at every span (n + 1 clamps to n == span); every
    // input kind, denormals included, at the spans STL uses for periods
    // 4..156 and around the vector blocks.
    const std::vector<Input> finite(inputs.begin(), inputs.begin() + 2);
    for (size_t span = 2; span <= n + 1; ++span) {
      ExpectPlanMatches(finite, n, span);
    }
    for (size_t span : {2, 3, 7, 8, 9, 13, 31, 45, 73, 145, 217, 235, 300, 611, 612}) {
      ExpectPlanMatches(inputs, n, span);
    }
  }
}

// Spans whose edge-weight table is over the plan's budget rebuild it in
// chunks on every Apply: one chunk and several, with a short last chunk and
// right fits that end inside a chunk.
TEST(LongTermKernelsTest, LoessPlanMatchesFrozenWhenEdgeWeightsAreChunked) {
  const size_t n = 2500;
  const std::vector<Input> inputs = Inputs(n, 800);
  const std::vector<Input> some{inputs[0], inputs[1], inputs[5]};  // Random, seasonal, NaN/Inf.
  for (size_t span : {724, 725, 726, 1000, 1201, 1500, 2499, 2500, 2501}) {
    ExpectPlanMatches(some, n, span);
  }
}

// ---------------------------------------------------------------------------
// STL.
// ---------------------------------------------------------------------------

void ExpectStlMatches(std::span<const double> values, size_t period, const StlConfig& config,
                      const std::string& what) {
  const Decomposition actual = StlDecompose(values, period, config);
  const Decomposition expected = frozen::StlDecompose(values, period, config);
  ASSERT_EQ(actual.valid, expected.valid) << what;
  ExpectSameBits(actual.seasonal, expected.seasonal, what + " seasonal");
  ExpectSameBits(actual.trend, expected.trend, what + " trend");
  ExpectSameBits(actual.residual, expected.residual, what + " residual");
}

TEST(LongTermKernelsTest, StlMatchesFrozenPlainAndRobust) {
  const size_t kPeriods[] = {2, 4, 5, 7, 12, 24, 30, 31, 73, 144, 156, 400};
  for (size_t n : {size_t{40}, size_t{599}, size_t{612}}) {
    for (const Input& input : Inputs(n, 400 + n)) {
      for (size_t period : kPeriods) {
        for (int outer : {1, 2}) {
          StlConfig config;
          config.inner_iterations = 2;
          config.outer_iterations = outer;
          ExpectStlMatches(input.values, period, config,
                           "stl " + input.name + " n=" + std::to_string(n) +
                               " period=" + std::to_string(period) +
                               " outer=" + std::to_string(outer));
        }
      }
    }
  }
}

// Every period the seasonality detector can report on the scan windows, and
// the long-term detector's max(4, n / 20) fallback when it reports none.
TEST(LongTermKernelsTest, StlMatchesFrozenAtEveryDetectablePeriod) {
  for (size_t n : {size_t{599}, size_t{612}}) {
    const std::vector<Input> inputs = Inputs(n, 700 + n);
    std::vector<size_t> periods;
    for (size_t period = 4; period <= 204; ++period) {
      periods.push_back(period);
    }
    periods.push_back(std::max<size_t>(4, n / 20));
    for (size_t period : periods) {
      for (size_t kind : {size_t{0}, size_t{1}, size_t{5}}) {  // Random, seasonal, NaN/Inf.
        ExpectStlMatches(inputs[kind].values, period, StlConfig{},
                         "stl " + inputs[kind].name + " n=" + std::to_string(n) +
                             " period=" + std::to_string(period));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Transposes: LoessPlan::ApplyTranspose and StlTrendAdjoint.
// ---------------------------------------------------------------------------

double SumAbs(std::span<const double> values) {
  double sum = 0.0;
  for (double v : values) {
    sum += std::fabs(v);
  }
  return sum;
}

double MaxAbs(std::span<const double> values) {
  double max = 0.0;
  for (double v : values) {
    max = std::max(max, std::fabs(v));
  }
  return max;
}

double Dot(std::span<const double> a, std::span<const double> b) {
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    sum += a[i] * b[i];
  }
  return sum;
}

// The dense matrix of Apply (column j = Apply(e_j)) against ApplyTranspose:
// H^T v from the dense matrix and from the transpose agree, in every lane,
// within the rounding of both, and the plan's norm bound covers every row of
// the dense matrix.
TEST(LongTermKernelsTest, LoessApplyTransposeMatchesDenseHatMatrix) {
  Rng rng(31);
  for (size_t n = 1; n <= 40; ++n) {
    for (size_t span = 2; span <= n + 2; ++span) {
      ArenaScope scope(Arena::ThreadLocal());
      LoessPlan plan(n, span, scope);
      const LoessPlan::Bounds bounds = plan.ComputeBounds();
      std::vector<std::vector<double>> columns(n, std::vector<double>(n));
      std::vector<double> unit(n, 0.0);
      for (size_t j = 0; j < n; ++j) {
        unit[j] = 1.0;
        plan.Apply(unit, columns[j]);
        unit[j] = 0.0;
      }
      double dense_norm = 0.0;
      for (size_t i = 0; i < n; ++i) {
        double row = 0.0;
        for (size_t j = 0; j < n; ++j) {
          row += std::fabs(columns[j][i]);
        }
        dense_norm = std::max(dense_norm, row);
      }
      const std::string what = "n=" + std::to_string(n) + " span=" + std::to_string(span);
      EXPECT_LE(dense_norm, bounds.norm + static_cast<double>(n) * bounds.rounding) << what;
      // Four random vectors, one per lane.
      constexpr size_t kLanes = LoessPlan::kTransposeLanes;
      std::vector<double> lanes(n * kLanes);
      for (double& x : lanes) {
        x = rng.Uniform(-10.0, 10.0);
      }
      std::vector<double> transposed(n * kLanes, -7.0);
      plan.ApplyTranspose(lanes, transposed);
      for (size_t l = 0; l < kLanes; ++l) {
        std::vector<double> v(n);
        for (size_t i = 0; i < n; ++i) {
          v[i] = lanes[i * kLanes + l];
        }
        double error = 0.0;
        for (size_t j = 0; j < n; ++j) {
          error += std::fabs(transposed[j * kLanes + l] - Dot(columns[j], v));
        }
        // The transpose's rounding, each dense column's (one Apply per
        // column), and the dense product's.
        const double tolerance = (static_cast<double>(n + 1) * bounds.rounding +
                                  RoundingGamma(n) * bounds.norm) *
                                 SumAbs(v);
        EXPECT_LE(error, tolerance) << what << " lane=" << l;
      }
    }
  }
}

// <StlTrendAdjoint(u), y> against <u, StlDecompose(y).trend>, within the
// returned bounds plus both dot products' rounding, for a random u and a box
// mean like the long-term test's, on random, constant and linear series.
void ExpectAdjointIdentity(size_t n, size_t period, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> series(3, std::vector<double>(n));
  for (size_t i = 0; i < n; ++i) {
    series[0][i] = rng.Uniform(-50.0, 50.0);
    series[1][i] = 3.25;
    series[2][i] = 0.5 + 0.01 * static_cast<double>(i);
  }
  std::vector<double> random_u(n);
  for (double& x : random_u) {
    x = rng.Uniform(-1.0, 1.0);
  }
  std::vector<double> box_u(n, 0.0);
  const size_t box = std::max<size_t>(1, n / 10);
  for (size_t i = n - box; i < n; ++i) {
    box_u[i] = 1.0 / static_cast<double>(box);
  }
  const std::vector<std::vector<double>> us = {random_u, box_u};
  std::vector<std::vector<double>> functionals = us;
  const std::span<double> spans[2] = {functionals[0], functionals[1]};
  const StlTrendBounds bounds = StlTrendAdjoint(n, period, spans);
  ASSERT_TRUE(std::isfinite(bounds.norm) && std::isfinite(bounds.trend_error) &&
              std::isfinite(bounds.adjoint_error));
  const double dot_gamma = RoundingGamma(n);
  for (const std::vector<double>& y : series) {
    const Decomposition stl = StlDecompose(y, period);
    ASSERT_TRUE(stl.valid);
    for (size_t k = 0; k < us.size(); ++k) {
      const double via_adjoint = Dot(functionals[k], y);
      const double via_trend = Dot(us[k], stl.trend);
      const double bound = (bounds.trend_error + bounds.adjoint_error +
                            dot_gamma * (2.0 * bounds.norm + bounds.trend_error +
                                         bounds.adjoint_error)) *
                           SumAbs(us[k]) * MaxAbs(y);
      EXPECT_LE(std::fabs(via_adjoint - via_trend), bound)
          << "n=" << n << " period=" << period << " u=" << k << " adjoint " << via_adjoint
          << " trend " << via_trend;
    }
  }
}

TEST(LongTermKernelsTest, StlTrendAdjointMatchesTrendAtEveryDetectablePeriod) {
  for (size_t n : {size_t{599}, size_t{612}}) {
    std::vector<size_t> periods;
    for (size_t period = 4; period <= 204; ++period) {
      periods.push_back(period);
    }
    periods.push_back(std::max<size_t>(4, n / 20));
    for (size_t period : periods) {
      ExpectAdjointIdentity(n, period, 900 + n + period);
    }
  }
}

TEST(LongTermKernelsTest, StlTrendAdjointMatchesTrendOnShortSeries) {
  for (size_t period : {size_t{2}, size_t{3}, size_t{4}, size_t{7}, size_t{30}, size_t{144},
                        size_t{204}}) {
    for (size_t extra : {size_t{0}, size_t{1}, size_t{5}}) {
      ExpectAdjointIdentity(2 * period + extra, period, 1000 + period + extra);
    }
  }
}

// Robust STL reweights by its residuals, so its trend has no adjoint.
TEST(LongTermKernelsDeathTest, StlTrendAdjointRejectsRobustStl) {
  std::vector<double> u(100, 0.01);
  const std::span<double> spans[1] = {u};
  StlConfig robust;
  robust.outer_iterations = 2;
  EXPECT_DEATH(StlTrendAdjoint(100, 10, spans, robust), "outer_iterations");
}

// ---------------------------------------------------------------------------
// One decomposition shared by the seasonality stage and the long-term
// detector.
// ---------------------------------------------------------------------------

void ExpectSameRegression(const std::optional<Regression>& a,
                          const std::optional<Regression>& b) {
  ASSERT_EQ(a.has_value(), b.has_value());
  if (!a) {
    return;
  }
  EXPECT_EQ(a->change_index, b->change_index);
  EXPECT_EQ(a->change_time, b->change_time);
  EXPECT_TRUE(SameBits(a->baseline_mean, b->baseline_mean));
  EXPECT_TRUE(SameBits(a->regressed_mean, b->regressed_mean));
  EXPECT_TRUE(SameBits(a->delta, b->delta));
  EXPECT_TRUE(SameBits(a->relative_delta, b->relative_delta));
  ExpectSameBits(a->historical, b->historical, "historical");
  ExpectSameBits(a->analysis, b->analysis, "analysis");
  EXPECT_EQ(a->analysis_timestamps, b->analysis_timestamps);
}

TEST(LongTermKernelsTest, SharedDecompositionGivesSameVerdictsAsSeparateCalls) {
  DetectionConfig config;
  config.threshold = 0.0003;
  const SeasonalityStage seasonality(config);
  const LongTermDetector long_term(config);
  const MetricId id{"svc", MetricKind::kCpu, "f", {}};
  Rng rng(14);
  const size_t hist = 576;
  const size_t analysis = 24;
  const size_t extended = 12;
  const size_t n = hist + analysis + extended;
  std::vector<TimePoint> timestamps(analysis + extended);
  for (size_t i = 0; i < timestamps.size(); ++i) {
    timestamps[i] = static_cast<TimePoint>((hist + i) * 600);
  }
  int seasonal_present = 0;
  int long_term_found = 0;
  for (int trial = 0; trial < 24; ++trial) {
    const size_t period = trial % 3 == 0 ? 0 : 24 + 30 * static_cast<size_t>(trial % 5);
    const double ramp = trial % 2 == 0 ? 0.0 : 0.002;
    const double step = trial % 4 == 1 ? 0.05 : 0.0;
    std::vector<double> values(n);
    for (size_t i = 0; i < n; ++i) {
      const double season =
          period == 0 ? 0.0 : 0.2 * std::sin(2.0 * M_PI * static_cast<double>(i % period) / period);
      values[i] = 1.0 + season + ramp * static_cast<double>(i) / 100.0 +
                  (i >= hist + analysis / 2 ? step : 0.0) + rng.Normal(0.0, 0.01);
    }
    ScanView view;
    view.full = values;
    view.historical_size = hist;
    view.analysis_size = analysis;
    view.extended_size = extended;
    view.analysis_timestamps = timestamps;
    view.analysis_begin = timestamps.front();
    view.as_of = timestamps.back();
    ScanCandidate candidate;
    candidate.change_index = analysis / 2;

    const SeasonalityVerdict alone = seasonality.Evaluate(view, candidate);
    const std::optional<Regression> long_alone = long_term.Detect(id, view);
    SeriesDecomposition shared(view.full);
    const SeasonalityVerdict together = seasonality.Evaluate(view, candidate, shared);
    const std::optional<Regression> long_together = long_term.Detect(id, view, shared);

    EXPECT_EQ(alone.seasonal_filtered, together.seasonal_filtered);
    EXPECT_EQ(alone.seasonality_present, together.seasonality_present);
    EXPECT_EQ(alone.period, together.period);
    EXPECT_TRUE(SameBits(alone.analysis_zscore, together.analysis_zscore));
    EXPECT_TRUE(SameBits(alone.extended_zscore, together.extended_zscore));
    ExpectSameRegression(long_alone, long_together);
    seasonal_present += alone.seasonality_present ? 1 : 0;
    long_term_found += long_alone ? 1 : 0;
  }
  // The sweep covers both branches of each stage.
  EXPECT_GT(seasonal_present, 0);
  EXPECT_LT(seasonal_present, 24);
  EXPECT_GT(long_term_found, 0);
  EXPECT_LT(long_term_found, 24);
}

}  // namespace
}  // namespace fbdetect
