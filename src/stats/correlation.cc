#include "src/stats/correlation.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "src/common/arena.h"
#include "src/common/rounding.h"
#include "src/common/simd.h"
#include "src/stats/descriptive.h"
#include "src/stats/fourier.h"

namespace fbdetect {

namespace {

// Below this size the direct ACF beats the FFT's constant factor (complex
// buffers, two transforms over >= 2n padded points).
constexpr size_t kFftAcfMinSize = 64;

// The certified ACF's margin is this multiple of the derived bound (DESIGN
// §13). The bound keeps every term; the factor covers its own floating-point
// evaluation and the rounding of each |a - b| it is compared with.
constexpr double kAcfSafety = 2.0;

// Bound on |computed - exact| for every ACF value sums[lag] / sums[0] when
// every sum is within beta * S of the exact one (S = the exact sums[0] >=
// |exact sums[lag]|): 2 beta / (1 - beta) from the two sums, plus the
// division's rounding.
double AcfError(double beta) {
  const double ratio = 2.0 * beta / (1.0 - beta);
  return ratio + kUnitRoundoff * (1.0 + ratio);
}

// DetectSeasonality's peak search over acf[lag - 1], lag in [min_period,
// cap], with the reference's comparisons in the reference's order. With
// `margin` > 0 the values are the fast path's, each within `margin` of the
// reference's: every comparison taken must then be separated by more than
// its width (2 * margin between two ACF values, margin against an exact
// constant), so the reference takes the same one; otherwise, or on an exact
// tie, the search gives up and returns nullopt.
std::optional<SeasonalityEstimate> FindPeak(std::span<const double> acf, size_t min_period,
                                            size_t cap, double threshold, double margin) {
  const auto in_doubt = [margin](double a, double b, double width) {
    return margin > 0.0 && !(std::fabs(a - b) > width);
  };
  double best = 0.0;
  size_t best_lag = 0;
  for (size_t lag = min_period; lag <= cap; ++lag) {
    const double r = acf[lag - 1];
    // Require a local peak so harmonics of short-lag noise do not win.
    // (min_period >= 2, so lag - 2 is in range.)
    const double prev = acf[lag - 2];
    if (in_doubt(r, prev, 2.0 * margin)) {
      return std::nullopt;
    }
    if (!(r >= prev)) {
      continue;
    }
    if (lag < cap) {
      const double next = acf[lag];
      if (in_doubt(r, next, 2.0 * margin)) {
        return std::nullopt;
      }
      if (!(r >= next)) {
        continue;
      }
    }
    if (in_doubt(r, best, best_lag == 0 ? margin : 2.0 * margin)) {
      return std::nullopt;
    }
    if (r > best) {
      best = r;
      best_lag = lag;
    }
  }
  SeasonalityEstimate estimate;
  if (best_lag != 0) {
    if (in_doubt(best, threshold, margin)) {
      return std::nullopt;
    }
    if (best > threshold) {
      estimate.present = true;
      estimate.period = best_lag;
    }
  }
  return estimate;
}

// The certified fast path: the ACF from AutocovarianceSumsRealFft, and the
// peak search over it when every decision clears both transforms' bounds.
std::optional<SeasonalityEstimate> CertifiedSeasonality(std::span<const double> values,
                                                        size_t min_period, size_t cap,
                                                        double threshold) {
  const size_t n = values.size();
  const double fast_beta = AutocovarianceSumsRealFftErrorBound(n, cap);
  const double exact_beta = AutocovarianceSumsFftErrorBound(n);
  // Both sums[0] are then within a factor 1 -+ 2^-20 of S > 0 (the scale
  // gate makes S >= 2^-600), so the reference's sums[0] > 0 holds too.
  if (!(fast_beta + exact_beta < 0x1p-20)) {
    return std::nullopt;
  }
  ArenaScope scope(Arena::ThreadLocal());
  const std::span<double> sums = scope.MakeSpan<double>(cap + 1);
  if (!AutocovarianceSumsRealFft(values, cap, sums)) {
    return std::nullopt;
  }
  if (sums[0] == 0.0) {
    // Only a series whose centered values are all exactly zero has sums[0]
    // == 0 here (otherwise it is within 2^-20 of S > 0). Its reference sums
    // are exact zeros too, the reference's sums[0] > 0 fails, and its
    // all-zero ACF has no peak.
    return SeasonalityEstimate{};
  }
  if (!(sums[0] > 0.0)) {
    return std::nullopt;
  }
  const std::span<double> acf = scope.MakeSpan<double>(cap);
  for (size_t lag = 1; lag <= cap; ++lag) {
    acf[lag - 1] = sums[lag] / sums[0];
  }
  const double margin = kAcfSafety * (AcfError(fast_beta) + AcfError(exact_beta));
  return FindPeak(acf, min_period, cap, threshold, margin);
}

}  // namespace

double PearsonCorrelation(std::span<const double> x, std::span<const double> y) {
  const size_t n = std::min(x.size(), y.size());
  if (n < 2) {
    return 0.0;
  }
  // The sums and centered moments go through the simd.h kernels, whose
  // lane-striped reduction order is identical across the scalar/AVX2/NEON
  // implementations — so this function returns the same bits on every
  // instruction set (the SIMD determinism contract, DESIGN.md §13).
  // AlignedPearson routes through here too, which keeps the pairwise-dedup
  // fast path bit-exact with its materialize-then-correlate oracle.
  const simd::Kernels& kernels = simd::Active();
  double sum_x = 0.0;
  double sum_y = 0.0;
  kernels.sum_pair(x.data(), y.data(), n, &sum_x, &sum_y);
  const double mean_x = sum_x / static_cast<double>(n);
  const double mean_y = sum_y / static_cast<double>(n);
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  kernels.centered_moments(x.data(), y.data(), n, mean_x, mean_y, &sxy, &sxx, &syy);
  if (sxx <= 0.0 || syy <= 0.0) {
    return 0.0;
  }
  const double r = sxy / std::sqrt(sxx * syy);
  // NaN/Inf inputs poison the sums (and `sxx <= 0.0` is false for NaN);
  // report "no correlation" instead of propagating the poison.
  return std::isfinite(r) ? r : 0.0;
}

double Autocorrelation(std::span<const double> values, size_t lag) {
  const size_t n = values.size();
  if (lag == 0 || lag >= n) {
    return 0.0;
  }
  const double mean = Mean(values);
  double denom = 0.0;
  for (double v : values) {
    const double d = v - mean;
    denom += d * d;
  }
  if (denom <= 0.0) {
    return 0.0;
  }
  double num = 0.0;
  for (size_t i = 0; i + lag < n; ++i) {
    num += (values[i] - mean) * (values[i + lag] - mean);
  }
  const double r = num / denom;
  return std::isfinite(r) ? r : 0.0;  // Same non-finite guard as Pearson.
}

std::vector<double> AutocorrelationFunctionBruteForce(std::span<const double> values,
                                                      size_t max_lag) {
  const size_t n = values.size();
  const size_t limit = n == 0 ? 0 : std::min(max_lag, n - 1);
  std::vector<double> acf(limit, 0.0);
  if (limit == 0) {
    return acf;
  }
  // Mean and denominator are lag-independent; computing them once instead of
  // per lag halves the direct path's work.
  const double mean = Mean(values);
  double denom = 0.0;
  for (double v : values) {
    const double d = v - mean;
    denom += d * d;
  }
  if (denom <= 0.0) {
    return acf;  // Constant series: all zeros, matching Autocorrelation().
  }
  for (size_t lag = 1; lag <= limit; ++lag) {
    double num = 0.0;
    for (size_t i = 0; i + lag < n; ++i) {
      num += (values[i] - mean) * (values[i + lag] - mean);
    }
    acf[lag - 1] = num / denom;
  }
  return acf;
}

std::vector<double> AutocorrelationFunction(std::span<const double> values, size_t max_lag) {
  const size_t n = values.size();
  if (n < kFftAcfMinSize) {
    return AutocorrelationFunctionBruteForce(values, max_lag);
  }
  const size_t limit = std::min(max_lag, n - 1);
  std::vector<double> acf(limit, 0.0);
  if (limit == 0) {
    return acf;
  }
  // Wiener–Khinchin: FFT -> power spectrum -> inverse FFT yields every
  // lagged product sum in one O(n log n) pass; sums[0] is the denominator.
  const std::vector<double> sums = AutocovarianceSumsFft(values, limit);
  const double denom = sums[0];
  if (denom <= 0.0) {
    return acf;  // Constant series.
  }
  for (size_t lag = 1; lag <= limit; ++lag) {
    acf[lag - 1] = sums[lag] / denom;
  }
  return acf;
}

SeasonalityEstimate DetectSeasonality(std::span<const double> values, size_t min_period,
                                      size_t max_period, double min_correlation,
                                      bool* exact_fallback) {
  if (exact_fallback != nullptr) {
    *exact_fallback = false;
  }
  const size_t n = values.size();
  if (n < 8 || min_period < 2) {
    return SeasonalityEstimate{};
  }
  const size_t cap = std::min(max_period, n / 2);
  if (cap < min_period) {
    return SeasonalityEstimate{};
  }
  // White-noise band: |r| > 2/sqrt(n) is significant at ~95%.
  const double noise_band = 2.0 / std::sqrt(static_cast<double>(n));
  const double threshold = std::max(min_correlation, noise_band);
  if (n >= kFftAcfMinSize) {
    if (const std::optional<SeasonalityEstimate> certified =
            CertifiedSeasonality(values, min_period, cap, threshold)) {
      return *certified;
    }
    if (exact_fallback != nullptr) {
      *exact_fallback = true;
    }
  }
  return *FindPeak(AutocorrelationFunction(values, cap), min_period, cap, threshold,
                   /*margin=*/0.0);
}

}  // namespace fbdetect
