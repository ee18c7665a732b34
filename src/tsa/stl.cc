#include "src/tsa/stl.h"

#include <algorithm>
#include <cmath>

#include "src/common/arena.h"
#include "src/common/check.h"
#include "src/stats/descriptive.h"
#include "src/tsa/loess.h"

namespace fbdetect {
namespace {

// Next odd number >= x.
size_t NextOdd(size_t x) { return x % 2 == 0 ? x + 1 : x; }

// Centered moving average of width `width` (handles even widths with the
// standard 2x(MA) trick by averaging two offset windows) into `out`, using
// `prefix` (n + 1 doubles) for window sums: O(n) total instead of
// O(n * width).
void CenteredMovingAverage(std::span<const double> values, size_t width,
                           std::span<double> prefix, std::span<double> out) {
  const size_t n = values.size();
  prefix[0] = 0.0;
  for (size_t i = 0; i < n; ++i) {
    prefix[i + 1] = prefix[i] + values[i];
  }
  for (size_t i = 0; i < n; ++i) {
    const size_t half = width / 2;
    size_t lo = i >= half ? i - half : 0;
    size_t hi = std::min(n, i + half + 1);
    if (width % 2 == 0) {
      hi = std::min(n, i + half);  // Symmetric even window.
      if (hi <= lo) {
        hi = lo + 1;
      }
    }
    out[i] = (prefix[hi] - prefix[lo]) / static_cast<double>(hi - lo);
  }
}

}  // namespace

std::vector<double> Decomposition::Deseasonalized() const {
  std::vector<double> out(trend.size());
  for (size_t i = 0; i < trend.size(); ++i) {
    out[i] = trend[i] + residual[i];
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
    return result;  // valid=false; everything stays in trend.
  }

  const size_t trend_span =
      config.trend_span != 0 ? config.trend_span : NextOdd(period + period / 2);
  const size_t lowpass_span = config.lowpass_span != 0 ? config.lowpass_span : NextOdd(period);

  // Every intermediate lives in the thread's arena for the whole call: one
  // block serves all inner and outer iterations. So do the loess plans: the
  // unweighted smooths repeat on a handful of (length, span) pairs — trend,
  // low-pass, and the two cycle-subseries lengths ceil(n / period) and
  // floor(n / period) — so their weights are built once per decomposition.
  ArenaScope scope(Arena::ThreadLocal());
  const std::span<double> seasonal = scope.MakeSpan<double>(n);
  const std::span<double> trend = scope.MakeSpan<double>(n);
  const std::span<double> detrended = scope.MakeUninitializedSpan<double>(n);
  const std::span<double> cycle = scope.MakeUninitializedSpan<double>(n);
  const std::span<double> moving_average = scope.MakeUninitializedSpan<double>(n);
  const std::span<double> prefix = scope.MakeUninitializedSpan<double>(n + 1);
  const std::span<double> lowpass = scope.MakeUninitializedSpan<double>(n);
  const std::span<double> deseasonalized = scope.MakeUninitializedSpan<double>(n);
  // Cycle-subseries buffers, sized for the longest phase.
  const size_t max_cycles = (n + period - 1) / period;
  const std::span<double> subseries = scope.MakeUninitializedSpan<double>(max_cycles);
  const std::span<double> subweights = scope.MakeUninitializedSpan<double>(max_cycles);
  const std::span<double> smoothed = scope.MakeUninitializedSpan<double>(max_cycles);
  std::span<double> robustness;  // Empty = unweighted.
  LoessPlan trend_plan(n, trend_span, scope);
  LoessPlan lowpass_plan(n, lowpass_span, scope);
  LoessPlan cycle_plans[2] = {LoessPlan(max_cycles, config.seasonal_span, scope),
                              LoessPlan(n / period, config.seasonal_span, scope)};

  for (int outer = 0; outer < std::max(1, config.outer_iterations); ++outer) {
    for (int inner = 0; inner < std::max(1, config.inner_iterations); ++inner) {
      // Step 1: detrend.
      for (size_t i = 0; i < n; ++i) {
        detrended[i] = values[i] - trend[i];
      }
      // Step 2: cycle-subseries smoothing. Each phase (i mod period) is
      // smoothed independently with loess, producing the raw seasonal.
      for (size_t phase = 0; phase < period; ++phase) {
        const size_t cycles = (n - phase + period - 1) / period;
        for (size_t k = 0; k < cycles; ++k) {
          subseries[k] = detrended[phase + k * period];
          if (!robustness.empty()) {
            subweights[k] = robustness[phase + k * period];
          }
        }
        if (robustness.empty()) {
          cycle_plans[cycles == max_cycles ? 0 : 1].Apply(subseries.first(cycles),
                                                           smoothed.first(cycles));
        } else {
          LoessSmoothInto(subseries.first(cycles), config.seasonal_span,
                          subweights.first(cycles), smoothed.first(cycles));
        }
        for (size_t k = 0; k < cycles; ++k) {
          cycle[phase + k * period] = smoothed[k];
        }
      }
      // Step 3: low-pass filter of the cycle-subseries (moving average of
      // width `period`, then loess) to extract leftover trend in it.
      CenteredMovingAverage(cycle, period, prefix, moving_average);
      lowpass_plan.Apply(moving_average, lowpass);
      // Step 4: seasonal = cycle - lowpass (centers the seasonal around 0).
      for (size_t i = 0; i < n; ++i) {
        seasonal[i] = cycle[i] - lowpass[i];
      }
      // Step 5: deseasonalize and smooth for the new trend.
      for (size_t i = 0; i < n; ++i) {
        deseasonalized[i] = values[i] - seasonal[i];
      }
      if (robustness.empty()) {
        trend_plan.Apply(deseasonalized, trend);
      } else {
        LoessSmoothInto(deseasonalized, trend_span, robustness, trend);
      }
    }
    if (outer + 1 < config.outer_iterations) {
      // Outer loop: recompute robustness weights from residuals (bisquare).
      // `detrended` is free until the next inner pass and holds them.
      const std::span<double> abs_residuals = detrended;
      for (size_t i = 0; i < n; ++i) {
        abs_residuals[i] = std::fabs(values[i] - seasonal[i] - trend[i]);
      }
      const double h = 6.0 * Median(abs_residuals);
      if (robustness.empty()) {
        robustness = scope.MakeUninitializedSpan<double>(n);
      }
      std::fill(robustness.begin(), robustness.end(), 1.0);
      if (h > 0.0) {
        for (size_t i = 0; i < n; ++i) {
          const double u = abs_residuals[i] / h;
          const double w = u >= 1.0 ? 0.0 : (1.0 - u * u) * (1.0 - u * u);
          robustness[i] = w;
        }
      }
    }
  }

  result.seasonal.assign(seasonal.begin(), seasonal.end());
  result.trend.assign(trend.begin(), trend.end());
  for (size_t i = 0; i < n; ++i) {
    result.residual[i] = values[i] - result.seasonal[i] - result.trend[i];
  }
  result.valid = true;
  return result;
}

Decomposition MovingAverageDecompose(std::span<const double> values, size_t period) {
  Decomposition result;
  const size_t n = values.size();
  result.seasonal.assign(n, 0.0);
  result.trend.assign(values.begin(), values.end());
  result.residual.assign(n, 0.0);
  if (period < 2 || n < 2 * period) {
    return result;
  }
  std::vector<double> prefix(n + 1);
  CenteredMovingAverage(values, period, prefix, result.trend);
  // Per-phase means of the detrended series.
  std::vector<double> phase_sum(period, 0.0);
  std::vector<size_t> phase_count(period, 0);
  for (size_t i = 0; i < n; ++i) {
    phase_sum[i % period] += values[i] - result.trend[i];
    ++phase_count[i % period];
  }
  double grand_mean = 0.0;
  for (size_t p = 0; p < period; ++p) {
    phase_sum[p] /= std::max<size_t>(1, phase_count[p]);
    grand_mean += phase_sum[p];
  }
  grand_mean /= static_cast<double>(period);
  for (size_t i = 0; i < n; ++i) {
    result.seasonal[i] = phase_sum[i % period] - grand_mean;
    result.residual[i] = values[i] - result.trend[i] - result.seasonal[i];
  }
  result.valid = true;
  return result;
}

}  // namespace fbdetect
