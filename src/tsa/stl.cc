#include "src/tsa/stl.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/common/arena.h"
#include "src/common/check.h"
#include "src/common/rounding.h"
#include "src/stats/descriptive.h"
#include "src/tsa/loess.h"

namespace fbdetect {
namespace {

// Next odd number >= x.
size_t NextOdd(size_t x) { return x % 2 == 0 ? x + 1 : x; }

// Window [lo, hi) of the centered moving average of width `width` at output
// i of n (even widths use the standard 2x(MA) symmetric window).
std::pair<size_t, size_t> MovingAverageWindow(size_t i, size_t n, size_t width) {
  const size_t half = width / 2;
  const size_t lo = i >= half ? i - half : 0;
  size_t hi = std::min(n, i + half + 1);
  if (width % 2 == 0) {
    hi = std::min(n, i + half);  // Symmetric even window.
    if (hi <= lo) {
      hi = lo + 1;
    }
  }
  return {lo, hi};
}

// Centered moving average of width `width` into `out`, using `prefix`
// (n + 1 doubles) for window sums: O(n) total instead of O(n * width).
void CenteredMovingAverage(std::span<const double> values, size_t width,
                           std::span<double> prefix, std::span<double> out) {
  const size_t n = values.size();
  prefix[0] = 0.0;
  for (size_t i = 0; i < n; ++i) {
    prefix[i + 1] = prefix[i] + values[i];
  }
  for (size_t i = 0; i < n; ++i) {
    const auto [lo, hi] = MovingAverageWindow(i, n, width);
    out[i] = (prefix[hi] - prefix[lo]) / static_cast<double>(hi - lo);
  }
}

// The transpose of CenteredMovingAverage's linear map over n points, for
// four vectors interleaved point by point: point j collects
// values[i] / (hi_i - lo_i) from every output i whose window [lo_i, hi_i)
// holds it. Both window ends never decrease with i, so those outputs are one
// run [first, last) that slides with j. Each point sums its run directly:
// prefix sums would round every point relative to the whole series.
void CenteredMovingAverageTranspose(std::span<const double> values, size_t n, size_t width,
                                    std::span<double> shares, std::span<double> out) {
  constexpr size_t kLanes = LoessPlan::kTransposeLanes;
  for (size_t i = 0; i < n; ++i) {
    const auto [lo, hi] = MovingAverageWindow(i, n, width);
    const double length = static_cast<double>(hi - lo);
    for (size_t l = 0; l < kLanes; ++l) {
      shares[i * kLanes + l] = values[i * kLanes + l] / length;
    }
  }
  size_t first = 0;
  size_t last = 0;
  for (size_t j = 0; j < n; ++j) {
    while (first < n && MovingAverageWindow(first, n, width).second <= j) {
      ++first;
    }
    while (last < n && MovingAverageWindow(last, n, width).first <= j) {
      ++last;
    }
    double sum[kLanes] = {};
    for (size_t i = first; i < last; ++i) {
      for (size_t l = 0; l < kLanes; ++l) {
        sum[l] += shares[i * kLanes + l];
      }
    }
    for (size_t l = 0; l < kLanes; ++l) {
      out[j * kLanes + l] = sum[l];
    }
  }
}

// The loess plans of one decomposition: trend, low-pass, and the two
// cycle-subseries lengths ceil(n / period) and floor(n / period).
struct StlPlans {
  StlPlans(size_t n, size_t period, const StlConfig& config, ArenaScope& scope)
      : trend_span(config.trend_span != 0 ? config.trend_span : NextOdd(period + period / 2)),
        max_cycles((n + period - 1) / period),
        trend(n, trend_span, scope),
        lowpass(n, config.lowpass_span != 0 ? config.lowpass_span : NextOdd(period), scope),
        cycle{LoessPlan(max_cycles, config.seasonal_span, scope),
              LoessPlan(n / period, config.seasonal_span, scope)} {}

  LoessPlan& Cycle(size_t cycles) { return cycle[cycles == max_cycles ? 0 : 1]; }

  size_t trend_span;
  size_t max_cycles;
  LoessPlan trend;
  LoessPlan lowpass;
  LoessPlan cycle[2];
};

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
  StlPlans plans(n, period, config, scope);
  const size_t trend_span = plans.trend_span;

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
          plans.Cycle(cycles).Apply(subseries.first(cycles), smoothed.first(cycles));
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
      plans.lowpass.Apply(moving_average, lowpass);
      // Step 4: seasonal = cycle - lowpass (centers the seasonal around 0).
      for (size_t i = 0; i < n; ++i) {
        seasonal[i] = cycle[i] - lowpass[i];
      }
      // Step 5: deseasonalize and smooth for the new trend.
      for (size_t i = 0; i < n; ++i) {
        deseasonalized[i] = values[i] - seasonal[i];
      }
      if (robustness.empty()) {
        plans.trend.Apply(deseasonalized, trend);
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

StlTrendBounds StlTrendAdjoint(size_t n, size_t period,
                               std::span<const std::span<double>> vectors,
                               const StlConfig& config) {
  FBD_CHECK(config.outer_iterations <= 1);
  FBD_CHECK(period >= 2 && n >= 2 * period);
  ArenaScope scope(Arena::ThreadLocal());
  StlPlans plans(n, period, config, scope);
  const int inner_iterations = std::max(1, config.inner_iterations);

  // The forward pass as StlDecompose computes it, one operator at a time:
  //   trend <- Trend(y - (Cycle(y - trend) - Lowpass(MA(Cycle(y - trend)))))
  // from trend = 0. Its transpose, for the adjoint u of the final trend:
  //   v = Trend^T u,  w = Cycle^T (v - MA^T Lowpass^T v),  a += v - w,
  //   u <- w  (the adjoint of the previous pass's trend),
  // once per pass, last pass first.
  const LoessPlan::Bounds trend_bounds = plans.trend.ComputeBounds();
  const LoessPlan::Bounds lowpass_bounds = plans.lowpass.ComputeBounds();
  const LoessPlan::Bounds cycle_bounds[2] = {plans.cycle[0].ComputeBounds(),
                                             plans.cycle[1].ComputeBounds()};
  const double cycle_norm = std::max(cycle_bounds[0].norm, cycle_bounds[1].norm);
  const double cycle_rounding = std::max(cycle_bounds[0].rounding, cycle_bounds[1].rounding);
  // The moving average has norm 1. Forward, its prefix sums round relative
  // to everything before the window: output i errs by at most
  // gamma(n + 2) * (hi + lo) / (hi - lo) * max|x|. Transposed, each point
  // adds at most period + 1 shares.
  double prefix_ratio = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const auto [lo, hi] = MovingAverageWindow(i, n, period);
    prefix_ratio =
        std::max(prefix_ratio, static_cast<double>(hi + lo) / static_cast<double>(hi - lo));
  }
  const double average_rounding = RoundingGamma(n + 2) * prefix_ratio;
  const double average_transpose_rounding = RoundingGamma(period + 2);

  const RoundingBound input{1.0, 0.0};
  RoundingBound trend;
  RoundingBound adjoint = input;
  RoundingBound result;
  for (int inner = 0; inner < inner_iterations; ++inner) {
    const RoundingBound cycle = Through(Combine(input, trend), cycle_norm, cycle_rounding);
    const RoundingBound lowpass = Through(Through(cycle, 1.0, average_rounding),
                                          lowpass_bounds.norm, lowpass_bounds.rounding);
    trend = Through(Combine(input, Combine(cycle, lowpass)), trend_bounds.norm,
                    trend_bounds.rounding);

    const RoundingBound v = Through(adjoint, trend_bounds.norm, trend_bounds.rounding);
    const RoundingBound averaged = Through(
        Through(v, lowpass_bounds.norm, lowpass_bounds.rounding), 1.0, average_transpose_rounding);
    const RoundingBound w = Through(Combine(v, averaged), cycle_norm, cycle_rounding);
    result = Combine(result, Combine(v, w));
    adjoint = w;
  }
  StlTrendBounds bounds;
  bounds.norm = std::min(trend.norm, result.norm);
  bounds.trend_error = trend.error;
  bounds.adjoint_error = result.error;

  // Four vectors at a time, interleaved point by point (lane l of point i
  // at 4 * i + l), so every coefficient is formed once per four vectors.
  // Each lane sees exactly the operations one vector alone would.
  constexpr size_t kLanes = LoessPlan::kTransposeLanes;
  const std::span<double> u = scope.MakeUninitializedSpan<double>(n * kLanes);
  const std::span<double> v = scope.MakeUninitializedSpan<double>(n * kLanes);
  const std::span<double> scratch = scope.MakeUninitializedSpan<double>(n * kLanes);
  const std::span<double> w = scope.MakeUninitializedSpan<double>(n * kLanes);
  const std::span<double> functional = scope.MakeUninitializedSpan<double>(n * kLanes);
  const std::span<double> shares = scope.MakeUninitializedSpan<double>(n * kLanes);
  const size_t max_subseries = plans.max_cycles * kLanes;
  const std::span<double> subseries = scope.MakeUninitializedSpan<double>(max_subseries);
  const std::span<double> smoothed = scope.MakeUninitializedSpan<double>(max_subseries);
  for (size_t group = 0; group < vectors.size(); group += kLanes) {
    const size_t lanes = std::min(kLanes, vectors.size() - group);
    std::fill(u.begin(), u.end(), 0.0);
    std::fill(functional.begin(), functional.end(), 0.0);
    for (size_t l = 0; l < lanes; ++l) {
      const std::span<double> vector = vectors[group + l];
      FBD_CHECK(vector.size() == n);
      for (size_t i = 0; i < n; ++i) {
        u[i * kLanes + l] = vector[i];
      }
    }
    for (int inner = 0; inner < inner_iterations; ++inner) {
      plans.trend.ApplyTranspose(u, v);
      plans.lowpass.ApplyTranspose(v, scratch);
      CenteredMovingAverageTranspose(scratch, n, period, shares, w);
      for (size_t i = 0; i < n * kLanes; ++i) {
        scratch[i] = v[i] - w[i];
      }
      for (size_t phase = 0; phase < period; ++phase) {
        const size_t cycles = (n - phase + period - 1) / period;
        for (size_t k = 0; k < cycles; ++k) {
          std::copy_n(scratch.begin() + static_cast<ptrdiff_t>((phase + k * period) * kLanes),
                      kLanes, subseries.begin() + static_cast<ptrdiff_t>(k * kLanes));
        }
        plans.Cycle(cycles).ApplyTranspose(subseries.first(cycles * kLanes),
                                           smoothed.first(cycles * kLanes));
        for (size_t k = 0; k < cycles; ++k) {
          std::copy_n(smoothed.begin() + static_cast<ptrdiff_t>(k * kLanes), kLanes,
                      w.begin() + static_cast<ptrdiff_t>((phase + k * period) * kLanes));
        }
      }
      for (size_t i = 0; i < n * kLanes; ++i) {
        functional[i] += v[i] - w[i];
      }
      std::copy(w.begin(), w.end(), u.begin());
    }
    for (size_t l = 0; l < lanes; ++l) {
      const std::span<double> vector = vectors[group + l];
      for (size_t i = 0; i < n; ++i) {
        vector[i] = functional[i * kLanes + l];
      }
    }
  }
  return bounds;
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
