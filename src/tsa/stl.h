// Seasonal-Trend decomposition using Loess (STL), Cleveland et al. 1990,
// used by the seasonality detector (§5.2.3) and the long-term detector
// (§5.3). Also provides the moving-average decomposition the paper evaluated
// as an alternative and rejected.
#ifndef FBDETECT_SRC_TSA_STL_H_
#define FBDETECT_SRC_TSA_STL_H_

#include <cstddef>
#include <span>
#include <vector>

namespace fbdetect {

struct Decomposition {
  std::vector<double> seasonal;
  std::vector<double> trend;
  std::vector<double> residual;
  bool valid = false;

  // trend[i] + residual[i] — what the seasonality detector compares medians
  // over after removing seasonality.
  std::vector<double> Deseasonalized() const;
};

struct StlConfig {
  int inner_iterations = 2;
  int outer_iterations = 1;      // Robustness passes; 1 = plain STL.
  size_t seasonal_span = 7;      // Loess span for cycle-subseries smoothing.
  size_t trend_span = 0;         // 0 = derive from period (next odd >= 1.5*period).
  size_t lowpass_span = 0;       // 0 = derive from period.
};

// Decomposes `values` with seasonal period `period` (>= 2, and the series
// must contain at least two full periods; otherwise returns valid=false with
// all signal assigned to trend=input).
Decomposition StlDecompose(std::span<const double> values, size_t period,
                           const StlConfig& config = {});

// Bounds on the plain STL trend of one (n, period, config), derived in
// DESIGN §13. With outer_iterations <= 1 the trend is T * y for a fixed n x n
// matrix T: every branch StlDecompose takes tests only its loess plans'
// constants, never the values. All three are relative to the input's size.
struct StlTrendBounds {
  // Upper bound on the infinity norm of T (the 1-norm of its transpose).
  double norm = 0.0;
  // max_i |StlDecompose(y).trend[i] - (T y)[i]| <= trend_error * max|y|.
  double trend_error = 0.0;
  // sum_j |StlTrendAdjoint(u)[j] - (T^T u)[j]| <= adjoint_error * sum|u|.
  double adjoint_error = 0.0;
};

// Replaces each vector u in `vectors` (n values each) by T^T u, the
// functional with <T^T u, y> = <u, StlDecompose(y, period, config).trend>
// up to the returned bounds. Replays StlDecompose's inner passes in reverse
// through the same loess plans, in plain scalar code. Requires a
// decomposition StlDecompose reports valid (period >= 2, n >= 2 * period),
// and aborts on robust STL (outer_iterations > 1): its bisquare weights
// depend on the residuals, so its trend is not linear in the input.
StlTrendBounds StlTrendAdjoint(size_t n, size_t period, std::span<const std::span<double>> vectors,
                               const StlConfig& config = {});

// Classical moving-average decomposition: centered MA of width `period` as
// trend, per-phase means of the detrended series as seasonality. The paper
// found this inferior to STL (too sensitive to sudden changes); it is kept as
// the comparison baseline.
Decomposition MovingAverageDecompose(std::span<const double> values, size_t period);

}  // namespace fbdetect

#endif  // FBDETECT_SRC_TSA_STL_H_
