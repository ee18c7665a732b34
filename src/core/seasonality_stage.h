// Stage 3 of the short-term path: the seasonality detector (§5.2.3).
//
// Checks the autocorrelation function for significant seasonality; when
// present, decomposes the series with STL, removes the seasonal component,
// and recomputes the regression's effect on trend+residual as a pseudo
// z-score (median shift normalized by residual stddev). The regression is
// filtered as seasonal when the z-score stays below the threshold in BOTH
// the analysis window and the extended window.
//
// DetectSeasonality (src/stats/correlation.h) picks the period from a
// certified real-input FFT of NextPowerOfTwo(n + n/3 + 1) points and runs
// the reference O(n log n) transform only when the certificate cannot
// decide; the pipeline shares the estimate and the STL with the long-term
// detector (SeriesDecomposition).
#ifndef FBDETECT_SRC_CORE_SEASONALITY_STAGE_H_
#define FBDETECT_SRC_CORE_SEASONALITY_STAGE_H_

#include "src/core/regression.h"
#include "src/core/scan_view.h"
#include "src/core/series_decomposition.h"
#include "src/core/workload_config.h"

namespace fbdetect {

struct SeasonalityVerdict {
  bool seasonal_filtered = false;  // True = drop the regression.
  bool seasonality_present = false;
  size_t period = 0;
  double analysis_zscore = 0.0;
  double extended_zscore = 0.0;
};

class SeasonalityStage {
 public:
  explicit SeasonalityStage(const DetectionConfig& config) : config_(config) {}

  // Zero-copy core: seasonality is estimated over view.full (historical +
  // analysis + extended, contiguous and oriented) with no concatenation.
  SeasonalityVerdict Evaluate(const ScanView& view, const ScanCandidate& candidate) const;

  // Same, taking the seasonality estimate and STL from `shared` (built over
  // view.full), which computes each at most once per series.
  SeasonalityVerdict Evaluate(const ScanView& view, const ScanCandidate& candidate,
                              SeriesDecomposition& shared) const;

  // Convenience: re-evaluates a stored Regression.
  SeasonalityVerdict Evaluate(const Regression& regression) const;

 private:
  const DetectionConfig& config_;
};

}  // namespace fbdetect

#endif  // FBDETECT_SRC_CORE_SEASONALITY_STAGE_H_
