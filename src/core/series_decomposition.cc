#include "src/core/series_decomposition.h"

namespace fbdetect {

const SeasonalityEstimate& SeriesDecomposition::Season(double min_correlation,
                                                       Histogram* timer) {
  if (season_min_correlation_ != min_correlation) {
    StageTimer timed(timer);
    bool exact_fallback = false;
    season_ = DetectSeasonality(full_, /*min_period=*/4, /*max_period=*/full_.size() / 3,
                                min_correlation, &exact_fallback);
    season_min_correlation_ = min_correlation;
    if (exact_fallback && exact_fallbacks_ != nullptr) {
      exact_fallbacks_->Increment();
    }
  }
  return season_;
}

const Decomposition& SeriesDecomposition::Stl(size_t period, Histogram* timer) {
  if (stl_period_ != period) {
    StageTimer timed(timer);
    stl_ = StlDecompose(full_, period, kSeriesStlConfig);
    stl_period_ = period;
  }
  return stl_;
}

}  // namespace fbdetect
