// The seasonality estimate and STL decomposition of one scanned series,
// computed lazily and at most once, shared by SeasonalityStage (§5.2.3) and
// LongTermDetector (§5.3). Both estimate seasonality over the same view.full
// with the same parameters and decompose it at the detected period, so a
// series that reaches both stages pays for one ACF and one STL.
#ifndef FBDETECT_SRC_CORE_SERIES_DECOMPOSITION_H_
#define FBDETECT_SRC_CORE_SERIES_DECOMPOSITION_H_

#include <optional>
#include <span>

#include "src/observe/telemetry.h"
#include "src/stats/correlation.h"
#include "src/tsa/stl.h"

namespace fbdetect {

// The STL both stages decompose with, and the one the long-term screen's
// adjoint is built for (DESIGN §13): plain STL, linear in the series.
inline constexpr StlConfig kSeriesStlConfig{};

class SeriesDecomposition {
 public:
  // `full` must outlive this object (it is the scanned view's series).
  // `exact_fallbacks`, when given, counts the Season() computations whose
  // certified fast ACF could not decide.
  explicit SeriesDecomposition(std::span<const double> full, Counter* exact_fallbacks = nullptr)
      : full_(full), exact_fallbacks_(exact_fallbacks) {}

  // DetectSeasonality(full, 4, full.size() / 3, min_correlation), computed
  // on the first call (and again only for a different min_correlation).
  // `timer` records the computation when this call performs it.
  const SeasonalityEstimate& Season(double min_correlation, Histogram* timer = nullptr);

  // StlDecompose(full, period, kSeriesStlConfig), computed on the first
  // call for `period`.
  const Decomposition& Stl(size_t period, Histogram* timer = nullptr);

  // Whether Stl(period) is already computed.
  bool HasStl(size_t period) const { return stl_period_ == period; }

 private:
  std::span<const double> full_;
  Counter* exact_fallbacks_;
  std::optional<double> season_min_correlation_;
  SeasonalityEstimate season_;
  std::optional<size_t> stl_period_;
  Decomposition stl_;
};

}  // namespace fbdetect

#endif  // FBDETECT_SRC_CORE_SERIES_DECOMPOSITION_H_
