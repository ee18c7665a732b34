#include "src/core/long_term.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/rounding.h"
#include "src/stats/correlation.h"
#include "src/stats/descriptive.h"
#include "src/stats/linreg.h"
#include "src/tsa/dp_changepoint.h"
#include "src/tsa/loess.h"
#include "src/tsa/stl.h"

namespace fbdetect {
namespace {

// The screen's margin is this multiple of the derived bound (DESIGN §13). The
// bound keeps every higher-order term and covers every rounding of both
// paths; the factor covers the bound's own floating-point evaluation and the
// screen's final additions and comparisons, each a relative O(u) correction.
constexpr double kScreenSafety = 4.0;

// The rounding analysis assumes nothing overflows or underflows. Between
// these scales no intermediate of either path can (they are within a
// polynomial factor of max|y| far smaller than 1e50), so the screen only
// decides there.
constexpr double kScreenMinScale = 1e-250;
constexpr double kScreenMaxScale = 1e250;

}  // namespace

LongTermScreen::Entry LongTermScreen::Build(const Key& key) {
  const size_t edge = std::max<size_t>(4, key.analysis / 8);
  FBD_CHECK(key.historical >= 1 && key.analysis >= edge &&
            key.historical + key.analysis <= key.n);
  const size_t extended = key.n - key.historical - key.analysis;
  // The test's windows as (first, length): the analysis trend's first and
  // last `edge` points, the historical trend and the extended trend.
  const std::pair<size_t, size_t> windows[4] = {
      {key.historical, edge},
      {0, key.historical},
      {key.historical + key.analysis - edge, edge},
      {key.historical + key.analysis, extended}};
  const size_t count = extended > 0 ? 4 : 3;
  std::vector<double> functionals(count * key.n, 0.0);
  std::vector<std::span<double>> spans;
  for (size_t k = 0; k < count; ++k) {
    const std::span<double> functional(functionals.data() + k * key.n, key.n);
    const auto [first, length] = windows[k];
    std::fill_n(functional.begin() + static_cast<ptrdiff_t>(first), length,
                1.0 / static_cast<double>(length));
    spans.push_back(functional);
  }
  const StlTrendBounds bounds = StlTrendAdjoint(key.n, key.period, spans, kSeriesStlConfig);
  // Per unit max|y|: the STL trend and the functional each err by their
  // bound; Mean over at most n trend values and the screen's dot product over
  // n terms each add gamma(n + 1) times what they sum; 1 / length rounds the
  // box by a relative u, far below gamma. Rounding a coefficient to float
  // moves it by at most 2^-24 of itself, or 2^-150 below float's normal range.
  const double gamma = RoundingGamma(key.n + 1);
  double widest = 0.0;
  for (const std::span<const double> functional : spans) {
    double sum = 0.0;
    for (double a : functional) {
      sum += std::fabs(a);
    }
    widest = std::max(widest, sum);
  }
  Entry entry;
  entry.functionals.assign(functionals.begin(), functionals.end());
  entry.epsilon = bounds.trend_error + bounds.adjoint_error +
                  2.0 * gamma * (bounds.norm + bounds.trend_error + bounds.adjoint_error) +
                  0x1p-24 * widest * (1.0 + gamma) + static_cast<double>(key.n) * 0x1p-150;
  return entry;
}

std::shared_ptr<const LongTermScreen::Entry> LongTermScreen::Find(const Key& key) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (const auto it = current_.find(key); it != current_.end()) {
      return it->second;
    }
    if (const auto it = previous_.find(key); it != previous_.end()) {
      std::shared_ptr<const Entry> entry = std::move(it->second);
      previous_.erase(it);
      current_.emplace(key, entry);
      return entry;
    }
  }
  // Built outside the lock; a worker that raced ahead with the same key
  // built the same entry, and the first one stored wins.
  std::shared_ptr<const Entry> built = std::make_shared<const Entry>(Build(key));
  std::lock_guard<std::mutex> lock(mutex_);
  return current_.emplace(key, std::move(built)).first->second;
}

void LongTermScreen::BeginRun() {
  std::lock_guard<std::mutex> lock(mutex_);
  previous_ = std::move(current_);
  current_.clear();
}

size_t LongTermScreen::entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return current_.size() + previous_.size();
}

size_t LongTermScreen::bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t bytes = 0;
  for (const Table* table : {&current_, &previous_}) {
    for (const auto& [key, entry] : *table) {
      bytes += sizeof(Entry) + entry->functionals.capacity() * sizeof(float);
    }
  }
  return bytes;
}

bool LongTermDetector::CannotPass(const LongTermScreen::Entry& entry,
                                  std::span<const double> full) const {
  const size_t n = full.size();
  double scale = 0.0;
  for (double v : full) {
    scale = std::max(scale, std::fabs(v));
  }
  if (!(scale >= kScreenMinScale && scale <= kScreenMaxScale)) {
    return false;
  }
  // The four means, each within epsilon * scale of the test's.
  const size_t count = entry.functionals.size() / n;
  double means[4] = {0.0, 0.0, 0.0, 0.0};
  for (size_t k = 0; k < count; ++k) {
    const float* functional = entry.functionals.data() + k * n;
    for (size_t j = 0; j < n; ++j) {
      means[k] += static_cast<double>(functional[j]) * full[j];
    }
  }
  // min and max move no further than their arguments, so the test's
  // baseline and current are within the margin of these, and its delta is at
  // most largest_delta. Rounding is monotone, so a threshold computed from
  // a baseline magnitude the test's cannot undercut is no larger than the
  // test's threshold.
  const double margin = kScreenSafety * entry.epsilon * scale;
  const double baseline = std::max(means[0], means[1]);
  const double current = count == 4 ? std::min(means[2], means[3]) : means[2];
  const double largest_delta = (current + margin) - (baseline - margin);
  double smallest_threshold = config_.threshold;
  if (config_.threshold_mode == ThresholdMode::kRelative) {
    smallest_threshold = config_.threshold >= 0.0
                             ? config_.threshold * std::max(0.0, std::fabs(baseline) - margin)
                             : config_.threshold * (std::fabs(baseline) + margin);
  }
  return largest_delta < smallest_threshold;
}

std::optional<Regression> LongTermDetector::Detect(const MetricId& metric,
                                                   const ScanView& view) const {
  SeriesDecomposition shared(view.full);
  return Detect(metric, view, shared);
}

std::optional<Regression> LongTermDetector::Detect(const MetricId& metric,
                                                   const ScanView& view,
                                                   SeriesDecomposition& shared,
                                                   const LongTermTimers& timers,
                                                   LongTermScreen* screen,
                                                   bool* screened) const {
  const size_t analysis_size = view.analysis_size;
  const size_t hist_size = view.historical_size;
  if (analysis_size < 16 || hist_size < 16) {
    return std::nullopt;
  }
  if (HasNonFinite(view.full)) {
    return std::nullopt;  // Corrupt exporter data: skip this run.
  }

  // Full oriented series: historical + analysis + extended — view.full,
  // contiguous, already regression-positive. Nothing copied here.
  const std::span<const double> full = view.full;

  // Step 1: seasonality decomposition. When seasonality is present, work on
  // the trend alone; otherwise smooth with STL's trend extraction anyway
  // (period fallback) to suppress noise.
  const SeasonalityEstimate& season =
      shared.Season(config_.seasonality_min_correlation, timers.acf);
  const size_t period = season.present ? season.period : std::max<size_t>(4, full.size() / 20);
  // The screen, when the STL is still to be built and will be valid.
  if (screen != nullptr && period >= 2 && full.size() >= 2 * period && !shared.HasStl(period)) {
    StageTimer screen_timer(timers.screen);
    const std::shared_ptr<const LongTermScreen::Entry> entry =
        screen->Find({full.size(), period, hist_size, analysis_size});
    if (CannotPass(*entry, full)) {
      if (screened != nullptr) {
        *screened = true;
      }
      return std::nullopt;
    }
  }
  const Decomposition& stl = shared.Stl(period, timers.stl);
  const std::span<const double> trend_span =
      stl.valid ? std::span<const double>(stl.trend) : full;
  StageTimer trend_timer(timers.trend);

  // Step 2: regression detection on the trend.
  const size_t edge = std::max<size_t>(4, analysis_size / 8);
  const std::span<const double> analysis_trend = trend_span.subspan(hist_size, analysis_size);
  const std::span<const double> extended_trend =
      trend_span.subspan(hist_size + analysis_size);

  const double analysis_start_mean = Mean(analysis_trend.subspan(0, edge));
  const double historical_mean = Mean(trend_span.subspan(0, hist_size));
  const double baseline = std::max(analysis_start_mean, historical_mean);

  const double analysis_end_mean = Mean(analysis_trend.subspan(analysis_trend.size() - edge));
  double current = analysis_end_mean;
  if (!extended_trend.empty()) {
    current = std::min(analysis_end_mean, Mean(extended_trend));
  }

  const double delta = current - baseline;
  const double threshold = config_.threshold_mode == ThresholdMode::kAbsolute
                               ? config_.threshold
                               : config_.threshold * std::fabs(baseline);
  if (delta < threshold) {
    return std::nullopt;
  }

  // Step 3: change-point location within the analysis window's trend.
  std::vector<double> normalized(analysis_trend.begin(), analysis_trend.end());
  const double lo = Min(normalized);
  const double hi = Max(normalized);
  if (hi > lo) {
    for (double& v : normalized) {
      v = (v - lo) / (hi - lo);
    }
  }
  size_t change_index = 0;
  const LinearFit fit = FitLine(normalized);
  if (!(fit.valid && fit.rmse < config_.long_term_rmse_threshold)) {
    // Not a clean ramp: DP search (normal loss) for the split.
    change_index = BestSingleSplit(analysis_trend, /*min_segment=*/edge);
  }

  Regression regression;
  regression.metric = metric;
  regression.long_term = true;
  regression.detected_at = view.as_of;
  regression.change_index = change_index;
  regression.change_time = change_index < view.analysis_timestamps.size()
                               ? view.analysis_timestamps[change_index]
                               : view.analysis_begin;
  regression.extended_size = view.extended_size;
  regression.baseline_mean = baseline;
  regression.regressed_mean = current;
  regression.delta = delta;
  regression.relative_delta = baseline != 0.0 ? delta / std::fabs(baseline) : 0.0;
  regression.p_value = 0.0;  // Threshold-based decision; no test here.
  regression.historical.assign(trend_span.begin(),
                               trend_span.begin() + static_cast<long>(hist_size));
  regression.analysis.assign(trend_span.begin() + static_cast<long>(hist_size),
                             trend_span.end());
  regression.analysis_timestamps.assign(view.analysis_timestamps.begin(),
                                        view.analysis_timestamps.end());
  return regression;
}

std::optional<Regression> LongTermDetector::Detect(const MetricId& metric,
                                                   const WindowExtract& windows) const {
  const double sign = LowerIsRegression(metric.kind) ? -1.0 : 1.0;
  std::vector<double> scratch;
  const ScanView view = OrientWindows(windows, sign, scratch);
  return Detect(metric, view);
}

}  // namespace fbdetect
