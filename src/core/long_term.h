// Long-term regression detection (§5.3): STL decomposition first, then
// trend-level regression detection, then change-point location.
//
// Unlike the short-term path, seasonality removal runs FIRST (smoothing helps
// gradual-regression detection and the path is insensitive to sudden steps),
// and no went-away detector is used.
//
// Regression-detection step: baseline = max(mean at the start of the
// analysis window, mean of the historical window); current = min(mean at the
// end of the analysis window, mean of the extended window); report when
// current - baseline exceeds the threshold.
//
// Change-point step: if a linear fit of the normalized trend has low RMSE the
// change is a gradual ramp starting at the trend's beginning; otherwise the
// normal-loss dynamic-programming search locates the split.
//
// Screen: the trend test compares four means of the plain STL trend, and
// that trend is linear in the series, so each mean is a dot product of the
// series with a fixed functional (the STL trend's adjoint applied to a box
// vector). LongTermScreen holds those functionals per series shape; a series
// whose screened statistic cannot reach the threshold even after the
// rounding margin of DESIGN §13 returns nullopt without its STL. The result
// is the same optional<Regression> either way.
#ifndef FBDETECT_SRC_CORE_LONG_TERM_H_
#define FBDETECT_SRC_CORE_LONG_TERM_H_

#include <compare>
#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "src/core/regression.h"
#include "src/core/scan_view.h"
#include "src/core/series_decomposition.h"
#include "src/core/workload_config.h"
#include "src/tsdb/metric_id.h"
#include "src/tsdb/window.h"

namespace fbdetect {

// Optional sub-step timers of LongTermDetector::Detect (runtime histograms;
// null = untimed). The ACF and STL timers only record when that call
// computes the shared result.
struct LongTermTimers {
  Histogram* acf = nullptr;
  Histogram* stl = nullptr;
  Histogram* trend = nullptr;   // Trend test and change-point location.
  Histogram* screen = nullptr;  // The screen, its table lookup included.
};

// The screen's functionals, one entry per series shape, shared by the scan
// workers. Entries are immutable pure functions of their key, so which
// thread builds one changes nothing. The table keeps the shapes used in the
// current scanning run and the one before it, so its size follows the
// workload's shapes and not the process's uptime.
class LongTermScreen {
 public:
  struct Key {
    size_t n = 0;
    size_t period = 0;
    size_t historical = 0;
    size_t analysis = 0;
    auto operator<=>(const Key&) const = default;
  };

  // The test's four means as functionals of the series, n values each, in
  // the order start, historical, end, extended (the last absent when the
  // extended window is empty). Stored as float, which halves the table; the
  // conversion is part of epsilon.
  struct Entry {
    std::vector<float> functionals;
    // Each functional's dot product with a series y differs from the long-
    // term test's mean by at most epsilon * max|y| (DESIGN §13).
    double epsilon = 0.0;
  };

  // Requires a valid plain STL for the key (period >= 2, n >= 2 * period),
  // historical >= 1 and analysis >= 4.
  static Entry Build(const Key& key);

  // The entry for `key`, built if absent. Thread-safe.
  std::shared_ptr<const Entry> Find(const Key& key);

  // Starts a scanning run: entries not used in the run that is ending are
  // dropped.
  void BeginRun();

  size_t entries() const;
  size_t bytes() const;

 private:
  using Table = std::map<Key, std::shared_ptr<const Entry>>;

  mutable std::mutex mutex_;
  Table current_;
  Table previous_;
};

class LongTermDetector {
 public:
  explicit LongTermDetector(const DetectionConfig& config) : config_(config) {}

  // Zero-copy core: consumes a pre-oriented ScanView (no window copies are
  // made on the non-detecting path; the returned Regression stores the STL
  // trend, as before). DetectSeasonality underneath takes the certified
  // real-input FFT autocorrelation for the long windows this path sees, and
  // the reference transform only when the certificate cannot decide.
  std::optional<Regression> Detect(const MetricId& metric, const ScanView& view) const;

  // Same, taking the seasonality estimate and STL from `shared` (built over
  // view.full), which computes each at most once per series. With a
  // `screen`, a series that provably fails the trend test skips its STL
  // (unless `shared` already holds it) and `*screened` is set; the result is
  // the same as without.
  std::optional<Regression> Detect(const MetricId& metric, const ScanView& view,
                                   SeriesDecomposition& shared,
                                   const LongTermTimers& timers = {},
                                   LongTermScreen* screen = nullptr,
                                   bool* screened = nullptr) const;

  // Convenience: orients `windows` by the metric's kind first.
  std::optional<Regression> Detect(const MetricId& metric, const WindowExtract& windows) const;

 private:
  // Whether the trend test provably fails on `full` (DESIGN §13).
  bool CannotPass(const LongTermScreen::Entry& entry, std::span<const double> full) const;

  const DetectionConfig& config_;
};

}  // namespace fbdetect

#endif  // FBDETECT_SRC_CORE_LONG_TERM_H_
