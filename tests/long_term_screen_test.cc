// Differential tests for the long-term screen (DESIGN §13).
//
// LongTermDetector::Detect with a LongTermScreen must return exactly what it
// returns without one: the same optional<Regression>, every field bit for
// bit. The inputs are fleet series, random series, and series rescaled so
// that the trend test's delta sits within a few ulps of the threshold on
// either side, in both threshold modes and both orientations; the last set
// fails if the screen's margin is dropped or its sign flipped. Also covers
// the table's lifetime and its use from several threads.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/core/long_term.h"
#include "src/core/scan_view.h"
#include "src/core/series_decomposition.h"
#include "src/core/workload_config.h"
#include "src/fleet/fleet.h"
#include "src/fleet/scenario.h"
#include "src/tsdb/window.h"

namespace fbdetect {
namespace {

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin(),
                                            [](double x, double y) { return SameBits(x, y); });
}

void ExpectSameRegression(const std::optional<Regression>& screened,
                          const std::optional<Regression>& plain, const std::string& what) {
  ASSERT_EQ(screened.has_value(), plain.has_value()) << what;
  if (!plain) {
    return;
  }
  const Regression& a = *screened;
  const Regression& b = *plain;
  EXPECT_EQ(a.metric, b.metric) << what;
  EXPECT_EQ(a.long_term, b.long_term) << what;
  EXPECT_EQ(a.detected_at, b.detected_at) << what;
  EXPECT_EQ(a.change_time, b.change_time) << what;
  EXPECT_EQ(a.change_index, b.change_index) << what;
  EXPECT_TRUE(SameBits(a.baseline_mean, b.baseline_mean)) << what;
  EXPECT_TRUE(SameBits(a.regressed_mean, b.regressed_mean)) << what;
  EXPECT_TRUE(SameBits(a.delta, b.delta)) << what;
  EXPECT_TRUE(SameBits(a.relative_delta, b.relative_delta)) << what;
  EXPECT_TRUE(SameBits(a.p_value, b.p_value)) << what;
  EXPECT_TRUE(SameBits(a.historical, b.historical)) << what;
  EXPECT_TRUE(SameBits(a.analysis, b.analysis)) << what;
  EXPECT_EQ(a.analysis_timestamps, b.analysis_timestamps) << what;
  EXPECT_EQ(a.extended_size, b.extended_size) << what;
  EXPECT_EQ(a.candidate_root_causes, b.candidate_root_causes) << what;
  EXPECT_TRUE(SameBits(a.importance, b.importance)) << what;
  EXPECT_EQ(a.som_cluster, b.som_cluster) << what;
  EXPECT_EQ(a.merged_count, b.merged_count) << what;
  EXPECT_EQ(a.root_causes.size(), b.root_causes.size()) << what;
}

// Tallies over one sweep, so each test can show it reached both outcomes.
struct Tally {
  int calls = 0;
  int screened = 0;
  int found = 0;
};

// Detect without and with the screen, each on a fresh decomposition, and
// the comparison of the two.
void Compare(const LongTermDetector& detector, LongTermScreen& screen, const MetricId& id,
             const ScanView& view, const std::string& what, Tally& tally) {
  SeriesDecomposition plain_shared(view.full);
  const std::optional<Regression> plain = detector.Detect(id, view, plain_shared);
  SeriesDecomposition screened_shared(view.full);
  bool screened = false;
  const std::optional<Regression> with_screen =
      detector.Detect(id, view, screened_shared, {}, &screen, &screened);
  ExpectSameRegression(with_screen, plain, what);
  EXPECT_FALSE(screened && plain.has_value()) << what;
  ++tally.calls;
  tally.screened += screened ? 1 : 0;
  tally.found += plain ? 1 : 0;
}

// A view over already oriented `values` laid out historical | analysis |
// extended, with 10-minute timestamps.
struct OwnedView {
  std::vector<double> values;
  std::vector<TimePoint> timestamps;
  ScanView view;
};

std::unique_ptr<OwnedView> MakeView(std::vector<double> values, size_t historical,
                                    size_t analysis) {
  auto owned = std::make_unique<OwnedView>();
  owned->values = std::move(values);
  const size_t n = owned->values.size();
  for (size_t i = historical; i < n; ++i) {
    owned->timestamps.push_back(static_cast<TimePoint>(i) * Minutes(10));
  }
  owned->view.full = owned->values;
  owned->view.historical_size = historical;
  owned->view.analysis_size = analysis;
  owned->view.extended_size = n - historical - analysis;
  owned->view.analysis_timestamps = owned->timestamps;
  owned->view.analysis_begin = owned->timestamps.front();
  owned->view.as_of = owned->timestamps.back();
  return owned;
}

DetectionConfig ConfigFor(ThresholdMode mode, double threshold) {
  DetectionConfig config;
  config.threshold_mode = mode;
  config.threshold = threshold;
  return config;
}

const MetricId kId{"svc", MetricKind::kGcpu, "sub/f", {}};

TEST(LongTermScreenTest, FleetSeriesMatchTheUnscreenedDetector) {
  FleetSimulator fleet;
  ScenarioOptions options;
  options.num_servers = 300;
  options.num_subroutines = 30;
  options.duration = Days(6);
  options.num_step_regressions = 4;
  options.num_gradual_regressions = 2;
  options.num_cost_shifts = 1;
  options.num_transients = 4;
  options.num_seasonal_shifts = 1;
  options.num_background_commits = 10;
  options.seed = 15;
  const Scenario scenario = GenerateScenario(fleet, options);
  fleet.Run(scenario.begin, scenario.end);

  WindowSpec spec;
  spec.historical = Days(4);
  spec.analysis = Hours(4);
  spec.extended = Hours(2);
  const std::vector<MetricId> ids = fleet.db().ListMetrics(options.service_name);
  ASSERT_FALSE(ids.empty());
  const DetectionConfig configs[] = {ConfigFor(ThresholdMode::kAbsolute, 0.0003),
                                     ConfigFor(ThresholdMode::kRelative, 0.02)};
  for (const DetectionConfig& base : configs) {
    DetectionConfig config = base;
    config.windows = spec;
    const LongTermDetector detector(config);
    LongTermScreen screen;
    Tally tally;
    std::vector<double> scratch;
    for (TimePoint as_of = scenario.begin + Days(4) + Hours(6); as_of <= scenario.end;
         as_of += Hours(4)) {
      screen.BeginRun();
      for (const MetricId& id : ids) {
        const TimeSeries* series = fleet.db().Find(id);
        ASSERT_NE(series, nullptr);
        const WindowView windows = ExtractWindowView(*series, as_of, spec);
        for (double sign : {1.0, -1.0}) {
          const ScanView view = OrientWindows(windows, sign, scratch);
          Compare(detector, screen, id, view,
                  id.ToString() + " as_of=" + std::to_string(as_of) +
                      " sign=" + std::to_string(sign),
                  tally);
        }
      }
    }
    EXPECT_GT(tally.screened, tally.calls / 4);
    EXPECT_GT(tally.found, 0);
  }
}

TEST(LongTermScreenTest, RandomSeriesMatchTheUnscreenedDetector) {
  Rng rng(77);
  struct Shape {
    size_t historical, analysis, extended;
  };
  const Shape shapes[] = {{576, 24, 12}, {563, 24, 12}, {64, 24, 12}, {576, 36, 0}};
  const DetectionConfig configs[] = {
      ConfigFor(ThresholdMode::kAbsolute, 0.0003), ConfigFor(ThresholdMode::kAbsolute, 0.5),
      ConfigFor(ThresholdMode::kRelative, 0.001), ConfigFor(ThresholdMode::kRelative, -0.01)};
  for (const DetectionConfig& config : configs) {
    const LongTermDetector detector(config);
    LongTermScreen screen;
    Tally tally;
    for (const Shape& shape : shapes) {
      const size_t n = shape.historical + shape.analysis + shape.extended;
      for (int trial = 0; trial < 24; ++trial) {
        std::vector<double> values(n);
        const double level = rng.Uniform(-2.0, 2.0);
        const double noise = std::pow(10.0, rng.Uniform(-4.0, 0.0));
        const size_t period = 4 + static_cast<size_t>(rng.NextUint64(150));
        const double season = trial % 3 == 0 ? 0.0 : rng.Uniform(0.0, 1.0);
        const double step = trial % 4 == 1 ? rng.Uniform(-1.0, 1.0) : 0.0;
        double walk = 0.0;
        for (size_t i = 0; i < n; ++i) {
          walk += trial % 5 == 2 ? rng.Normal(0.0, noise) : 0.0;
          values[i] = level + walk + rng.Normal(0.0, noise) +
                      season * std::sin(2.0 * M_PI * static_cast<double>(i % period) /
                                        static_cast<double>(period)) +
                      (i >= shape.historical + shape.analysis / 2 ? step : 0.0);
        }
        const std::unique_ptr<OwnedView> owned =
            MakeView(std::move(values), shape.historical, shape.analysis);
        Compare(detector, screen, kId, owned->view,
                "n=" + std::to_string(n) + " trial=" + std::to_string(trial), tally);
      }
    }
    EXPECT_GT(tally.screened, 0);
    EXPECT_LT(tally.screened, tally.calls);
  }
}

// The real path's delta of `view`, and its baseline: with an absolute
// threshold of -inf the detector reports every series it tests.
std::optional<Regression> Unthresholded(const ScanView& view) {
  const DetectionConfig config =
      ConfigFor(ThresholdMode::kAbsolute, -std::numeric_limits<double>::infinity());
  const LongTermDetector detector(config);
  SeriesDecomposition shared(view.full);
  return detector.Detect(kId, view, shared);
}

double NudgeUlps(double x, int ulps) {
  for (; ulps > 0; --ulps) {
    x = std::nextafter(x, std::numeric_limits<double>::infinity());
  }
  for (; ulps < 0; ++ulps) {
    x = std::nextafter(x, -std::numeric_limits<double>::infinity());
  }
  return x;
}

// Series rescaled so that the real path's delta is about the fleet
// threshold, then thresholds a few ulps either side of that exact delta
// (absolute mode) or of the ratio that reproduces it (relative mode). With
// no margin, or a negative one, the screen rejects some of the series the
// detector reports at delta == threshold.
TEST(LongTermScreenTest, ThresholdsWithinUlpsOfTheDeltaMatchTheUnscreenedDetector) {
  Rng rng(2024);
  LongTermScreen screen;
  Tally absolute;
  Tally relative;
  Tally far;
  const size_t historical = 576;
  const size_t analysis = 24;
  const size_t n = historical + analysis + 12;
  for (int trial = 0; trial < 40; ++trial) {
    const double sign = trial % 2 == 0 ? 1.0 : -1.0;
    const size_t period = 4 + static_cast<size_t>(rng.NextUint64(150));
    const double ramp = rng.Uniform(-1e-3, 1e-3);
    std::vector<double> values(n);
    for (size_t i = 0; i < n; ++i) {
      values[i] = sign * (0.3 + ramp * static_cast<double>(i) + rng.Normal(0.0, 0.01) +
                          0.05 * std::sin(2.0 * M_PI * static_cast<double>(i % period) /
                                          static_cast<double>(period)));
    }
    const std::unique_ptr<OwnedView> raw = MakeView(values, historical, analysis);
    const std::optional<Regression> before = Unthresholded(raw->view);
    ASSERT_TRUE(before.has_value());
    ASSERT_NE(before->delta, 0.0);
    const double scale = 3e-4 / std::fabs(before->delta);
    for (double& v : values) {
      v *= scale;
    }
    const std::unique_ptr<OwnedView> owned = MakeView(values, historical, analysis);
    const std::optional<Regression> real = Unthresholded(owned->view);
    ASSERT_TRUE(real.has_value());
    const std::string what = "trial=" + std::to_string(trial);
    // Far above the delta, where the screen decides.
    const DetectionConfig above = ConfigFor(ThresholdMode::kAbsolute, 3.0 * std::fabs(real->delta));
    Compare(LongTermDetector(above), screen, kId, owned->view, what + " above", far);
    for (int ulps = -3; ulps <= 3; ++ulps) {
      const DetectionConfig by_delta =
          ConfigFor(ThresholdMode::kAbsolute, NudgeUlps(real->delta, ulps));
      Compare(LongTermDetector(by_delta), screen, kId, owned->view,
              what + " absolute ulps=" + std::to_string(ulps), absolute);
      if (real->baseline_mean != 0.0) {
        const DetectionConfig by_ratio = ConfigFor(
            ThresholdMode::kRelative,
            NudgeUlps(real->delta / std::fabs(real->baseline_mean), ulps));
        Compare(LongTermDetector(by_ratio), screen, kId, owned->view,
                what + " relative ulps=" + std::to_string(ulps), relative);
      }
    }
  }
  // Both sides of the threshold are reached; within a few ulps only the
  // full test can decide, further out the screen does.
  for (const Tally* tally : {&absolute, &relative}) {
    EXPECT_GT(tally->found, 0);
    EXPECT_LT(tally->found, tally->calls);
    EXPECT_EQ(tally->screened, 0);
  }
  EXPECT_EQ(far.screened, far.calls);
}

// A decomposition the seasonality stage already built is used as it is: the
// screen only runs when it can save an STL.
TEST(LongTermScreenTest, AnAlreadyBuiltStlIsUsedInsteadOfTheScreen) {
  Rng rng(3);
  std::vector<double> values(612);
  for (double& v : values) {
    v = 1.0 + rng.Normal(0.0, 0.01);
  }
  const std::unique_ptr<OwnedView> owned = MakeView(values, 576, 24);
  const DetectionConfig config = ConfigFor(ThresholdMode::kAbsolute, 0.5);
  const LongTermDetector detector(config);
  LongTermScreen screen;

  SeriesDecomposition fresh(owned->view.full);
  bool screened = false;
  EXPECT_FALSE(detector.Detect(kId, owned->view, fresh, {}, &screen, &screened).has_value());
  EXPECT_TRUE(screened);

  SeriesDecomposition built(owned->view.full);
  const SeasonalityEstimate& season = built.Season(config.seasonality_min_correlation);
  built.Stl(season.present ? season.period : 612 / 20);
  screened = false;
  EXPECT_FALSE(detector.Detect(kId, owned->view, built, {}, &screen, &screened).has_value());
  EXPECT_FALSE(screened);
}

TEST(LongTermScreenTest, TableKeepsTheShapesOfTheCurrentAndPreviousRun) {
  LongTermScreen screen;
  const LongTermScreen::Key a{612, 30, 576, 24};
  const LongTermScreen::Key b{612, 144, 576, 24};
  const std::shared_ptr<const LongTermScreen::Entry> first = screen.Find(a);
  EXPECT_EQ(screen.Find(a), first);
  EXPECT_EQ(first->functionals.size(), 4u * 612u);
  EXPECT_GT(first->epsilon, 0.0);
  EXPECT_LT(first->epsilon, 1e-6);
  EXPECT_EQ(screen.bytes(), sizeof(LongTermScreen::Entry) + 4 * 612 * sizeof(float));

  screen.BeginRun();  // a is the previous run's; b is new.
  screen.Find(b);
  EXPECT_EQ(screen.entries(), 2u);
  EXPECT_EQ(screen.Find(a), first);  // Carried into the current run.
  screen.BeginRun();
  screen.Find(b);
  EXPECT_EQ(screen.entries(), 2u);
  screen.BeginRun();  // a was last used two runs ago.
  screen.BeginRun();
  EXPECT_EQ(screen.entries(), 0u);

  // No extended window: three functionals.
  EXPECT_EQ(LongTermScreen::Build({600, 30, 576, 24}).functionals.size(), 3u * 600u);
}

// Workers that race to build one key get entries equal to the serial build.
TEST(LongTermScreenTest, ConcurrentLookupsAgreeWithTheSerialBuild) {
  const LongTermScreen::Key keys[] = {{612, 30, 576, 24}, {612, 5, 576, 24}, {599, 29, 563, 24}};
  LongTermScreen screen;
  std::vector<std::thread> workers;
  std::vector<std::vector<std::shared_ptr<const LongTermScreen::Entry>>> found(8);
  for (size_t w = 0; w < found.size(); ++w) {
    workers.emplace_back([&, w] {
      for (const LongTermScreen::Key& key : keys) {
        found[w].push_back(screen.Find(key));
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  for (size_t k = 0; k < std::size(keys); ++k) {
    const LongTermScreen::Entry serial = LongTermScreen::Build(keys[k]);
    for (const auto& entries : found) {
      EXPECT_EQ(entries[k]->functionals, serial.functionals);
      EXPECT_TRUE(SameBits(entries[k]->epsilon, serial.epsilon));
    }
  }
  EXPECT_EQ(screen.entries(), std::size(keys));
}

}  // namespace
}  // namespace fbdetect
