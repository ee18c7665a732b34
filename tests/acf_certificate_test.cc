// Differential tests for the certified ACF (DESIGN §13, "Certified ACF").
//
// DetectSeasonality must return exactly the (present, period) that the
// reference returns: the FFT ACF of AutocorrelationFunction and the peak
// search over it, frozen below as it stood before the certified path. The
// inputs are fleet series, random series at every size class from 8 to 4096
// points, and adversarial ones: two peaks within ulps of each other, a peak
// within ulps of the threshold, flat runs of exactly tied ACF values,
// constant and near-constant series, and NaN / Inf. The within-ulps sets
// fail if the certificate's margin is dropped. Also checks the error bounds
// against extended-precision sums, and when the fallback is reported.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/core/scan_view.h"
#include "src/fleet/fleet.h"
#include "src/fleet/scenario.h"
#include "src/stats/correlation.h"
#include "src/stats/descriptive.h"
#include "src/stats/fourier.h"
#include "src/tsdb/window.h"

namespace fbdetect {
namespace frozen {

// DetectSeasonality before the certified path, verbatim.
SeasonalityEstimate DetectSeasonality(std::span<const double> values, size_t min_period,
                                      size_t max_period, double min_correlation) {
  SeasonalityEstimate estimate;
  const size_t n = values.size();
  if (n < 8 || min_period < 2) {
    return estimate;
  }
  const size_t cap = std::min(max_period, n / 2);
  if (cap < min_period) {
    return estimate;
  }
  const std::vector<double> acf = AutocorrelationFunction(values, cap);
  const double noise_band = 2.0 / std::sqrt(static_cast<double>(n));
  double best = 0.0;
  size_t best_lag = 0;
  for (size_t lag = min_period; lag <= cap; ++lag) {
    const double r = acf[lag - 1];
    const double prev = lag >= 2 ? acf[lag - 2] : r;
    const double next = lag < cap ? acf[lag] : r;
    if (r >= prev && r >= next && r > best) {
      best = r;
      best_lag = lag;
    }
  }
  if (best_lag != 0 && best > std::max(min_correlation, noise_band)) {
    estimate.present = true;
    estimate.period = best_lag;
  }
  return estimate;
}

}  // namespace frozen

namespace {

// Calls, and how many of them the certified path decided.
struct Tally {
  int calls = 0;
  int fallbacks = 0;
  int present = 0;
};

void Compare(std::span<const double> values, size_t min_period, size_t max_period,
             double min_correlation, const std::string& what, Tally& tally) {
  bool exact_fallback = false;
  const SeasonalityEstimate got =
      DetectSeasonality(values, min_period, max_period, min_correlation, &exact_fallback);
  const SeasonalityEstimate want =
      frozen::DetectSeasonality(values, min_period, max_period, min_correlation);
  EXPECT_EQ(got.present, want.present) << what;
  EXPECT_EQ(got.period, want.period) << what;
  ++tally.calls;
  tally.fallbacks += exact_fallback ? 1 : 0;
  tally.present += want.present ? 1 : 0;
}

// The pipeline's call: min_period 4, max_period n / 3, its default minimum.
void CompareAsPipeline(std::span<const double> values, const std::string& what, Tally& tally) {
  Compare(values, 4, values.size() / 3, 0.30, what, tally);
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

const size_t kSizes[] = {8,   9,   15,  16,  17,  31,   63,   64,   65,   100,  127,
                         128, 129, 255, 256, 257, 400,  511,  512,  599,  612,  613,
                         1000, 1023, 1024, 1025, 2047, 2048, 2049, 3000, 4095, 4096};

// A random series: level, noise over several decades, a seasonal sine, a
// step, a random walk, or integer rounding, chosen by `kind`.
std::vector<double> RandomSeries(Rng& rng, size_t n, int kind) {
  std::vector<double> values(n);
  const double level = rng.Uniform(-100.0, 100.0);
  const double noise = std::pow(10.0, rng.Uniform(-6.0, 1.0));
  const size_t period = 2 + static_cast<size_t>(rng.NextUint64(std::max<size_t>(2, n / 2)));
  const double season = kind % 3 == 0 ? 0.0 : rng.Uniform(0.0, 3.0) * noise;
  const double step = kind % 4 == 1 ? rng.Uniform(-1.0, 1.0) : 0.0;
  double walk = 0.0;
  for (size_t i = 0; i < n; ++i) {
    walk += kind % 5 == 2 ? rng.Normal(0.0, noise) : 0.0;
    values[i] = level + walk + rng.Normal(0.0, noise) +
                season * std::sin(2.0 * M_PI * static_cast<double>(i % period) /
                                  static_cast<double>(period)) +
                (i >= n / 2 ? step : 0.0);
    if (kind % 7 == 3) {
      values[i] = std::round(values[i]);
    }
  }
  return values;
}

TEST(AcfCertificateTest, FleetSeriesMatchTheReference) {
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
  options.seed = 21;
  const Scenario scenario = GenerateScenario(fleet, options);
  fleet.Run(scenario.begin, scenario.end);

  WindowSpec spec;
  spec.historical = Days(4);
  spec.analysis = Hours(4);
  spec.extended = Hours(2);
  const std::vector<MetricId> ids = fleet.db().ListMetrics(options.service_name);
  ASSERT_FALSE(ids.empty());
  Tally tally;
  std::vector<double> scratch;
  for (TimePoint as_of = scenario.begin + Days(4) + Hours(6); as_of <= scenario.end;
       as_of += Hours(4)) {
    for (const MetricId& id : ids) {
      const TimeSeries* series = fleet.db().Find(id);
      ASSERT_NE(series, nullptr);
      const WindowView windows = ExtractWindowView(*series, as_of, spec);
      for (double sign : {1.0, -1.0}) {
        const ScanView view = OrientWindows(windows, sign, scratch);
        CompareAsPipeline(view.full, id.ToString() + " as_of=" + std::to_string(as_of), tally);
      }
    }
  }
  EXPECT_GT(tally.calls, 1000);
  EXPECT_GT(tally.present, 0);
  // The certificate decides nearly every fleet series.
  EXPECT_LT(tally.fallbacks, tally.calls / 50);
}

TEST(AcfCertificateTest, RandomSeriesMatchTheReferenceAtEverySize) {
  Rng rng(17);
  Tally tally;
  for (const size_t n : kSizes) {
    for (int kind = 0; kind < 24; ++kind) {
      const std::vector<double> values = RandomSeries(rng, n, kind);
      const std::string what = "n=" + std::to_string(n) + " kind=" + std::to_string(kind);
      CompareAsPipeline(values, what, tally);
      Compare(values, 2, n, 0.0, what + " all lags", tally);
      Compare(values, 5, n / 4, 0.6, what + " quarter", tally);
    }
  }
  EXPECT_GT(tally.present, tally.calls / 10);
  EXPECT_LT(tally.fallbacks, tally.calls / 10);
}

// Two sines whose ACF peaks near p1 and p2; the second one's amplitude is
// bisected until the reference's period changes between adjacent doubles,
// where its two best peaks are within ulps of each other.
TEST(AcfCertificateTest, TwoPeaksWithinUlpsMatchTheReference) {
  Tally tally;
  Rng rng(5);
  for (const size_t n : {96u, 612u, 1000u, 4096u}) {
    for (int trial = 0; trial < 6; ++trial) {
      const size_t p1 = 6 + static_cast<size_t>(rng.NextUint64(n / 12));
      const size_t p2 = p1 + 3 + static_cast<size_t>(rng.NextUint64(n / 12));
      std::vector<double> noise(n);
      for (double& v : noise) {
        v = rng.Normal(0.0, 0.05);
      }
      const auto series = [&](double amplitude) {
        std::vector<double> values(n);
        for (size_t i = 0; i < n; ++i) {
          const double t = static_cast<double>(i);
          values[i] = 3.0 + std::sin(2.0 * M_PI * t / static_cast<double>(p1)) +
                      amplitude * std::sin(2.0 * M_PI * t / static_cast<double>(p2)) +
                      noise[i];
        }
        return values;
      };
      const auto period_at = [&](double amplitude) {
        return frozen::DetectSeasonality(series(amplitude), 4, n / 3, 0.0).period;
      };
      double lo = 0.25;
      double hi = 4.0;
      const size_t period_lo = period_at(lo);
      if (period_lo == period_at(hi)) {
        continue;
      }
      while (true) {
        const double mid = lo + (hi - lo) / 2.0;
        if (mid <= lo || mid >= hi) {
          break;
        }
        (period_at(mid) == period_lo ? lo : hi) = mid;
      }
      for (int ulps = -8; ulps <= 8; ++ulps) {
        const std::vector<double> values = series(NudgeUlps(lo, ulps));
        const std::string what = "n=" + std::to_string(n) + " p1=" + std::to_string(p1) +
                                 " p2=" + std::to_string(p2) + " ulps=" + std::to_string(ulps);
        CompareAsPipeline(values, what, tally);
        Compare(values, 4, n / 3, 0.0, what + " min 0", tally);
      }
    }
  }
  EXPECT_GT(tally.calls, 100);
  EXPECT_GT(tally.fallbacks, 0);
}

// min_correlation a few ulps either side of the reference's best peak.
TEST(AcfCertificateTest, PeakWithinUlpsOfTheThresholdMatchesTheReference) {
  Tally tally;
  Rng rng(9);
  for (const size_t n : {64u, 100u, 612u, 1025u, 4096u}) {
    for (int trial = 0; trial < 8; ++trial) {
      const size_t period = 4 + static_cast<size_t>(rng.NextUint64(n / 3 - 4));
      const double noise = std::pow(10.0, rng.Uniform(-3.0, 0.0));
      std::vector<double> values(n);
      for (size_t i = 0; i < n; ++i) {
        values[i] = 10.0 + std::sin(2.0 * M_PI * static_cast<double>(i) /
                                    static_cast<double>(period)) +
                    rng.Normal(0.0, noise);
      }
      // The best peak's value, from the reference with no threshold.
      const SeasonalityEstimate peak = frozen::DetectSeasonality(values, 4, n / 3, -1.0);
      if (!peak.present) {
        continue;
      }
      const double best = AutocorrelationFunction(values, n / 3)[peak.period - 1];
      if (best <= 2.0 / std::sqrt(static_cast<double>(n))) {
        continue;  // The noise band, not min_correlation, is the threshold.
      }
      for (const int ulps : {-64, -16, -4, -2, -1, 0, 1, 2, 4, 16, 64}) {
        Compare(values, 4, n / 3, NudgeUlps(best, ulps),
                "n=" + std::to_string(n) + " period=" + std::to_string(period) +
                    " ulps=" + std::to_string(ulps),
                tally);
      }
    }
  }
  EXPECT_GT(tally.calls, 200);
  EXPECT_GT(tally.present, 0);
  EXPECT_LT(tally.present, tally.calls);
  EXPECT_GT(tally.fallbacks, 0);
}

// Zero-mean spike trains: the exact ACF is zero at every lag that is no
// difference of two spike positions, so it has flat runs of exact ties,
// and peaks of equal height wherever two lags collect the same products.
TEST(AcfCertificateTest, FlatRunsWithExactTiesMatchTheReference) {
  Tally tally;
  Rng rng(33);
  for (const size_t n : kSizes) {
    for (int trial = 0; trial < 6; ++trial) {
      std::vector<double> values(n, 0.0);
      const size_t pairs = 1 + static_cast<size_t>(rng.NextUint64(4));
      for (size_t p = 0; p < pairs; ++p) {
        values[rng.NextUint64(n)] += 1.0;
        values[rng.NextUint64(n)] -= 1.0;
      }
      CompareAsPipeline(values, "spikes n=" + std::to_string(n), tally);
      Compare(values, 2, n / 2, 0.0, "spikes n=" + std::to_string(n) + " min 0", tally);
    }
    // A square wave of integers: long flat runs.
    std::vector<double> square(n);
    const size_t run = 2 + n / 16;
    for (size_t i = 0; i < n; ++i) {
      square[i] = (i / run) % 2 == 0 ? 3.0 : -1.0;
    }
    CompareAsPipeline(square, "square n=" + std::to_string(n), tally);
  }
  EXPECT_GT(tally.fallbacks, 0);
}

TEST(AcfCertificateTest, ConstantAndNearConstantSeriesMatchTheReference) {
  Tally constant;
  Tally near_constant;
  Rng rng(41);
  for (const size_t n : kSizes) {
    for (const double level : {0.0, -0.0, 0.1, 3.0, -7.25, 1e-300, 1e300, 123456.789}) {
      std::vector<double> values(n, level);
      CompareAsPipeline(values, "constant " + std::to_string(level), constant);
      // A few points one or two ulps off the level.
      for (int k = 0; k < 3; ++k) {
        const size_t i = rng.NextUint64(n);
        values[i] = NudgeUlps(values[i], k == 1 ? -2 : 1);
      }
      CompareAsPipeline(values, "near-constant " + std::to_string(level), near_constant);
    }
  }
  EXPECT_EQ(constant.present, 0);
  EXPECT_GT(near_constant.calls, 0);
}

TEST(AcfCertificateTest, NonFiniteSeriesMatchTheReference) {
  Tally tally;
  Rng rng(43);
  const double specials[] = {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()};
  for (const size_t n : kSizes) {
    for (const double special : specials) {
      std::vector<double> values = RandomSeries(rng, n, 1);
      values[rng.NextUint64(n)] = special;
      CompareAsPipeline(values, "one special, n=" + std::to_string(n), tally);
      std::fill(values.begin(), values.end(), special);
      CompareAsPipeline(values, "all special, n=" + std::to_string(n), tally);
    }
    // Finite values whose centered differences overflow.
    std::vector<double> huge(n, 1.5e308);
    huge[n / 2] = -1.5e308;
    CompareAsPipeline(huge, "overflow, n=" + std::to_string(n), tally);
  }
}

// Below 64 points DetectSeasonality runs the direct ACF and never reports
// a fallback; above, a clean seasonal series is decided without one, and a
// non-finite one always falls back.
TEST(AcfCertificateTest, FallbackIsReportedOnlyWhenTheCertificateCannotDecide) {
  std::vector<double> values;
  for (int i = 0; i < 612; ++i) {
    values.push_back(5.0 + 2.0 * std::sin(2.0 * M_PI * i / 24.0));
  }
  bool exact_fallback = true;
  EXPECT_EQ(DetectSeasonality(values, 4, 204, 0.3, &exact_fallback).period, 24u);
  EXPECT_FALSE(exact_fallback);
  std::vector<double> short_series;
  for (int i = 0; i < 48; ++i) {
    short_series.push_back(5.0 + 2.0 * std::sin(2.0 * M_PI * i / 12.0));
  }
  exact_fallback = true;
  EXPECT_EQ(DetectSeasonality(short_series, 4, 16, 0.3, &exact_fallback).period, 12u);
  EXPECT_FALSE(exact_fallback);
  values[100] = std::numeric_limits<double>::quiet_NaN();
  DetectSeasonality(values, 4, 204, 0.3, &exact_fallback);
  EXPECT_TRUE(exact_fallback);
}

// Each transform's sums stay within their bound of extended-precision
// sums of the same centered values.
TEST(AcfCertificateTest, SumsStayWithinTheirErrorBounds) {
  Rng rng(3);
  for (const size_t n : kSizes) {
    for (int kind = 0; kind < 10; ++kind) {
      const std::vector<double> values = RandomSeries(rng, n, kind);
      const size_t max_lag = std::max<size_t>(1, n / 3);
      const size_t limit = std::min(max_lag, n - 1);
      const double mean = Mean(values);
      std::vector<long double> exact(limit + 1, 0.0L);
      for (size_t lag = 0; lag <= limit; ++lag) {
        for (size_t i = 0; i + lag < n; ++i) {
          exact[lag] += static_cast<long double>(values[i] - mean) *
                        static_cast<long double>(values[i + lag] - mean);
        }
      }
      const std::vector<double> reference = AutocovarianceSumsFft(values, max_lag);
      std::vector<double> fast(limit + 1);
      ASSERT_TRUE(AutocovarianceSumsRealFft(values, max_lag, fast));
      const long double s = exact[0];
      // The extended sums err by at most n * 2^-63 * S; allow that on top.
      const long double slack = static_cast<long double>(n) * 0x1p-60L * s;
      const long double fast_bound = AutocovarianceSumsRealFftErrorBound(n, max_lag) * s + slack;
      const long double reference_bound = AutocovarianceSumsFftErrorBound(n) * s + slack;
      for (size_t lag = 0; lag <= limit; ++lag) {
        EXPECT_LE(std::fabs(fast[lag] - exact[lag]), fast_bound)
            << "n=" << n << " kind=" << kind << " lag=" << lag;
        EXPECT_LE(std::fabs(reference[lag] - exact[lag]), reference_bound)
            << "n=" << n << " kind=" << kind << " lag=" << lag;
      }
    }
  }
}

}  // namespace
}  // namespace fbdetect
