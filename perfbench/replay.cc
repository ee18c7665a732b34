#include "perfbench/replay.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <span>

#include "src/core/change_point_stage.h"
#include "src/core/long_term.h"
#include "src/core/regression.h"
#include "src/core/sanitizer.h"
#include "src/core/scan_view.h"
#include "src/core/seasonality_stage.h"
#include "src/core/went_away.h"
#include "src/observe/telemetry_export.h"
#include "src/service/wire.h"
#include "src/stats/correlation.h"
#include "src/stats/descriptive.h"
#include "src/stats/linreg.h"
#include "src/tsa/stl.h"
#include "src/tsdb/window.h"

namespace perfbench {
namespace {

using fbdetect::TimePoint;

std::span<const uint8_t> Bytes(const std::string& body) {
  return {reinterpret_cast<const uint8_t*>(body.data()), body.size()};
}

// The funnel stages of Fig. 6, in pipeline order.
const char* const kFunnelStages[] = {"fingerprint", "same_regression_merger", "som_dedup",
                                     "cost_shift",  "pairwise_dedup",         "root_cause"};

// Same rule as the pipeline's went-away hint: points per day at the
// series' native resolution.
size_t PointsPerDay(std::span<const TimePoint> timestamps) {
  if (timestamps.size() < 2 || timestamps[1] <= timestamps[0]) {
    return 0;
  }
  return static_cast<size_t>(fbdetect::kDay / (timestamps[1] - timestamps[0]));
}

}  // namespace

IngestTimings IngestBodies(const std::vector<std::string>& bodies,
                           fbdetect::TimeSeriesDatabase& db, std::vector<double>* ack_ms) {
  IngestTimings timings;
  fbdetect::WriteBatch batch(&db);
  fbdetect::WireBatch wire;
  for (const std::string& body : bodies) {
    const CpuClock::time_point start = CpuClock::now();
    const fbdetect::Status parsed = fbdetect::ParseWireBatch(Bytes(body), &wire);
    const CpuClock::time_point parsed_at = CpuClock::now();
    if (!parsed.ok()) {
      ++timings.parse_failures;
      continue;
    }
    for (const fbdetect::WireSeries& series : wire.series) {
      const fbdetect::InternedMetricId id = db.Intern(series.id);
      for (size_t i = 0; i < series.timestamps.size(); ++i) {
        batch.Add(id, series.timestamps[i], series.values[i]);
      }
    }
    batch.Commit();
    const CpuClock::time_point committed = CpuClock::now();
    ++timings.bodies;
    timings.points += wire.total_points;
    timings.parse_ns += NsBetween(start, parsed_at);
    timings.commit_ns += NsBetween(parsed_at, committed);
    if (ack_ms != nullptr) {
      ack_ms->push_back(MsBetween(start, committed));
    }
  }
  return timings;
}

double TelemetryCounts::Counter(const std::string& name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

double TelemetryCounts::HistogramSum(const std::string& name) const {
  const auto it = histograms.find(name);
  return it == histograms.end() ? 0 : it->second.second;
}

double TelemetryCounts::HistogramCount(const std::string& name) const {
  const auto it = histograms.find(name);
  return it == histograms.end() ? 0 : it->second.first;
}

double TelemetryCounts::HistogramQuantile(const std::string& name, double q) const {
  const auto it = buckets.find(name);
  const double total = HistogramCount(name);
  if (it == buckets.end() || total <= 0) {
    return 0;
  }
  const double target = q * total;
  double seen = 0;
  double lower = 0;
  for (const auto& [upper, count] : it->second) {
    if (seen + count >= target && count > 0) {
      return lower + (upper - lower) * (target - seen) / count;
    }
    seen += count;
    lower = upper + 1;
  }
  return lower;
}

TelemetryCounts ReadTelemetryCounts(const fbdetect::TelemetryRegistry& registry) {
  return ParseTelemetryJson(fbdetect::RenderTelemetryJson(registry, /*include_runtime=*/true));
}

// RenderTelemetryJson's layout: "counters" and "runtime_counters" objects of
// "name": value pairs, then "histograms": [{"name": .., "count": ..,
// "sum": .., "buckets": [[upper, count], ...]}, ...].
TelemetryCounts ParseTelemetryJson(const std::string& json) {
  TelemetryCounts counts;
  const size_t histograms_at = json.find("\"histograms\"");
  const std::string head = json.substr(0, histograms_at);
  size_t at = 0;
  while ((at = head.find('"', at)) != std::string::npos) {
    const size_t end = head.find('"', at + 1);
    if (end == std::string::npos) {
      break;
    }
    const std::string name = head.substr(at + 1, end - at - 1);
    size_t value_at = end + 1;
    while (value_at < head.size() && (head[value_at] == ':' || head[value_at] == ' ')) {
      ++value_at;
    }
    if (value_at < head.size() && std::isdigit(static_cast<unsigned char>(head[value_at]))) {
      counts.counters[name] = std::strtod(head.c_str() + value_at, nullptr);
    }
    at = end + 1;
  }
  if (histograms_at == std::string::npos) {
    return counts;
  }
  at = histograms_at;
  while ((at = json.find("{\"name\": \"", at)) != std::string::npos) {
    at += 10;
    const size_t end = json.find('"', at);
    const std::string name = json.substr(at, end - at);
    const size_t count_at = json.find("\"count\": ", end);
    const size_t sum_at = json.find("\"sum\": ", end);
    const size_t close = json.find('}', end);
    if (count_at == std::string::npos || sum_at == std::string::npos || count_at > close) {
      break;
    }
    counts.histograms[name] = {std::strtod(json.c_str() + count_at + 9, nullptr),
                               std::strtod(json.c_str() + sum_at + 7, nullptr)};
    size_t pair = json.find('[', sum_at);
    std::vector<std::pair<double, double>>& buckets = counts.buckets[name];
    while (pair != std::string::npos && pair < close) {
      pair = json.find('[', pair + 1);
      if (pair == std::string::npos || pair > close) {
        break;
      }
      char* next = nullptr;
      const double upper = std::strtod(json.c_str() + pair + 1, &next);
      const double count = std::strtod(next + 1, nullptr);
      buckets.emplace_back(upper, count);
    }
    at = close;
  }
  return counts;
}

void AddStageSpans(const fbdetect::Trace& trace, int64_t run_span, int64_t run_id,
                   SpanRecorder& recorder) {
  std::vector<int64_t> mine(trace.spans.size(), run_span);
  std::vector<double> cursor(trace.spans.size(), recorder.StartNs(run_span));
  for (size_t i = 1; i < trace.spans.size(); ++i) {
    const fbdetect::Span& span = trace.spans[i];
    const size_t parent = static_cast<size_t>(span.parent);
    std::string name = span.subroutine;
    const std::string stage_prefix = "pipeline.stage.";
    name = name.rfind(stage_prefix, 0) == 0 ? "core.stage." + name.substr(stage_prefix.size())
                                            : "core." + name.substr(name.find('.') + 1);
    const double start = cursor[parent];
    const double end = start + span.self_cost * 1e6;  // Stage costs are ms.
    mine[i] = recorder.Add(name, mine[parent], run_id, start, end);
    cursor[parent] = end;
    cursor[i] = start;
  }
}

void ReplayScanLayers(const fbdetect::TimeSeriesDatabase& db, const std::string& service,
                      const std::vector<TimePoint>& as_ofs,
                      const fbdetect::DetectionConfig& config, SpanRecorder& recorder) {
  const fbdetect::ChangePointStage change_point(config);
  const fbdetect::WentAwayDetector went_away(config);
  const fbdetect::SeasonalityStage seasonality(config);
  const fbdetect::LongTermDetector long_term(config);
  const fbdetect::Sanitizer sanitizer{fbdetect::SanitizerConfig{}};
  const std::vector<fbdetect::MetricId> ids = db.ListMetrics(service);
  std::vector<double> scratch;
  fbdetect::TimeSeries series_scratch;
  size_t sink = 0;
  for (size_t run = 0; run < as_ofs.size(); ++run) {
    const TimePoint as_of = as_ofs[run];
    const int64_t run_id = static_cast<int64_t>(run);
    ScopedSpan replay(recorder, "replay.as_of", SpanRecorder::kNoParent, run_id);
    for (const fbdetect::MetricId& id : ids) {
      const fbdetect::TimeSeries* series = nullptr;
      fbdetect::WindowView windows;
      {
        ScopedSpan span(recorder, "tsdb.window", replay.id(), run_id);
        series = db.SeriesForScan(id, as_of - config.windows.Total(), series_scratch);
        if (series != nullptr) {
          windows = fbdetect::ExtractWindowView(*series, as_of, config.windows);
        }
      }
      if (series == nullptr) {
        continue;
      }
      const fbdetect::WindowQuality quality = sanitizer.Inspect(id.kind, windows, config.windows);
      if (sanitizer.ShouldQuarantine(quality.verdict)) {
        continue;
      }
      const double sign = fbdetect::LowerIsRegression(id.kind) ? -1.0 : 1.0;
      const fbdetect::ScanView view = fbdetect::OrientWindows(windows, sign, scratch);

      std::optional<fbdetect::ScanCandidate> candidate;
      {
        ScopedSpan span(recorder, "core.change_point", replay.id(), run_id);
        candidate = change_point.DetectCandidate(view);
      }
      if (candidate) {
        fbdetect::WentAwayVerdict verdict;
        {
          ScopedSpan span(recorder, "core.went_away", replay.id(), run_id);
          verdict = went_away.Evaluate(view, *candidate, PointsPerDay(view.analysis_timestamps));
        }
        if (verdict.keep) {
          ScopedSpan span(recorder, "core.seasonality", replay.id(), run_id);
          sink += seasonality.Evaluate(view, *candidate).seasonal_filtered ? 1 : 0;
        }
      }
      {
        ScopedSpan span(recorder, "core.long_term", replay.id(), run_id);
        sink += long_term.Detect(id, view).has_value() ? 1 : 0;
      }

      // The long-term detector's sub-steps on the same window, in its order.
      if (view.analysis_size < 16 || view.historical_size < 16) {
        continue;
      }
      const std::span<const double> full = view.full;
      fbdetect::SeasonalityEstimate season;
      {
        ScopedSpan span(recorder, "stats.acf", replay.id(), run_id);
        season = fbdetect::DetectSeasonality(full, 4, full.size() / 3,
                                             config.seasonality_min_correlation);
      }
      const size_t period =
          season.present ? season.period : std::max<size_t>(4, full.size() / 20);
      fbdetect::Decomposition stl;
      {
        ScopedSpan span(recorder, "tsa.stl", replay.id(), run_id);
        stl = fbdetect::StlDecompose(full, period);
      }
      const std::span<const double> trend =
          stl.valid ? std::span<const double>(stl.trend) : full;
      std::vector<double> normalized(trend.begin() + static_cast<long>(view.historical_size),
                                     trend.begin() + static_cast<long>(view.historical_size +
                                                                       view.analysis_size));
      const double lo = fbdetect::Min(normalized);
      const double hi = fbdetect::Max(normalized);
      if (hi > lo) {
        for (double& v : normalized) {
          v = (v - lo) / (hi - lo);
        }
      }
      {
        ScopedSpan span(recorder, "stats.fit_line", replay.id(), run_id);
        sink += fbdetect::FitLine(normalized).valid ? 1 : 0;
      }
    }
  }
  std::fprintf(stderr, "replay: %zu as_of x %zu series (%zu verdicts)\n", as_ofs.size(),
               ids.size(), sink);
}

void FillRunLayerMetrics(const SpanRecorder& recorder, const TelemetryCounts& counts,
                         Result& result) {
  auto& m = result.metrics;
  const std::map<std::string, SpanRecorder::NameTotals> totals = recorder.Totals();
  const std::vector<std::pair<double, double>> runs_ns = recorder.DurationAndChildSum("core.run");
  // In-process runs have bench-timed core.run spans with the pipeline's
  // stage sums beneath them; a server's export has the same stage
  // histograms, summed over its runs.
  const bool spans = !runs_ns.empty();
  const double runs = spans ? static_cast<double>(runs_ns.size())
                            : std::max(1.0, counts.HistogramCount("pipeline.run.wall_ns"));
  const auto ms_per_run = [&](const std::string& span, const std::string& histogram) {
    if (!spans) {
      return counts.HistogramSum(histogram) / 1e6 / runs;
    }
    const auto it = totals.find(span);
    return it == totals.end() ? 0.0 : it->second.total_ns / 1e6 / runs;
  };
  m["core.scan_ms_per_run"] = ms_per_run("core.scan", "pipeline.scan.wall_ns");
  double funnel = 0;
  for (const char* stage : kFunnelStages) {
    const double ms = ms_per_run(std::string("core.stage.") + stage,
                                 std::string("pipeline.stage.") + stage + ".wall_ns");
    m[std::string("core.") + stage + "_ms_per_run"] = ms;
    funnel += ms;
  }
  m["core.funnel_ms_per_run"] = funnel;
  if (spans) {
    // The stage timers sit inside the bench's span, so they can never cover
    // more than it; what they leave uncovered is the reconciliation residual.
    std::vector<double> run_ms;
    double run_total = 0;
    double residual_total = 0;
    for (const auto& [duration, children] : runs_ns) {
      run_ms.push_back(duration / 1e6);
      run_total += duration;
      residual_total += duration - children;
      result.Gate(children <= duration * 1.001, "stage spans cover more than their RunAt span");
    }
    m["core.run_ms_p50"] = Median(run_ms);
    m["core.run_residual_frac"] = run_total > 0 ? residual_total / run_total : 0;
  } else {
    m["core.run_ms_p50"] = counts.HistogramQuantile("pipeline.run.wall_ns", 0.5) / 1e6;
    // Per-call stage costs from the server's own stage timers.
    const auto per_call_us = [&](const char* stage) {
      const std::string base = std::string("pipeline.stage.") + stage;
      const double in = counts.Counter(base + ".in");
      return in > 0 ? counts.HistogramSum(base + ".wall_ns") / 1e3 / in : 0.0;
    };
    m["core.change_point_us_per_series"] = per_call_us("change_point");
    m["core.went_away_us_per_call"] = per_call_us("went_away");
    m["core.seasonality_us_per_call"] = per_call_us("seasonality");
    m["core.long_term_us_per_series"] = per_call_us("long_term");
  }
  const double series = counts.Counter("pipeline.stage.change_point.in");
  const double long_in = counts.Counter("pipeline.stage.long_term.in");
  const double reported = counts.Counter("pipeline.reported");
  m["core.series_evaluated"] = series;
  m["core.change_point_out"] = counts.Counter("pipeline.stage.change_point.out");
  m["core.long_term_out"] = counts.Counter("pipeline.stage.long_term.out");
  m["core.threshold_out"] = counts.Counter("pipeline.stage.threshold.out");
  m["core.reported"] = reported;
  m["core.long_term_pass_frac"] =
      long_in > 0 ? counts.Counter("pipeline.stage.long_term.out") / long_in : 0;
  m["core.reported_per_series"] = series > 0 ? reported / series : 0;
}

void FillScanLayerMetrics(const SpanRecorder& recorder, Result& result) {
  const std::map<std::string, SpanRecorder::NameTotals> totals = recorder.Totals();
  const auto us_per_call = [&](const std::string& name) {
    const auto it = totals.find(name);
    return it == totals.end() || it->second.calls == 0
               ? 0.0
               : it->second.total_ns / 1e3 / static_cast<double>(it->second.calls);
  };
  const auto total = [&](const std::string& name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.total_ns;
  };
  auto& m = result.metrics;
  m["tsdb.window_us_per_series"] = us_per_call("tsdb.window");
  m["core.change_point_us_per_series"] = us_per_call("core.change_point");
  m["core.went_away_us_per_call"] = us_per_call("core.went_away");
  m["core.seasonality_us_per_call"] = us_per_call("core.seasonality");
  m["core.long_term_us_per_series"] = us_per_call("core.long_term");
  m["stats.acf_us_per_series"] = us_per_call("stats.acf");
  m["tsa.stl_us_per_series"] = us_per_call("tsa.stl");
  m["stats.fit_line_us_per_series"] = us_per_call("stats.fit_line");
  const double long_term = total("core.long_term");
  m["core.long_term_residual_frac"] =
      long_term > 0
          ? (long_term - total("stats.acf") - total("tsa.stl") - total("stats.fit_line")) /
                long_term
          : 0;
}

void FillIngestLayerMetrics(const IngestTimings& timings, Result& result) {
  if (timings.points == 0) {
    return;
  }
  const double points = static_cast<double>(timings.points);
  result.metrics["service.wire_parse_ns_per_point"] = timings.parse_ns / points;
  result.metrics["tsdb.commit_ns_per_point"] = timings.commit_ns / points;
}

void FillStorageLayerMetrics(const std::vector<std::string>& bodies, uint64_t seal_every,
                             const std::string& durable_dir, Result& result) {
  struct Pass {
    double parse_ns = 0;
    double commit_ns = 0;
    double sync_ns = 0;
    std::vector<double> seal_ms;
    uint64_t points = 0;
    uint64_t rejected = 0;
    double sealed_bytes_per_point = 0;
    double wal_bytes = 0;
  };
  const auto run_pass = [&](bool durable) {
    Pass pass;
    fbdetect::TsdbOptions tsdb;
    if (durable) {
      std::filesystem::remove_all(durable_dir);
      tsdb.durable.directory = durable_dir;
      tsdb.durable.fsync = false;
    }
    {
      fbdetect::TimeSeriesDatabase db(tsdb);
      fbdetect::WriteBatch batch(&db);
      fbdetect::WireBatch wire;
      TimePoint max_ts = 0;
      uint64_t since_seal = 0;
      for (const std::string& body : bodies) {
        const Clock::time_point parse_start = Clock::now();
        if (!fbdetect::ParseWireBatch(Bytes(body), &wire).ok()) {
          continue;
        }
        const Clock::time_point start = Clock::now();
        pass.parse_ns += NsBetween(parse_start, start);
        for (const fbdetect::WireSeries& series : wire.series) {
          const fbdetect::InternedMetricId id = db.Intern(series.id);
          for (size_t i = 0; i < series.timestamps.size(); ++i) {
            batch.Add(id, series.timestamps[i], series.values[i]);
            max_ts = std::max(max_ts, series.timestamps[i]);
          }
        }
        batch.Commit();
        pass.commit_ns += NsBetween(start, Clock::now());
        pass.points += wire.total_points;
        since_seal += wire.total_points;
        if (seal_every > 0 && since_seal >= seal_every) {
          since_seal = 0;
          const Clock::time_point seal_start = Clock::now();
          db.SealBefore(max_ts + 1);
          db.SyncDurable();
          pass.seal_ms.push_back(MsBetween(seal_start, Clock::now()));
        }
      }
      const Clock::time_point sync_start = Clock::now();
      db.SyncDurable();
      pass.sync_ns = NsBetween(sync_start, Clock::now());
      const fbdetect::TimeSeriesDatabase::MemoryStats memory = db.memory_stats();
      pass.sealed_bytes_per_point =
          memory.sealed_points > 0 ? static_cast<double>(memory.sealed_bytes) /
                                         static_cast<double>(memory.sealed_points)
                                   : 0;
      pass.wal_bytes = static_cast<double>(db.durable_stats().log_bytes_written);
      pass.rejected = db.ingest_stats().dropped();
    }
    if (durable) {
      std::filesystem::remove_all(durable_dir);
    }
    return pass;
  };
  const Pass memory = run_pass(false);
  const Pass durable = run_pass(true);
  if (memory.points == 0) {
    return;
  }
  const double points = static_cast<double>(memory.points);
  auto& m = result.metrics;
  m["service.wire_parse_ns_per_point"] = memory.parse_ns / points;
  m["tsdb.commit_ns_per_point"] = memory.commit_ns / points;
  m["tsdb.wal_cpu_ns_per_point"] =
      std::max(0.0, durable.commit_ns + durable.sync_ns - memory.commit_ns) / points;
  m["tsdb.seal_ms_per_call"] = Mean(durable.seal_ms);
  m["tsdb.sealed_bytes_per_point"] = memory.sealed_bytes_per_point;
  m["tsdb.wal_bytes_per_point"] = durable.wal_bytes / points;
  m["tsdb.rejected_points"] = static_cast<double>(memory.rejected);
  result.Gate(memory.rejected == 0, "storage replay rejected points");
}

void WriteTrace(const Options& options, const SpanRecorder& recorder, Result& result) {
  const std::map<std::string, SpanRecorder::NameTotals> totals = recorder.Totals();
  std::fprintf(stderr, "trace: %zu spans\n  %-34s %8s %12s %12s\n", recorder.size(), "span",
               "calls", "total_ms", "self_ms");
  for (const auto& [name, entry] : totals) {
    std::fprintf(stderr, "  %-34s %8llu %12.3f %12.3f\n", name.c_str(),
                 static_cast<unsigned long long>(entry.calls), entry.total_ns / 1e6,
                 entry.self_ns / 1e6);
  }
  const std::string path = options.work_dir + "/trace-" + options.workload + "-" +
                           std::to_string(options.seed) + ".json";
  result.Gate(recorder.Write(path), "could not write " + path);
  std::fprintf(stderr, "trace: wrote %s\n", path.c_str());
}

}  // namespace perfbench
