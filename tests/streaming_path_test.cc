// End-to-end acceptance tests for the incremental scan under streaming
// ingest (DESIGN §14): generation-gated re-runs must be byte-identical to the
// batch oracle whenever every series is dirty at a run (the
// interleaved-ingest steady state), whole-run short-circuits must provably do
// zero scan work, and the incremental ListMetrics cache must refresh only
// moved shards.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "src/common/sim_time.h"
#include "src/core/pipeline.h"
#include "src/fleet/fault_injector.h"
#include "src/fleet/fleet.h"
#include "src/fleet/service.h"
#include "src/observe/telemetry.h"
#include "src/report/report.h"
#include "src/tsdb/database.h"
#include "src/tsdb/metric_id.h"

namespace fbdetect {
namespace {

constexpr Duration kTick = Minutes(10);
constexpr TimePoint kDataEnd = Days(2);
// Re-runs at 30h, 33h, ..., 48h. Every run is preceded by a fresh ingest
// segment, so every series is dirty at every run — the regime in which the
// gated scan guarantees byte-identity with the batch oracle.
constexpr TimePoint kFirstRun = Hours(30);
constexpr Duration kRunStep = Hours(3);
constexpr uint64_t kFaultSeed = 11;

ServiceConfig ConvergenceServiceConfig() {
  ServiceConfig config;
  config.name = "svc";
  config.num_servers = 30;
  config.call_graph.num_subroutines = 24;
  config.sampling.samples_per_bucket = 500000;
  config.sampling.bucket_width = kTick;
  config.tick = kTick;
  config.num_endpoints = 2;
  config.num_seasonal_subroutines = 0;
  config.seasonal_load_amplitude = 0.0;
  config.emit_process_cpu = false;
  config.seed = 7;
  return config;
}

PipelineOptions DetectOptions(int scan_threads, ScanMode mode) {
  PipelineOptions options;
  options.detection.threshold = 0.0005;
  options.detection.windows.historical = Days(1);
  options.detection.windows.analysis = Hours(4);
  options.detection.windows.extended = Hours(2);
  options.detection.rerun_interval = kRunStep;
  options.scan_threads = scan_threads;
  options.scan_mode = mode;
  return options;
}

// A leaf subroutine with a detectable reach: a step regression on it moves
// enough gCPU mass to clear the detection threshold.
std::string DetectableLeaf(const ServiceConfig& config) {
  const ServiceSimulator probe(config);
  const CallGraph& graph = probe.graph();
  const std::vector<double> reach = graph.ReachProbabilities();
  for (size_t i = 0; i < graph.node_count(); ++i) {
    const NodeId id = static_cast<NodeId>(i);
    if (graph.edges(id).empty() && reach[i] >= 0.003 && reach[i] <= 0.2) {
      return graph.node(id).name;
    }
  }
  return graph.node(0).name;
}

std::string Serialize(const std::vector<Regression>& reports) {
  std::string out;
  for (const Regression& report : reports) {
    out += ToJsonLine(report);
    out += '\n';
  }
  return out;
}

std::string RenderPipelineState(Pipeline& pipeline) {
  std::string out = RenderFunnel(pipeline.short_term_funnel(), pipeline.long_term_funnel(),
                                 /*long_term_enabled=*/true);
  out += RenderQuarantine(pipeline.quarantine_report(), /*max_rows=*/0);
  return out;
}

uint64_t CounterValue(const TelemetryRegistry& registry, const std::string& name) {
  for (const CounterSnapshot& counter : registry.SnapshotCounters()) {
    if (counter.name == name) {
      return counter.value;
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Convergence: interleaved ingest/detect, gated vs the batch oracle over the
// same database. Each re-run follows a fresh ingest segment,
// so every series is dirty at every run and the gated contract guarantees
// byte-identical survivors, funnels, and quarantine reports.
// ---------------------------------------------------------------------------

struct ScenarioResult {
  std::vector<Regression> batch_reports;
  std::string batch_rendered;      // All reports + funnel + quarantine.
  std::string gated_rendered;
};

ScenarioResult RunInterleavedScenario(double magnitude, double fault_rate,
                                      int scan_threads) {
  const ServiceConfig config = ConvergenceServiceConfig();

  std::unique_ptr<FaultInjector> injector;
  if (fault_rate > 0.0) {
    FaultInjectorConfig fault_config = FaultInjectorConfig::AllKinds(fault_rate, kFaultSeed);
    // Keep flap epochs much shorter than one ingest segment: a series that
    // goes completely dark for a whole segment is legitimately clean at the
    // next run (its verdict replays), which would exercise the documented
    // as-of approximation instead of the byte-identity regime under test.
    fault_config.flap_epoch = Minutes(30);
    injector = std::make_unique<FaultInjector>(fault_config);
  }

  FleetSimulator fleet;
  fleet.AddService(config);
  InjectedEvent event;
  event.kind = EventKind::kStepRegression;
  event.service = config.name;
  event.subroutine = DetectableLeaf(config);
  event.start = Hours(36);
  event.magnitude = magnitude;
  fleet.InjectEvent(event);

  Pipeline batch(&fleet.db(), nullptr, nullptr, DetectOptions(scan_threads, ScanMode::kBatch));
  Pipeline gated(&fleet.db(), nullptr, nullptr, DetectOptions(scan_threads, ScanMode::kGated));

  FleetIngestOptions ingest;
  ingest.threads = 2;
  ingest.flush_points = 1024;
  ingest.fault_injector = injector.get();

  ScenarioResult result;
  std::string batch_reports_rendered;
  std::string gated_reports_rendered;
  TimePoint ingested = -kTick;
  for (TimePoint as_of = kFirstRun; as_of <= kDataEnd; as_of += kRunStep) {
    fleet.Run(ingested, as_of, ingest);
    ingested = as_of;
    const std::vector<Regression> batch_run = batch.RunAt(config.name, as_of);
    const std::vector<Regression> gated_run = gated.RunAt(config.name, as_of);
    const std::string batch_serialized = Serialize(batch_run);
    const std::string gated_serialized = Serialize(gated_run);
    EXPECT_EQ(gated_serialized, batch_serialized)
        << "as_of=" << as_of << " magnitude=" << magnitude << " fault_rate=" << fault_rate
        << " scan_threads=" << scan_threads;
    batch_reports_rendered += batch_serialized;
    gated_reports_rendered += gated_serialized;
    result.batch_reports.insert(result.batch_reports.end(), batch_run.begin(),
                                batch_run.end());
  }

  result.batch_rendered = batch_reports_rendered + RenderPipelineState(batch);
  result.gated_rendered = gated_reports_rendered + RenderPipelineState(gated);
  return result;
}

bool StepDetectedNear(const std::vector<Regression>& reports, TimePoint start) {
  for (const Regression& report : reports) {
    if (report.metric.kind == MetricKind::kGcpu &&
        std::llabs(report.change_time - start) <= Hours(1)) {
      return true;
    }
  }
  return false;
}

TEST(StreamingConvergenceTest, MagnitudeSweepMatchesBatchOracle) {
  for (const double magnitude : {0.5, 0.05, 0.005}) {
    const ScenarioResult result =
        RunInterleavedScenario(magnitude, /*fault_rate=*/0.0, /*scan_threads=*/2);
    EXPECT_EQ(result.gated_rendered, result.batch_rendered)
        << "magnitude=" << magnitude;
    if (magnitude == 0.5) {
      EXPECT_TRUE(StepDetectedNear(result.batch_reports, Hours(36)))
          << Serialize(result.batch_reports);
    }
  }
}

TEST(StreamingConvergenceTest, FaultRateSweepMatchesBatchOracle) {
  for (const double rate : {0.05, 0.10}) {
    const ScenarioResult result =
        RunInterleavedScenario(/*magnitude=*/0.5, rate, /*scan_threads=*/2);
    EXPECT_EQ(result.gated_rendered, result.batch_rendered) << "fault_rate=" << rate;
  }
}

TEST(StreamingConvergenceTest, GatedModeMatchesBatchOracle) {
  const ScenarioResult result =
      RunInterleavedScenario(/*magnitude=*/0.5, /*fault_rate=*/0.0, /*scan_threads=*/2);
  EXPECT_EQ(result.gated_rendered, result.batch_rendered);
  EXPECT_TRUE(StepDetectedNear(result.batch_reports, Hours(36)))
      << Serialize(result.batch_reports);
}

TEST(StreamingConvergenceTest, ThreadCountSweepIsByteIdentical) {
  std::vector<ScenarioResult> results;
  for (const int threads : {1, 2, 8}) {
    results.push_back(
        RunInterleavedScenario(/*magnitude=*/0.5, /*fault_rate=*/0.0, threads));
    EXPECT_EQ(results.back().gated_rendered, results.back().batch_rendered)
        << "scan_threads=" << threads;
  }
  // The whole fleet build is deterministic, so the gated output must also
  // agree across scan_threads values, not just with its own oracle.
  EXPECT_EQ(results[1].gated_rendered, results[0].gated_rendered);
  EXPECT_EQ(results[2].gated_rendered, results[0].gated_rendered);
}

// ---------------------------------------------------------------------------
// Generation gating telemetry: whole-run short-circuits and per-series
// dirty/clean accounting.
// ---------------------------------------------------------------------------

ServiceConfig SmallServiceConfig() {
  ServiceConfig config = ConvergenceServiceConfig();
  config.num_servers = 20;
  config.call_graph.num_subroutines = 16;
  return config;
}

PipelineOptions GatedTelemetryOptions() {
  PipelineOptions options = DetectOptions(/*scan_threads=*/1, ScanMode::kGated);
  options.telemetry.enabled = true;
  return options;
}

TEST(GatedScanTest, UnchangedGenerationShortCircuitsTheRunWithZeroScanWork) {
  FleetSimulator fleet;
  fleet.AddService(SmallServiceConfig());
  fleet.Run(-kTick, kFirstRun);

  Pipeline pipeline(&fleet.db(), nullptr, nullptr, GatedTelemetryOptions());
  pipeline.RunAt("svc", kFirstRun);
  const TelemetryRegistry& registry = pipeline.telemetry();
  const uint64_t series = CounterValue(registry, "pipeline.scan.series_in");
  EXPECT_GT(series, 0u);
  EXPECT_EQ(series, fleet.db().ListMetrics("svc").size());
  // First sight of every series: all dirty, nothing cached or skipped.
  EXPECT_EQ(CounterValue(registry, kCounterScanDirty), series);
  EXPECT_EQ(CounterValue(registry, kCounterScanCacheHit), 0u);
  EXPECT_EQ(CounterValue(registry, kCounterScanClean), 0u);
  EXPECT_EQ(CounterValue(registry, kCounterRunShortCircuits), 0u);

  // No ingest since the last run: the whole re-run is skipped. Zero scan
  // work, proven by telemetry — series_in and dirty do not move at all.
  const std::vector<Regression> rerun = pipeline.RunAt("svc", kFirstRun + kRunStep);
  EXPECT_TRUE(rerun.empty());
  EXPECT_EQ(CounterValue(registry, "pipeline.scan.series_in"), series);
  EXPECT_EQ(CounterValue(registry, kCounterScanDirty), series);
  EXPECT_EQ(CounterValue(registry, kCounterScanCacheHit), 0u);
  EXPECT_EQ(CounterValue(registry, kCounterScanClean), series);
  EXPECT_EQ(CounterValue(registry, kCounterRunShortCircuits), 1u);
  EXPECT_EQ(CounterValue(registry, "pipeline.runs"), 2u);

  // RunPeriod over an unchanged database short-circuits every contained run.
  const std::vector<Regression> period =
      pipeline.RunPeriod("svc", kFirstRun, kFirstRun + 3 * kRunStep);
  EXPECT_TRUE(period.empty());
  EXPECT_EQ(CounterValue(registry, "pipeline.scan.series_in"), series);
  EXPECT_EQ(CounterValue(registry, kCounterRunShortCircuits), 4u);
}

TEST(GatedScanTest, SingleDirtySeriesReevaluatesOnlyThatSeries) {
  FleetSimulator fleet;
  fleet.AddService(SmallServiceConfig());
  fleet.Run(-kTick, kFirstRun);

  Pipeline pipeline(&fleet.db(), nullptr, nullptr, GatedTelemetryOptions());
  pipeline.RunAt("svc", kFirstRun);
  const TelemetryRegistry& registry = pipeline.telemetry();
  const uint64_t series = CounterValue(registry, "pipeline.scan.series_in");
  ASSERT_GT(series, 1u);

  // One point on one series: exactly that series re-evaluates; every other
  // series replays its cached verdict (and the per-series events keep the
  // series_in reconciliation exact: series_in delta == dirty + cache_hit).
  const MetricId touched = fleet.db().ListMetrics("svc").front();
  fleet.db().Write(touched, kFirstRun + 60, 1.0);
  pipeline.RunAt("svc", kFirstRun + kRunStep);
  EXPECT_EQ(CounterValue(registry, "pipeline.scan.series_in"), 2 * series);
  EXPECT_EQ(CounterValue(registry, kCounterScanDirty), series + 1);
  EXPECT_EQ(CounterValue(registry, kCounterScanCacheHit), series - 1);
  EXPECT_EQ(CounterValue(registry, kCounterScanClean), series - 1);
  EXPECT_EQ(CounterValue(registry, kCounterRunShortCircuits), 0u);
}

// ---------------------------------------------------------------------------
// Incremental ListMetrics cache: a miss refreshes only the shards whose
// generation moved, observable through scan_stats().
// ---------------------------------------------------------------------------

TEST(TsdbListCacheTest, MissRefreshesOnlyMovedShards) {
  TimeSeriesDatabase db;
  for (int i = 0; i < 64; ++i) {
    char name[16];
    std::snprintf(name, sizeof(name), "sub%02d", i);
    db.Write(MetricId{"svc", MetricKind::kGcpu, name, ""}, 0, 1.0);
  }

  // Cold miss: every shard's slice is built once.
  const TimeSeriesDatabase::ScanStats cold_before = db.scan_stats();
  const std::vector<MetricId> all = db.ListMetrics("svc");
  EXPECT_EQ(all.size(), 64u);
  EXPECT_TRUE(std::is_sorted(all.begin(), all.end()));
  const TimeSeriesDatabase::ScanStats cold_after = db.scan_stats();
  EXPECT_EQ(cold_after.list_cache_misses, cold_before.list_cache_misses + 1);
  EXPECT_EQ(cold_after.list_cache_shard_refreshes,
            cold_before.list_cache_shard_refreshes + db.shard_count());

  // Hit: no generation moved, no shard re-enumerated.
  EXPECT_EQ(db.ListMetrics("svc"), all);
  const TimeSeriesDatabase::ScanStats hit = db.scan_stats();
  EXPECT_EQ(hit.list_cache_hits, cold_after.list_cache_hits + 1);
  EXPECT_EQ(hit.list_cache_shard_refreshes, cold_after.list_cache_shard_refreshes);

  // A point on an existing series moves exactly one shard: the next miss
  // refreshes one slice, and the merged listing is unchanged.
  db.Write(all.front(), 1, 2.0);
  EXPECT_EQ(db.ListMetrics("svc"), all);
  const TimeSeriesDatabase::ScanStats warm = db.scan_stats();
  EXPECT_EQ(warm.list_cache_misses, hit.list_cache_misses + 1);
  EXPECT_EQ(warm.list_cache_shard_refreshes, hit.list_cache_shard_refreshes + 1);

  // A brand-new series also touches one shard, and the merge inserts it at
  // its canonical position.
  const MetricId extra{"svc", MetricKind::kGcpu, "aaa-extra", ""};
  db.Write(extra, 0, 1.0);
  std::vector<MetricId> expected = all;
  expected.insert(std::upper_bound(expected.begin(), expected.end(), extra), extra);
  EXPECT_EQ(db.ListMetrics("svc"), expected);
  const TimeSeriesDatabase::ScanStats fresh = db.scan_stats();
  EXPECT_EQ(fresh.list_cache_misses, warm.list_cache_misses + 1);
  EXPECT_EQ(fresh.list_cache_shard_refreshes, warm.list_cache_shard_refreshes + 1);
}

}  // namespace
}  // namespace fbdetect
