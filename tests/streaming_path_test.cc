// End-to-end acceptance tests for detection under streaming ingest: re-runs
// interleaved with ingest must be byte-identical for any scan_threads value
// (the serial scan is the oracle), and the incremental ListMetrics cache
// (DESIGN §14) must refresh only moved shards.
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
#include "src/report/report.h"
#include "src/tsdb/database.h"
#include "src/tsdb/metric_id.h"

namespace fbdetect {
namespace {

constexpr Duration kTick = Minutes(10);
constexpr TimePoint kDataEnd = Days(2);
// Re-runs at 30h, 33h, ..., 48h, each preceded by a fresh ingest segment.
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

PipelineOptions DetectOptions(int scan_threads) {
  PipelineOptions options;
  options.detection.threshold = 0.0005;
  options.detection.windows.historical = Days(1);
  options.detection.windows.analysis = Hours(4);
  options.detection.windows.extended = Hours(2);
  options.detection.rerun_interval = kRunStep;
  options.scan_threads = scan_threads;
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

// ---------------------------------------------------------------------------
// Convergence: interleaved ingest/detect over one database, scanned by
// pipelines at scan_threads 1, 2 and 8. Every re-run's serialized reports,
// and the final funnel and quarantine, must match the serial oracle's.
// ---------------------------------------------------------------------------

constexpr int kScanThreads[] = {1, 2, 8};

struct ScenarioResult {
  std::vector<Regression> oracle_reports;  // scan_threads = 1.
  std::vector<std::string> rendered;       // Reports + funnel + quarantine, per kScanThreads.
};

ScenarioResult RunInterleavedScenario(double magnitude, double fault_rate) {
  const ServiceConfig config = ConvergenceServiceConfig();

  std::unique_ptr<FaultInjector> injector;
  if (fault_rate > 0.0) {
    injector = std::make_unique<FaultInjector>(
        FaultInjectorConfig::AllKinds(fault_rate, kFaultSeed));
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

  std::vector<std::unique_ptr<Pipeline>> pipelines;
  for (const int threads : kScanThreads) {
    pipelines.push_back(
        std::make_unique<Pipeline>(&fleet.db(), nullptr, nullptr, DetectOptions(threads)));
  }

  FleetIngestOptions ingest;
  ingest.threads = 2;
  ingest.flush_points = 1024;
  ingest.fault_injector = injector.get();

  ScenarioResult result;
  result.rendered.resize(pipelines.size());
  TimePoint ingested = -kTick;
  for (TimePoint as_of = kFirstRun; as_of <= kDataEnd; as_of += kRunStep) {
    fleet.Run(ingested, as_of, ingest);
    ingested = as_of;
    std::string oracle_serialized;
    for (size_t p = 0; p < pipelines.size(); ++p) {
      const std::vector<Regression> run = pipelines[p]->RunAt(config.name, as_of);
      const std::string serialized = Serialize(run);
      if (p == 0) {
        oracle_serialized = serialized;
        result.oracle_reports.insert(result.oracle_reports.end(), run.begin(), run.end());
      }
      EXPECT_EQ(serialized, oracle_serialized)
          << "as_of=" << as_of << " magnitude=" << magnitude << " fault_rate=" << fault_rate
          << " scan_threads=" << kScanThreads[p];
      result.rendered[p] += serialized;
    }
  }
  for (size_t p = 0; p < pipelines.size(); ++p) {
    result.rendered[p] += RenderPipelineState(*pipelines[p]);
  }
  return result;
}

void ExpectThreadCountsAgree(const ScenarioResult& result, const std::string& context) {
  for (size_t p = 1; p < result.rendered.size(); ++p) {
    EXPECT_EQ(result.rendered[p], result.rendered[0])
        << context << " scan_threads=" << kScanThreads[p];
  }
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

TEST(StreamingConvergenceTest, ThreadCountSweepIsByteIdentical) {
  const ScenarioResult result = RunInterleavedScenario(/*magnitude=*/0.5, /*fault_rate=*/0.0);
  ExpectThreadCountsAgree(result, "fault_rate=0");
  EXPECT_TRUE(StepDetectedNear(result.oracle_reports, Hours(36)))
      << Serialize(result.oracle_reports);
}

TEST(StreamingConvergenceTest, MagnitudeSweepMatchesBatchOracle) {
  for (const double magnitude : {0.05, 0.005}) {
    const ScenarioResult result = RunInterleavedScenario(magnitude, /*fault_rate=*/0.0);
    ExpectThreadCountsAgree(result, "magnitude=" + std::to_string(magnitude));
  }
}

TEST(StreamingConvergenceTest, FaultRateSweepMatchesBatchOracle) {
  for (const double rate : {0.05, 0.10}) {
    const ScenarioResult result = RunInterleavedScenario(/*magnitude=*/0.5, rate);
    ExpectThreadCountsAgree(result, "fault_rate=" + std::to_string(rate));
  }
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
