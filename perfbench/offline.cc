// offline_period: one simulated fleet, detected in-process.
//
// Set-up builds a FleetSimulator scenario (planted step regressions, cost
// shifts, transients) and exports its series as one wire body per tick.
// The timed part ingests those bodies into a fresh database through
// ParseWireBatch + WriteBatch::Commit (the service's ingest path without
// HTTP), then runs the RunPeriod sequence of RunAt calls with fbdetect_sim's
// detection settings. The scan dominates; ingest is a few percent.
//
// Everything here runs on one thread of this process, so set-up, ingest and
// RunAt are timed on the process CPU clock: on a shared host, time spent
// waiting for a core says nothing about the program.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <span>

#include "perfbench/harness.h"
#include "perfbench/replay.h"
#include "perfbench/scenario.h"
#include "src/core/code_info.h"
#include "src/core/pipeline.h"
#include "src/fleet/fleet.h"
#include "src/fleet/scenario.h"
#include "src/report/report.h"
#include "src/service/wire.h"

namespace perfbench {
namespace {

using fbdetect::TimePoint;

constexpr char kService[] = "sim_service";

struct Fixture {
  std::unique_ptr<fbdetect::FleetSimulator> fleet;
  fbdetect::Scenario scenario;
  std::unique_ptr<fbdetect::CallGraphCodeInfo> code_info;
  std::vector<std::string> bodies;  // One per simulated hour, every series.
  CallerMap callers;
  uint64_t points = 0;
};

fbdetect::PipelineOptions SimPipelineOptions(bool telemetry) {
  fbdetect::PipelineOptions options;
  options.detection.threshold = 0.0003;
  options.detection.windows.historical = fbdetect::Days(4);
  options.detection.windows.analysis = fbdetect::Hours(4);
  options.detection.windows.extended = fbdetect::Hours(2);
  options.detection.rerun_interval = fbdetect::Hours(4);
  options.scan_threads = 1;
  options.telemetry.enabled = telemetry;
  return options;
}

// fbdetect_sim's fleet shape (300 servers x 150 subroutines, 10-minute
// ticks) over 7 days: 12 step regressions inside the re-run span, 3 cost
// shifts and 20 transients around it, and benign background commits.
Fixture BuildFixture(uint64_t seed) {
  Fixture fixture;
  fixture.fleet = std::make_unique<fbdetect::FleetSimulator>();
  fbdetect::Rng rng(seed);
  fbdetect::ServiceConfig config;
  config.name = kService;
  config.language = "php";
  config.num_servers = 300;
  config.call_graph.num_subroutines = 150;
  config.sampling.samples_per_bucket = 2'000'000;
  config.sampling.bucket_width = fbdetect::Minutes(10);
  config.tick = fbdetect::Minutes(10);
  config.seed = kServiceSeed;
  fixture.scenario.service = fixture.fleet->AddService(config);
  fixture.scenario.begin = 0;
  fixture.scenario.end = fbdetect::Days(7);

  const fbdetect::DetectionConfig detection = SimPipelineOptions(false).detection;
  EventPlan plan;
  plan.regressions = 20;
  plan.cost_shifts = 3;
  plan.transients = 20;
  plan.threshold = detection.threshold;
  // Reportable span: the first re-run's analysis window through the last
  // re-run, leaving a few hours for the step to show.
  plan.regress_lo = detection.windows.historical + detection.rerun_interval;
  plan.regress_hi = fixture.scenario.end - fbdetect::Hours(8);
  plan.noise_lo = fixture.scenario.end * 2 / 5;
  plan.noise_hi = fixture.scenario.end * 9 / 10;
  std::vector<PlannedEvent> events = PlanEvents(*fixture.scenario.service, plan, rng);
  AddCallers(*fixture.scenario.service, events, fixture.callers);

  // Culprit and background commits enter the change log in time order.
  std::vector<fbdetect::Commit> background;
  const std::vector<double> reach = fixture.scenario.service->graph().ReachProbabilities();
  for (int i = 0; i < 100; ++i) {
    fbdetect::Commit commit;
    commit.type = fbdetect::ChangeType::kCode;
    commit.service = kService;
    commit.time = static_cast<TimePoint>(
        rng.NextUint64(static_cast<uint64_t>(fixture.scenario.end)));
    const std::string& subroutine =
        fixture.scenario.service->graph()
            .node(static_cast<fbdetect::NodeId>(rng.NextUint64(reach.size())))
            .name;
    commit.title = "Improve documentation of " + subroutine;
    commit.touched_subroutines = {subroutine};
    background.push_back(std::move(commit));
  }
  std::sort(background.begin(), background.end(),
            [](const fbdetect::Commit& a, const fbdetect::Commit& b) { return a.time < b.time; });
  size_t next_background = 0;
  for (PlannedEvent& planned : events) {
    if (planned.has_commit) {
      while (next_background < background.size() &&
             background[next_background].time <= planned.commit.time) {
        fixture.fleet->change_log().Add(std::move(background[next_background++]));
      }
      fixture.fleet->InjectEvent(planned.event, &planned.commit);
    }
  }
  while (next_background < background.size()) {
    fixture.fleet->change_log().Add(std::move(background[next_background++]));
  }
  for (PlannedEvent& planned : events) {
    if (!planned.has_commit) {
      fixture.fleet->InjectEvent(planned.event);
    }
  }
  fixture.fleet->Run(fixture.scenario.begin, fixture.scenario.end);
  fixture.code_info =
      std::make_unique<fbdetect::CallGraphCodeInfo>(&fixture.scenario.service->graph());

  // One body per simulated hour (6 ticks of every series), the unit a
  // fleet-side exporter would flush.
  std::map<TimePoint, fbdetect::WireBatch> hours;
  const fbdetect::TimeSeriesDatabase& db = fixture.fleet->db();
  for (const fbdetect::MetricId& id : db.ListMetrics(kService)) {
    const fbdetect::TimeSeries* series = db.Find(id);
    for (size_t i = 0; i < series->size(); ++i) {
      fbdetect::WireBatch& batch = hours[series->timestamps()[i] / fbdetect::Hours(1)];
      if (batch.series.empty() || !(batch.series.back().id == id)) {
        batch.series.push_back(fbdetect::WireSeries{id, {}, {}});
      }
      batch.series.back().timestamps.push_back(series->timestamps()[i]);
      batch.series.back().values.push_back(series->values()[i]);
      ++batch.total_points;
    }
  }
  for (const auto& [hour, batch] : hours) {
    fixture.bodies.emplace_back();
    fbdetect::EncodeWireBatch(batch, fixture.bodies.back());
    fixture.points += batch.total_points;
  }
  return fixture;
}

// RunPeriod's as_of sequence over the scenario, after a historical window.
std::vector<TimePoint> PeriodAsOfs(const Fixture& fixture) {
  const fbdetect::PipelineOptions options = SimPipelineOptions(false);
  std::vector<TimePoint> as_ofs;
  const TimePoint begin = fixture.scenario.begin + options.detection.windows.historical;
  for (TimePoint as_of = begin + options.detection.rerun_interval;
       as_of <= fixture.scenario.end; as_of += options.detection.rerun_interval) {
    as_ofs.push_back(as_of);
  }
  return as_ofs;
}

struct PeriodOutcome {
  std::vector<double> ingest_s;  // One per ingest pass.
  double period_s = 0;
  std::vector<double> ack_ms;
  std::vector<double> run_ms;
  std::string ndjson;
  std::vector<fbdetect::Regression> reports;
  std::vector<fbdetect::RegressionGroup> groups;
  uint64_t detector_exceptions = 0;
  uint64_t rejected_points = 0;
  IngestTimings ingest_layers;
  TelemetryCounts counts;
};

// Ingest passes of an untraced run: besides the one that fills the period's
// database, the bodies are ingested again into a scratch database after
// every kIngestEveryRuns-th RunAt, so ingest is sampled across the whole
// run rather than at one instant per period.
constexpr size_t kIngestEveryRuns = 3;

// Times one ingest of every body into `db`.
void TimedIngest(const Fixture& fixture, fbdetect::TimeSeriesDatabase& db,
                 PeriodOutcome& outcome) {
  const CpuClock::time_point start = CpuClock::now();
  outcome.ingest_layers = IngestBodies(fixture.bodies, db, &outcome.ack_ms);
  outcome.ingest_s.push_back(SecondsSince(start));
}

// One ingest + detection period on a fresh database. With `recorder` set the
// pipeline's telemetry is on and every RunAt gets a span with the pipeline's
// own per-stage times laid out beneath it. With `ingest_passes` set, extra
// ingest passes run between the RunAt calls (outside their timing).
PeriodOutcome RunOnePeriod(const Fixture& fixture, SpanRecorder* recorder,
                           bool ingest_passes) {
  PeriodOutcome outcome;
  fbdetect::TimeSeriesDatabase db;
  TimedIngest(fixture, db, outcome);
  outcome.rejected_points = db.ingest_stats().dropped();

  fbdetect::Pipeline pipeline(&db, &fixture.fleet->change_log(), fixture.code_info.get(),
                              SimPipelineOptions(recorder != nullptr));
  const std::vector<TimePoint> as_ofs = PeriodAsOfs(fixture);
  int64_t run_id = 0;
  for (const TimePoint as_of : as_ofs) {
    if (ingest_passes && run_id > 0 && run_id % kIngestEveryRuns == 0) {
      fbdetect::TimeSeriesDatabase scratch;
      TimedIngest(fixture, scratch, outcome);
    }
    const CpuClock::time_point start = CpuClock::now();
    std::vector<fbdetect::Regression> reports;
    if (recorder != nullptr) {
      const int64_t span = recorder->Begin("core.run", SpanRecorder::kNoParent, run_id);
      reports = pipeline.RunAt(kService, as_of);
      recorder->End(span);
      AddStageSpans(pipeline.run_traces().back(), span, run_id, *recorder);
    } else {
      reports = pipeline.RunAt(kService, as_of);
    }
    outcome.run_ms.push_back(MsBetween(start, CpuClock::now()));
    outcome.period_s += outcome.run_ms.back() / 1e3;
    for (fbdetect::Regression& report : reports) {
      outcome.ndjson += fbdetect::ToJsonLine(report);
      outcome.ndjson += '\n';
      outcome.reports.push_back(std::move(report));
    }
    ++run_id;
  }
  outcome.groups = pipeline.groups();
  outcome.detector_exceptions = pipeline.quarantine_report().total_exceptions();
  if (recorder != nullptr) {
    outcome.counts = ReadTelemetryCounts(pipeline.telemetry());
  }
  return outcome;
}

void FillAccounting(const Fixture& fixture, const std::vector<PeriodOutcome>& periods,
                    Result& result) {
  const size_t runs = PeriodAsOfs(fixture).size();
  const size_t series = fixture.fleet->db().ListMetrics(kService).size();
  for (const PeriodOutcome& period : periods) {
    result.attempted += fixture.bodies.size() * period.ingest_s.size() + runs * series;
    result.failed += period.detector_exceptions;
    result.errors["detector_exceptions"] += period.detector_exceptions;
    result.errors["rejected_points"] += period.rejected_points;
  }
}

}  // namespace

bool RunOfflinePeriod(const Options& options, Result& result) {
  // Set-up, timed several times; the last fixture is the one measured.
  std::vector<double> setup_s;
  Fixture fixture;
  const int setups = options.trace ? 1 : kSetups;
  for (int i = 0; i < setups; ++i) {
    fixture = Fixture();
    const CpuClock::time_point start = CpuClock::now();
    fixture = BuildFixture(options.seed);
    setup_s.push_back(SecondsSince(start));
  }
  std::fprintf(stderr, "offline_period: %zu bodies, %llu points, %zu series, setup %.2fs\n",
               fixture.bodies.size(), static_cast<unsigned long long>(fixture.points),
               fixture.fleet->db().ListMetrics(kService).size(), setup_s.back());

  std::vector<PeriodOutcome> periods;
  const auto score_first = [&] {
    const Score score = ScoreReports(periods.front().reports, periods.front().groups,
                                     fixture.fleet->ground_truth(), fixture.callers);
    RecordScore(score, result);
  };
  const auto check_repeat = [&](const PeriodOutcome& period) {
    result.Gate(period.ndjson == periods.front().ndjson,
                "offline_period: reports differ between repeats of one seed");
  };

  if (!options.trace) {
    // One untimed period first: the allocator's free lists and the caches
    // fill, so the timed periods all start from the same state.
    periods.push_back(RunOnePeriod(fixture, nullptr, true));
    const Clock::time_point start = Clock::now();
    while (periods.size() < 2 || SecondsSince(start) < options.seconds) {
      periods.push_back(RunOnePeriod(fixture, nullptr, true));
      check_repeat(periods.back());
    }
    score_first();
    std::vector<double> period_s, ingest_pps, ack_ms, run_ms;
    for (size_t i = 1; i < periods.size(); ++i) {
      const PeriodOutcome& period = periods[i];
      period_s.push_back(period.period_s);
      for (const double seconds : period.ingest_s) {
        ingest_pps.push_back(static_cast<double>(fixture.points) / seconds);
      }
      ack_ms.insert(ack_ms.end(), period.ack_ms.begin(), period.ack_ms.end());
      run_ms.insert(run_ms.end(), period.run_ms.begin(), period.run_ms.end());
    }
    FillAccounting(fixture, periods, result);
    result.metrics["setup_s"] = Median(setup_s);
    result.metrics["period_s"] = Median(period_s);
    result.metrics["ingest_pts_per_s"] = Median(ingest_pps);
    result.metrics["ingest_ack_ms_p50"] = Percentile(ack_ms, 0.50);
    result.metrics["run_report_ms_p50"] = Percentile(run_ms, 0.50);
    result.metrics["run_report_ms_p90"] = Percentile(run_ms, 0.90);
    result.metrics["ok_rate"] =
        1.0 - static_cast<double>(result.failed) / static_cast<double>(result.attempted);
    result.metrics["peak_rss_mb"] = PeakRssMb();
    std::fprintf(stderr, "offline_period: %zu reports; period_s", periods.front().reports.size());
    for (const double seconds : period_s) {
      std::fprintf(stderr, " %.3f", seconds);
    }
    std::fprintf(stderr, "\n");
    return true;
  }

  // Traced run: untraced and traced periods alternate so the tracing
  // overhead is measured under the same host conditions.
  SpanRecorder recorder;
  std::vector<double> plain_s, traced_s;
  std::vector<PeriodOutcome> traced;
  for (int i = 0; i < 2; ++i) {
    periods.push_back(RunOnePeriod(fixture, nullptr, false));
    check_repeat(periods.back());
    plain_s.push_back(periods.back().period_s);
    traced.push_back(RunOnePeriod(fixture, &recorder, false));
    periods.push_back(traced.back());
    check_repeat(periods.back());
    traced_s.push_back(traced.back().period_s);
  }
  FillAccounting(fixture, periods, result);
  score_first();

  // Layer replays at every as_of of the period, from outside the pipeline.
  fbdetect::TimeSeriesDatabase db;
  IngestBodies(fixture.bodies, db, nullptr);
  const std::vector<TimePoint> as_ofs = PeriodAsOfs(fixture);
  ReplayScanLayers(db, kService, as_ofs, SimPipelineOptions(false).detection, recorder);

  FillRunLayerMetrics(recorder, traced.front().counts, result);
  FillScanLayerMetrics(recorder, result);
  FillIngestLayerMetrics(traced.front().ingest_layers, result);
  result.metrics["observe.overhead_frac"] = Median(traced_s) / Median(plain_s) - 1.0;
  std::vector<double> ack_ms;
  for (const PeriodOutcome& period : periods) {
    ack_ms.insert(ack_ms.end(), period.ack_ms.begin(), period.ack_ms.end());
  }
  result.metrics["service.ingest_ack_ms_p99"] = Percentile(ack_ms, 0.99);
  result.metrics["error_rate"] =
      static_cast<double>(result.failed) / static_cast<double>(result.attempted);
  result.metrics["tsdb.rejected_points"] = static_cast<double>(periods.front().rejected_points);
  WriteTrace(options, recorder, result);
  return true;
}

}  // namespace perfbench
