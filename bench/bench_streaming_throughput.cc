// Generation-gated scan harness (DESIGN §14). Writes BENCH_streaming.json.
//
// Two measurements:
//   1. Gated vs batch periodic rescan at a 1% dirty-series rate: one shared
//      database, per round append one fresh point to 1% of the series and
//      re-run detection at an advanced as_of on (a) a kBatch pipeline (the
//      oracle, re-evaluating every series) and (b) a kGated pipeline
//      (re-evaluating dirty series, replaying cached verdicts for the rest).
//      The acceptance bar (checked off-smoke) is >= 5x batch/gated.
//   2. Whole-run short-circuit cost: a gated RunAt over an unchanged
//      database, nanoseconds per call.
//
// `--smoke` shrinks every dimension so CI can exercise the full harness in
// seconds; the JSON notes which mode produced it.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/check.h"
#include "src/common/random.h"
#include "src/common/sim_time.h"
#include "src/core/pipeline.h"
#include "src/tsdb/database.h"
#include "src/tsdb/metric_id.h"

namespace fbdetect {
namespace {

constexpr Duration kTick = Minutes(10);

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

PipelineOptions DetectOptions(ScanMode mode) {
  PipelineOptions options;
  options.detection.threshold = 0.0005;
  options.detection.windows.historical = Days(1);
  options.detection.windows.analysis = Hours(4);
  options.detection.windows.extended = Hours(2);
  options.detection.rerun_interval = Hours(3);
  options.scan_threads = 1;
  options.scan_mode = mode;
  return options;
}

std::vector<InternedMetricId> MakeSeries(TimeSeriesDatabase& db, size_t count) {
  std::vector<InternedMetricId> ids;
  ids.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    ids.push_back(db.Intern(
        MetricId{"svc", MetricKind::kGcpu, "subroutine_" + std::to_string(i), ""}));
  }
  return ids;
}

// Noisy history for every series over (0, end], one value per tick.
void IngestHistory(TimeSeriesDatabase& db, const std::vector<InternedMetricId>& ids,
                   TimePoint end, uint64_t seed) {
  Rng rng(seed);
  WriteBatch batch(&db);
  for (const InternedMetricId& id : ids) {
    for (TimePoint t = kTick; t <= end; t += kTick) {
      batch.Add(id, t, rng.Normal(0.05, 0.002));
      if (batch.point_count() >= 8192) {
        batch.Commit();
      }
    }
  }
  batch.Commit();
}

}  // namespace
}  // namespace fbdetect

int main(int argc, char** argv) {
  using namespace fbdetect;

  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") {
      smoke = true;
    }
  }

  PrintHeader(std::string("Generation-gated scan: gated re-runs and run short-circuits") +
              (smoke ? " [smoke]" : ""));

  // --- 1. Gated vs batch periodic rescan at 1% dirty ---------------------
  const size_t num_series = smoke ? 1000 : 10000;
  const size_t dirty_per_round = std::max<size_t>(1, num_series / 100);
  const int rounds = smoke ? 3 : 6;
  // First run at T0; clean series keep data through T0 + rounds ticks so an
  // advancing as_of never makes them look early-ended (which would change
  // what the batch oracle measures).
  const TimePoint first_run = Hours(31);
  const TimePoint history_end = first_run + rounds * kTick;

  std::printf("\n[1] periodic rescan: %zu series, %zu dirty per round (%.1f%%), %d rounds\n",
              num_series, dirty_per_round,
              100.0 * static_cast<double>(dirty_per_round) / static_cast<double>(num_series),
              rounds);

  TimeSeriesDatabase db;
  const std::vector<InternedMetricId> ids = MakeSeries(db, num_series);
  IngestHistory(db, ids, history_end, /*seed=*/42);

  Pipeline batch(&db, nullptr, nullptr, DetectOptions(ScanMode::kBatch));
  Pipeline gated(&db, nullptr, nullptr, DetectOptions(ScanMode::kGated));

  // Warm-up run: both pipelines see every series dirty; the gated pipeline
  // fills its verdict cache. Untimed.
  batch.RunAt("svc", first_run);
  gated.RunAt("svc", first_run);

  Rng dirty_rng(7);
  double batch_ms = 0.0;
  double gated_ms = 0.0;
  for (int round = 1; round <= rounds; ++round) {
    const TimePoint as_of = first_run + round * kTick;
    // Touch the round's 1% slice (rotating so rounds do not reuse one slice).
    WriteBatch touch(&db);
    const size_t first = (static_cast<size_t>(round) * dirty_per_round) % num_series;
    for (size_t i = 0; i < dirty_per_round; ++i) {
      touch.Add(ids[(first + i) % num_series], history_end + round * kTick,
                dirty_rng.Normal(0.05, 0.002));
    }
    touch.Commit();

    const auto batch_start = std::chrono::steady_clock::now();
    batch.RunAt("svc", as_of);
    batch_ms += MillisSince(batch_start);

    const auto gated_start = std::chrono::steady_clock::now();
    gated.RunAt("svc", as_of);
    gated_ms += MillisSince(gated_start);
  }
  const double batch_per_run = batch_ms / rounds;
  const double gated_per_run = gated_ms / rounds;
  const double speedup = batch_per_run / gated_per_run;
  std::printf("    batch  (re-evaluate all):  %8.2f ms/run\n", batch_per_run);
  std::printf("    gated  (1%% re-evaluated):  %8.2f ms/run\n", gated_per_run);
  std::printf("    speedup (batch/gated):     %8.2fx\n", speedup);
  if (!smoke) {
    FBD_CHECK(speedup >= 5.0);  // The PR's acceptance bar.
  }

  // --- 2. Whole-run short-circuit cost -----------------------------------
  // No writes since the last gated run: the run is skipped wholesale.
  const int short_circuit_reps = 1000;
  const auto sc_start = std::chrono::steady_clock::now();
  for (int i = 0; i < short_circuit_reps; ++i) {
    gated.RunAt("svc", first_run + (rounds + 1) * kTick);
  }
  const double short_circuit_ns =
      MillisSince(sc_start) * 1e6 / static_cast<double>(short_circuit_reps);
  std::printf("\n[2] short-circuited re-run (unchanged generation): %.0f ns/run\n",
              short_circuit_ns);

  // --- JSON ---------------------------------------------------------------
  FILE* json = std::fopen("BENCH_streaming.json", "w");
  FBD_CHECK(json != nullptr);
  std::fprintf(json, "{\n");
  WriteHardwareJson(json);
  std::fprintf(json, ",\n");
  std::fprintf(json, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(json, "  \"gated_rescan\": {\n");
  std::fprintf(json, "    \"series\": %zu, \"dirty_per_round\": %zu, \"rounds\": %d,\n",
               num_series, dirty_per_round, rounds);
  std::fprintf(json, "    \"batch_ms_per_run\": %.3f,\n", batch_per_run);
  std::fprintf(json, "    \"gated_ms_per_run\": %.3f,\n", gated_per_run);
  std::fprintf(json, "    \"speedup\": %.2f\n", speedup);
  std::fprintf(json, "  },\n");
  std::fprintf(json, "  \"short_circuit_ns_per_run\": %.0f\n", short_circuit_ns);
  std::fprintf(json, "}\n");
  std::fclose(json);
  std::printf("\nwrote BENCH_streaming.json\n");
  return 0;
}
