// perfbench — the repository benchmark.
//
//   perfbench --workload offline_period|live_ingest --seed N
//             --seconds S --trace 0|1 --serve PATH --work-dir DIR
//
// Runs one workload (see perfbench/README.md), checks its outputs, and
// prints one JSON result as the last line of stdout: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. Exits 1 when a
// correctness gate fails (after printing the result with "correct": false)
// and 2 on bad arguments.
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/harness.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every end-to-end metric, reported by every workload with tracing off.
const MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"period_s", "s"},
    {"ingest_pts_per_s", "1/s"},
    {"ingest_ack_ms_p50", "ms"},
    {"run_report_ms_p50", "ms"},
    {"run_report_ms_p90", "ms"},
    {"ok_rate", "ratio"},
    {"peak_rss_mb", "MiB"},
};

// Every per-layer metric, reported by every workload's traced run; a layer
// that does no work on a workload reports 0.
const MetricSpec kPerLayer[] = {
    {"core.run_ms_p50", "ms"},
    {"core.scan_ms_per_run", "ms"},
    {"core.funnel_ms_per_run", "ms"},
    {"core.change_point_us_per_series", "us"},
    {"core.went_away_us_per_call", "us"},
    {"core.seasonality_us_per_call", "us"},
    {"core.long_term_us_per_series", "us"},
    {"core.fingerprint_ms_per_run", "ms"},
    {"core.same_regression_merger_ms_per_run", "ms"},
    {"core.som_dedup_ms_per_run", "ms"},
    {"core.cost_shift_ms_per_run", "ms"},
    {"core.pairwise_dedup_ms_per_run", "ms"},
    {"core.root_cause_ms_per_run", "ms"},
    {"core.series_evaluated", "count"},
    {"core.change_point_out", "count"},
    {"core.long_term_out", "count"},
    {"core.threshold_out", "count"},
    {"core.reported", "count"},
    {"core.long_term_pass_frac", "ratio"},
    {"core.reported_per_series", "ratio"},
    {"core.recall", "ratio"},
    {"core.precision", "ratio"},
    {"core.run_residual_frac", "ratio"},
    {"core.long_term_residual_frac", "ratio"},
    {"stats.acf_us_per_series", "us"},
    {"tsa.stl_us_per_series", "us"},
    {"stats.fit_line_us_per_series", "us"},
    {"tsdb.window_us_per_series", "us"},
    {"tsdb.commit_ns_per_point", "ns"},
    {"tsdb.wal_cpu_ns_per_point", "ns"},
    {"tsdb.seal_ms_per_call", "ms"},
    {"tsdb.sealed_bytes_per_point", "bytes"},
    {"tsdb.wal_bytes_per_point", "bytes"},
    {"tsdb.rejected_points", "count"},
    {"service.http_parse_us_per_request", "us"},
    {"service.wire_parse_ns_per_point", "ns"},
    {"service.points_per_commit", "count"},
    {"service.parse_queue_peak_points", "count"},
    {"service.ingest_queue_peak_points", "count"},
    {"service.shed_frac", "ratio"},
    {"service.run_ms_p50", "ms"},
    {"service.run_overhead_ms_mean", "ms"},
    {"service.ingest_ack_ms_p99", "ms"},
    {"observe.overhead_frac", "ratio"},
    {"loadgen.effective_cores", "cores"},
    {"error_rate", "ratio"},
};

bool ParseArgs(int argc, char** argv, Options& options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--serve") {
      options.serve_binary = value;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return !options.workload.empty() && options.seconds > 0 && !options.work_dir.empty();
}

// Moves this process, and so every thread and child it starts later (the
// fbdetect_serve child inherits the mask), onto the first CPU it may use.
// The share of physical cores a shared VM gets swings over minutes
// (effective_cores has read from 1.0 to 3.7 of 4 vCPUs); on one CPU the
// handoffs between client, event-loop, parse and ingest threads are local
// context switches, and a result does not depend on how many cores the host
// lent at the time. Calibration runs before, on every CPU.
void PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    return;
  }
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      (void)::sched_setaffinity(0, sizeof(one), &one);
      return;
    }
  }
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out;
}

int Main(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, options)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "--serve PATH --work-dir DIR\n");
    return 2;
  }
  std::filesystem::create_directories(options.work_dir);
  const HostInfo host = CalibrateHost();
  PinToOneCpu();

  Result result;
  bool ran = false;
  if (options.workload == "offline_period") {
    ran = RunOfflinePeriod(options, result);
  } else if (options.workload == "live_ingest") {
    ran = RunLiveIngest(options, result);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", options.workload.c_str());
    return 2;
  }
  if (!ran) {
    std::fprintf(stderr, "perfbench: %s could not run\n", options.workload.c_str());
    return 1;
  }
  if (options.trace) {
    result.metrics["loadgen.effective_cores"] = host.effective_cores;
  }
  result.attempted = std::max<uint64_t>(result.attempted, 1);

  // Metadata lines first; the result is the last line.
  std::printf("{\"host\": %s}\n", HostJson(host).c_str());
  std::string errors = "{";
  for (const auto& [cause, count] : result.errors) {
    errors += (errors.size() > 1 ? ", \"" : "\"") + cause + "\": " + std::to_string(count);
  }
  std::printf("{\"errors\": %s, \"gate_failures\": [", (errors + "}").c_str());
  for (size_t i = 0; i < result.gate_failures.size(); ++i) {
    std::printf("%s\"%s\"", i == 0 ? "" : ", ", JsonEscape(result.gate_failures[i]).c_str());
  }
  std::printf("]}\n");
  for (const std::string& failure : result.gate_failures) {
    std::fprintf(stderr, "GATE FAILED: %s\n", failure.c_str());
  }

  std::string line = "{\"correct\": " + std::string(result.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(result.attempted) +
                     ", \"failed\": " + std::to_string(result.failed) + ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](const MetricSpec& spec) {
    const auto it = result.metrics.find(spec.name);
    double value = it == result.metrics.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) {
      value = 0;
    }
    char buffer[256];
    std::snprintf(buffer, sizeof(buffer), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", spec.name, value, spec.unit);
    line += buffer;
    first = false;
  };
  if (options.trace) {
    for (const MetricSpec& spec : kPerLayer) {
      emit(spec);
    }
  } else {
    for (const MetricSpec& spec : kEndToEnd) {
      emit(spec);
    }
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
