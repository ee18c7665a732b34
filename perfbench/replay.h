// Layer timing from outside the library: ingest of wire bodies through the
// public parse/commit/seal calls, replays of the scan stages on every series
// at every as_of, and the conversion of the pipeline's own telemetry export
// (in-process registry or a server's /telemetry JSON) into per-layer
// metrics.
#ifndef FBDETECT_PERFBENCH_REPLAY_H_
#define FBDETECT_PERFBENCH_REPLAY_H_

#include <map>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "src/core/workload_config.h"
#include "src/observe/telemetry.h"
#include "src/tracing/trace.h"
#include "src/tsdb/database.h"

namespace perfbench {

// Parses each body with ParseWireBatch and commits it as one WriteBatch (the
// server's ingest-worker path without HTTP), timed on the CPU clock.
// `ack_ms`, when set, receives each body's parse + commit time.
struct IngestTimings {
  uint64_t bodies = 0;
  uint64_t points = 0;
  double parse_ns = 0;
  double commit_ns = 0;
  uint64_t parse_failures = 0;
};
IngestTimings IngestBodies(const std::vector<std::string>& bodies,
                           fbdetect::TimeSeriesDatabase& db, std::vector<double>* ack_ms);

// Counters and histogram (count, sum) pairs of a telemetry export.
struct TelemetryCounts {
  std::map<std::string, double> counters;
  std::map<std::string, std::pair<double, double>> histograms;
  std::map<std::string, std::vector<std::pair<double, double>>> buckets;  // (upper, count)

  double Counter(const std::string& name) const;
  double HistogramSum(const std::string& name) const;
  double HistogramCount(const std::string& name) const;
  // Quantile estimated from the power-of-two buckets (linear within one).
  double HistogramQuantile(const std::string& name, double q) const;
};
TelemetryCounts ReadTelemetryCounts(const fbdetect::TelemetryRegistry& registry);
TelemetryCounts ParseTelemetryJson(const std::string& json);

// Lays the pipeline's per-run stage times (one Trace per RunAt) out as child
// spans of `run_span`: scan stages under a core.scan span, funnel stages
// after it, each sequential from its parent's start.
void AddStageSpans(const fbdetect::Trace& trace, int64_t run_span, int64_t run_id,
                   SpanRecorder& recorder);

// Replays the per-series scan on every series of `service` at every as_of:
// window extraction, change-point, went-away and seasonality stages, the
// long-term detector, and the long-term detector's sub-steps (ACF
// seasonality, STL, line fit) called one by one on the same window.
void ReplayScanLayers(const fbdetect::TimeSeriesDatabase& db, const std::string& service,
                      const std::vector<fbdetect::TimePoint>& as_ofs,
                      const fbdetect::DetectionConfig& config, SpanRecorder& recorder);

// Per-layer metrics of the detection pipeline: core.* stage times from the
// core.run spans when the recorder has them (in-process runs), otherwise
// from the stage histograms of `counts` (a server's export); counts and
// ratios from `counts`.
void FillRunLayerMetrics(const SpanRecorder& recorder, const TelemetryCounts& counts,
                         Result& result);
// core/stats/tsa/tsdb per-series metrics from ReplayScanLayers spans.
void FillScanLayerMetrics(const SpanRecorder& recorder, Result& result);
void FillIngestLayerMetrics(const IngestTimings& timings, Result& result);

// Ingest and storage-tier costs measured on an in-process replay of a
// workload's bodies: parse and commit into a memory-only database, and the
// same commits into one with the durable tier on (fsync off, so the
// difference is the WAL's CPU cost), with SealBefore every `seal_every`
// points.
void FillStorageLayerMetrics(const std::vector<std::string>& bodies, uint64_t seal_every,
                             const std::string& durable_dir, Result& result);

// Writes the spans under the work directory and prints the self-time report.
void WriteTrace(const Options& options, const SpanRecorder& recorder, Result& result);

}  // namespace perfbench

#endif  // FBDETECT_PERFBENCH_REPLAY_H_
