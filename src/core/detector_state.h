// Per-series verdict cache for the generation-gated scan (DESIGN §14).
//
// In ScanMode::kGated the pipeline re-runs the full ExtractWindowView →
// OrientWindows → ChangePointStage/LongTerm flow for a series whenever its
// TSDB version moved, and replays the cached SeriesVerdict when it did not.
// Because the evaluation is exactly the batch flow, gated output is
// byte-identical to the batch oracle whenever every series is dirty at a run
// (live-ingest steady state).
//
// DetectorStateStore owns one verdict per scanned series, lock-striped by
// InternedMetricIdHash. Verdict slots are accessed without the stripe lock
// under the scan-phase discipline: the pipeline visits each series exactly
// once per re-run and never scans concurrently with ingest.
#ifndef FBDETECT_SRC_CORE_DETECTOR_STATE_H_
#define FBDETECT_SRC_CORE_DETECTOR_STATE_H_

#include <array>
#include <cstdint>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "src/common/sim_time.h"
#include "src/core/funnel_stats.h"
#include "src/core/regression.h"
#include "src/core/sanitizer.h"
#include "src/tsdb/metric_id.h"

namespace fbdetect {

// Every deterministic pipeline.* counter one series' evaluation can touch,
// recorded once at evaluation time and re-applied verbatim when the cached
// verdict is replayed — this is what keeps the telemetry reconciliation
// invariants (e.g. series_in == no_data + decode_failures + quarantined +
// change_point.in) exact in gated mode.
struct SeriesScanEvents {
  uint16_t series_no_data = 0;
  uint16_t decode_failures = 0;
  uint16_t windows_flagged = 0;
  uint16_t windows_quarantined = 0;
  int8_t sanitizer_verdict = -1;  // QualityVerdict index, -1 = unobserved.
  uint16_t detector_exceptions = 0;
  uint16_t change_point_in = 0;
  uint16_t change_point_out = 0;
  uint16_t went_away_in = 0;
  uint16_t went_away_out = 0;
  uint16_t seasonality_in = 0;
  uint16_t seasonality_out = 0;
  uint16_t threshold_in = 0;
  uint16_t threshold_out = 0;
  uint16_t long_term_in = 0;
  uint16_t long_term_out = 0;
  uint16_t long_term_screened = 0;
};

// Cached outcome of evaluating one series at one re-run. The cache key is
// the pair (series version, as-of) — a verdict is replayed only while the
// series version is unchanged; any stored append, seal, or retention trim
// bumps the version and forces re-evaluation. Replaying across a shifted
// as-of is the documented gated approximation: window boundaries are pure
// functions of as_of, so a clean series' batch verdict could legitimately
// differ at a new as_of; gated mode trades that recomputation away and
// guarantees byte-identity whenever the series is dirty at the run.
struct SeriesVerdict {
  bool valid = false;
  uint64_t version = 0;  // TimeSeriesDatabase::SeriesVersion at evaluation.
  TimePoint as_of = 0;   // Re-run the verdict was computed for.
  std::vector<Regression> survivors;            // 0..2 (short + long path).
  FunnelStats short_delta;                      // Scan-stage funnel deltas.
  FunnelStats long_delta;
  std::vector<QuarantineRecord> quarantine;     // Records emitted, if any.
  SeriesScanEvents events;
};

// One cached SeriesVerdict per scanned series, lock-striped by
// InternedMetricIdHash. See the file comment for the locking contract.
class DetectorStateStore {
 public:
  // The verdict slot for `id`, created if absent. Thread-safe (stripe lock
  // held only for the map operation); the returned reference is stable.
  SeriesVerdict& VerdictFor(const InternedMetricId& id);

 private:
  struct Stripe {
    std::shared_mutex mutex;
    std::unordered_map<InternedMetricId, SeriesVerdict, InternedMetricIdHash> verdicts;
  };
  static constexpr size_t kStripes = 16;

  std::array<Stripe, kStripes> stripes_;
};

}  // namespace fbdetect

#endif  // FBDETECT_SRC_CORE_DETECTOR_STATE_H_
