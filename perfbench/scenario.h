// Planted-event scenarios shared by offline_period and live_ingest.
//
// Step regressions go only on leaf subroutines whose expected gCPU change
// (reach x magnitude) is at least four times the detection threshold, and
// only inside the span the re-runs can report. Every planted regression is
// therefore detectable by design, so recall and precision measure the
// pipeline, not how the seed happened to place events. Cost shifts and
// transients ride along as the false-positive sources the funnel must
// reject.
#ifndef FBDETECT_PERFBENCH_SCENARIO_H_
#define FBDETECT_PERFBENCH_SCENARIO_H_

#include <vector>

#include "perfbench/harness.h"
#include "src/common/random.h"
#include "src/fleet/change_log.h"
#include "src/fleet/events.h"
#include "src/fleet/service.h"

namespace perfbench {

// Simulator seed of the first monitored service (call graph, load and
// profiler noise); further services use the next seeds. These are the same
// for every benchmark seed, which draws only the incident history planted
// into them: with one code base, the work per run depends on what the seed
// plants, not on which call graph the seed happened to generate.
constexpr uint64_t kServiceSeed = 1;

struct EventPlan {
  int regressions = 0;
  int cost_shifts = 0;
  int transients = 0;
  double threshold = 0;  // Absolute gCPU threshold of the pipeline.
  // Regressions start in [regress_lo, regress_hi); cost shifts and
  // transients in [noise_lo, noise_hi).
  fbdetect::TimePoint regress_lo = 0;
  fbdetect::TimePoint regress_hi = 0;
  fbdetect::TimePoint noise_lo = 0;
  fbdetect::TimePoint noise_hi = 0;
};

struct PlannedEvent {
  fbdetect::InjectedEvent event;
  bool has_commit = false;
  fbdetect::Commit commit;
};

// Adds every planted regression's transitive callers to `callers`.
void AddCallers(const fbdetect::ServiceSimulator& service,
                const std::vector<PlannedEvent>& events, CallerMap& callers);

// Events for `service`, sorted by start time. The seed picks subroutines,
// start times and which event gets which size; sizes, durations and
// transient kinds are stratified over their ranges, so every seed plants
// the same mix.
std::vector<PlannedEvent> PlanEvents(const fbdetect::ServiceSimulator& service,
                                     const EventPlan& plan, fbdetect::Rng& rng);

}  // namespace perfbench

#endif  // FBDETECT_PERFBENCH_SCENARIO_H_
