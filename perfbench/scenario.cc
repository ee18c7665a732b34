#include "perfbench/scenario.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

using fbdetect::EventKind;
using fbdetect::NodeId;
using fbdetect::TimePoint;

namespace {

// `n` evenly spaced quantiles (k + 0.5) / n in an order the seed shuffles.
// The k-th event of a kind takes the k-th entry, so every seed plants the
// same mix of sizes and durations and only which event gets which differs.
std::vector<double> Strata(int n, fbdetect::Rng& rng) {
  std::vector<double> strata;
  for (int k = 0; k < n; ++k) {
    strata.push_back((k + 0.5) / n);
  }
  for (size_t i = strata.size(); i > 1; --i) {
    std::swap(strata[i - 1], strata[rng.NextUint64(i)]);
  }
  return strata;
}

}  // namespace

std::vector<PlannedEvent> PlanEvents(const fbdetect::ServiceSimulator& service,
                                     const EventPlan& plan, fbdetect::Rng& rng) {
  const fbdetect::CallGraph& graph = service.graph();
  const std::vector<double> reach = graph.ReachProbabilities();
  constexpr double kMinMagnitude = 0.3;
  constexpr double kMaxMagnitude = 0.8;
  // Leaves whose smallest planted step still clears 4x the threshold.
  std::vector<NodeId> leaves;
  for (size_t i = 0; i < reach.size(); ++i) {
    const NodeId id = static_cast<NodeId>(i);
    if (graph.edges(id).empty() && reach[i] * kMinMagnitude >= 4 * plan.threshold &&
        reach[i] < 0.15) {
      leaves.push_back(id);
    }
  }
  for (size_t i = leaves.size(); i > 1; --i) {
    std::swap(leaves[i - 1], leaves[rng.NextUint64(i)]);
  }
  size_t next_leaf = 0;
  const auto take_leaf = [&]() -> const std::string& {
    return graph.node(leaves[next_leaf++ % std::max<size_t>(1, leaves.size())]).name;
  };
  const auto uniform_time = [&](TimePoint lo, TimePoint hi) {
    return lo + static_cast<TimePoint>(rng.NextUint64(static_cast<uint64_t>(hi - lo)));
  };
  const auto culprit = [&](const std::string& subroutine, TimePoint start) {
    fbdetect::Commit commit;
    commit.type = fbdetect::ChangeType::kCode;
    commit.service = service.config().name;
    commit.time = start - fbdetect::Minutes(5);
    commit.title = "Change " + subroutine;
    commit.description = "Touches " + subroutine + ".";
    commit.touched_subroutines = {subroutine};
    return commit;
  };

  const std::vector<double> regression_size = Strata(plan.regressions, rng);
  const std::vector<double> shift_size = Strata(plan.cost_shifts, rng);
  const std::vector<double> transient_kind = Strata(plan.transients, rng);
  const std::vector<double> transient_length = Strata(plan.transients, rng);
  const std::vector<double> transient_size = Strata(plan.transients, rng);
  std::vector<PlannedEvent> events;
  for (int i = 0; i < plan.regressions && next_leaf < leaves.size(); ++i) {
    PlannedEvent p;
    p.event.kind = EventKind::kStepRegression;
    p.event.service = service.config().name;
    p.event.subroutine = take_leaf();
    p.event.start = uniform_time(plan.regress_lo, plan.regress_hi);
    p.event.magnitude = kMinMagnitude + (kMaxMagnitude - kMinMagnitude) * regression_size[i];
    p.has_commit = true;
    p.commit = culprit(p.event.subroutine, p.event.start);
    events.push_back(std::move(p));
  }
  for (int i = 0; i < plan.cost_shifts && next_leaf < leaves.size(); ++i) {
    PlannedEvent p;
    p.event.kind = EventKind::kCostShift;
    p.event.service = service.config().name;
    p.event.subroutine = take_leaf();
    const NodeId target = graph.FindByName(p.event.subroutine);
    std::vector<NodeId> siblings = graph.NodesInClass(graph.node(target).class_name);
    std::erase(siblings, target);
    if (siblings.empty()) {
      continue;
    }
    p.event.shift_source = graph.node(siblings[rng.NextUint64(siblings.size())]).name;
    p.event.start = uniform_time(plan.noise_lo, plan.noise_hi);
    p.event.magnitude = 0.3 + 0.6 * shift_size[i];  // Share of the source's cost moved.
    p.has_commit = true;
    p.commit = culprit(p.event.subroutine, p.event.start);
    events.push_back(std::move(p));
  }
  for (int i = 0; i < plan.transients; ++i) {
    PlannedEvent p;
    p.event.kind = EventKind::kTransientIssue;
    p.event.transient_kind = static_cast<fbdetect::TransientKind>(6 * transient_kind[i]);
    p.event.service = service.config().name;
    if (p.event.transient_kind == fbdetect::TransientKind::kCanaryTest ||
        p.event.transient_kind == fbdetect::TransientKind::kTrafficShift) {
      p.event.subroutine = take_leaf();
    }
    p.event.start = uniform_time(plan.noise_lo, plan.noise_hi);
    p.event.duration =
        fbdetect::Minutes(20) +
        static_cast<fbdetect::Duration>(static_cast<double>(fbdetect::Hours(6)) *
                                        transient_length[i]);
    p.event.magnitude =
        std::exp(std::log(0.05) + (std::log(0.5) - std::log(0.05)) * transient_size[i]);
    events.push_back(std::move(p));
  }
  std::sort(events.begin(), events.end(), [](const PlannedEvent& a, const PlannedEvent& b) {
    return a.event.start < b.event.start;
  });
  return events;
}

void AddCallers(const fbdetect::ServiceSimulator& service,
                const std::vector<PlannedEvent>& events, CallerMap& callers) {
  const fbdetect::CallGraph& graph = service.graph();
  for (const PlannedEvent& planned : events) {
    if (!planned.event.IsTrueRegression()) {
      continue;
    }
    std::set<std::string>& names = callers[{service.config().name, planned.event.subroutine}];
    std::vector<NodeId> frontier = {graph.FindByName(planned.event.subroutine)};
    while (!frontier.empty()) {
      const NodeId node = frontier.back();
      frontier.pop_back();
      for (const NodeId caller : graph.CallersOf(node)) {
        if (names.insert(graph.node(caller).name).second) {
          frontier.push_back(caller);
        }
      }
    }
  }
}

}  // namespace perfbench
