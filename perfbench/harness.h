// Shared pieces of the repository benchmark: clocks and percentiles, the
// result record every workload fills, host calibration, ground-truth
// scoring, and the span recorder behind the traced run.
//
// Spans are recorded only from the benchmark's own files, around calls into
// the library's public functions; nothing inside src/ is instrumented.
#ifndef FBDETECT_PERFBENCH_HARNESS_H_
#define FBDETECT_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/core/pairwise_dedup.h"
#include "src/core/regression.h"
#include "src/fleet/events.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

// CPU time of this process (every thread, user + system) as a chrono clock.
// In-process work is timed on it, so time the shared host spends running
// other processes does not count against the program.
struct CpuClock {
  using rep = int64_t;
  using period = std::nano;
  using duration = std::chrono::nanoseconds;
  using time_point = std::chrono::time_point<CpuClock>;
  static constexpr bool is_steady = true;
  static time_point now() noexcept;
};

template <typename TimePoint>
double SecondsSince(TimePoint start) {
  return std::chrono::duration<double>(TimePoint::clock::now() - start).count();
}
template <typename TimePoint>
double MsBetween(TimePoint a, TimePoint b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
template <typename TimePoint>
double NsBetween(TimePoint a, TimePoint b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

// Nearest-rank percentile, q in [0, 1]; 0 for an empty sample.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

// Set-up is repeated this many times in an untraced run and reported as
// the median.
constexpr int kSetups = 5;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string serve_binary;  // fbdetect_serve, for live_ingest.
  std::string work_dir;      // Scratch space inside the checkout.
};

// What one run reports. `metrics` holds the end-to-end set (untraced run)
// or the per-layer set (traced run); units are fixed by name in main.cc.
struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> metrics;
  // Failures by cause, printed beside the result so error_rate is explained.
  std::map<std::string, uint64_t> errors;
  std::vector<std::string> gate_failures;

  void Gate(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      gate_failures.push_back(what);
    }
  }
};

// Peak resident set (VmHWM) of a process, in MiB; `pid` 0 = this process.
double PeakRssMb(int pid = 0);

// Host facts that decide whether two results are comparable.
struct HostInfo {
  unsigned nproc = 0;
  double effective_cores = 0;  // Fixed spin work on nproc threads vs one.
  std::string simd_isa;
  std::string compiler;
  std::string build_type;
};
HostInfo CalibrateHost();
std::string HostJson(const HostInfo& host);

// Ground-truth scoring. Recall uses fbdetect_sim's matching rule: a planted
// true regression is caught when some member of some regression group has
// the planted subroutine as entity and a change time within a day of the
// event's start. A report is true when its group holds a member within a
// day of a planted regression on the planted subroutine or on one of its
// transitive callers, whose inclusive gCPU carries the same step; reports
// explained by no planted regression (transients, cost shifts, noise) are
// false.
struct Score {
  size_t planted = 0;
  size_t caught = 0;
  size_t reports = 0;
  size_t true_reports = 0;
  double recall() const;
  double precision() const;
};
// (service, subroutine) -> the subroutine's transitive callers.
using CallerMap = std::map<std::pair<std::string, std::string>, std::set<std::string>>;
Score ScoreReports(const std::vector<fbdetect::Regression>& reports,
                   const std::vector<fbdetect::RegressionGroup>& groups,
                   const std::vector<fbdetect::InjectedEvent>& planted,
                   const CallerMap& callers);
// Records core.recall / core.precision and gates on at least one planted
// regression being caught.
void RecordScore(const Score& score, Result& result);

// Spans of the traced run: name, start, end, parent, run id. Kept in memory
// and written out once when the run ends.
class SpanRecorder {
 public:
  static constexpr int64_t kNoParent = -1;

  // Opens a span now; returns its id.
  int64_t Begin(const std::string& name, int64_t parent, int64_t run_id);
  void End(int64_t id);
  // Records a span whose interval is already known (children laid out from
  // the pipeline's per-run stage sums).
  int64_t Add(const std::string& name, int64_t parent, int64_t run_id, double start_ns,
              double end_ns);
  double StartNs(int64_t id) const { return spans_[static_cast<size_t>(id)].start_ns; }

  // Per name: calls, total duration and total self time (duration minus the
  // union of its children's intervals), in nanoseconds.
  struct NameTotals {
    uint64_t calls = 0;
    double total_ns = 0;
    double self_ns = 0;
  };
  std::map<std::string, NameTotals> Totals() const;
  // Self time of each span, indexed by span id.
  std::vector<double> SelfTimes() const;
  // For every span called `name`: its duration and the summed durations of
  // its direct children, in nanoseconds.
  std::vector<std::pair<double, double>> DurationAndChildSum(const std::string& name) const;
  size_t size() const { return spans_.size(); }

  // Writes every span as one JSON array; returns false on I/O failure.
  bool Write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    int64_t parent = kNoParent;
    int64_t run_id = 0;
    double start_ns = 0;
    double end_ns = 0;
  };
  double NowNs() const;

  std::vector<Span> spans_;
  Clock::time_point origin_ = Clock::now();
};

// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const std::string& name, int64_t parent, int64_t run_id)
      : recorder_(recorder), id_(recorder.Begin(name, parent, run_id)) {}
  ~ScopedSpan() { recorder_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t id() const { return id_; }

 private:
  SpanRecorder& recorder_;
  int64_t id_;
};

// Workload entry points. Each fills `result` and returns false only when it
// could not run at all.
bool RunOfflinePeriod(const Options& options, Result& result);
bool RunLiveIngest(const Options& options, Result& result);

}  // namespace perfbench

#endif  // FBDETECT_PERFBENCH_HARNESS_H_
