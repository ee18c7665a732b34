#include "perfbench/harness.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <thread>

#include "src/common/simd.h"

namespace perfbench {

CpuClock::time_point CpuClock::now() noexcept {
  timespec now{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return time_point(duration(int64_t{now.tv_sec} * 1'000'000'000 + now.tv_nsec));
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(rank == 0 ? 0 : rank - 1, values.size() - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0;
  }
  double sum = 0;
  for (double v : values) {
    sum += v;
  }
  return sum / static_cast<double>(values.size());
}

double PeakRssMb(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB.
    }
  }
  return 0;
}

namespace {

// Fixed integer work, opaque to the optimizer.
uint64_t Spin(uint64_t iterations) {
  uint64_t x = 0x9E3779B97F4A7C15ull;
  for (uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

}  // namespace

HostInfo CalibrateHost() {
  HostInfo host;
  host.nproc = std::max(1u, std::thread::hardware_concurrency());
  constexpr uint64_t kWork = 20'000'000;
  std::atomic<uint64_t> sink{0};
  // One thread alone, then nproc threads each doing the same work: with N
  // truly free cores both take the same time and the ratio is N.
  const Clock::time_point solo_start = Clock::now();
  sink += Spin(kWork);
  const double solo = SecondsSince(solo_start);
  const Clock::time_point team_start = Clock::now();
  std::vector<std::thread> team;
  for (unsigned t = 0; t < host.nproc; ++t) {
    team.emplace_back([&sink] { sink += Spin(kWork); });
  }
  for (std::thread& thread : team) {
    thread.join();
  }
  const double together = SecondsSince(team_start);
  host.effective_cores =
      together > 0 ? static_cast<double>(host.nproc) * solo / together : 0;
  host.simd_isa = fbdetect::simd::IsaName(fbdetect::simd::ActiveIsa());
#if defined(__clang__)
  host.compiler = "clang " __clang_version__;
#else
  host.compiler = "gcc " __VERSION__;
#endif
  host.build_type = FBD_BUILD_TYPE;
  return host;
}

std::string HostJson(const HostInfo& host) {
  char buffer[512];
  std::snprintf(buffer, sizeof(buffer),
                "{\"nproc\": %u, \"effective_cores\": %.3f, \"simd_isa\": \"%s\", "
                "\"compiler\": \"%s\", \"build_type\": \"%s\"}",
                host.nproc, host.effective_cores, host.simd_isa.c_str(),
                host.compiler.c_str(), host.build_type.c_str());
  return buffer;
}

double Score::recall() const {
  return planted == 0 ? 1.0 : static_cast<double>(caught) / static_cast<double>(planted);
}

double Score::precision() const {
  return reports == 0 ? 1.0
                      : static_cast<double>(true_reports) / static_cast<double>(reports);
}

Score ScoreReports(const std::vector<fbdetect::Regression>& reports,
                   const std::vector<fbdetect::RegressionGroup>& groups,
                   const std::vector<fbdetect::InjectedEvent>& planted,
                   const CallerMap& callers) {
  const auto near = [](const fbdetect::Regression& member, const fbdetect::InjectedEvent& event) {
    return member.metric.service == event.service &&
           std::llabs(static_cast<long long>(member.change_time - event.start)) <=
               static_cast<long long>(fbdetect::Days(1));
  };
  const auto explained = [&](const fbdetect::Regression& member,
                             const fbdetect::InjectedEvent& event) {
    if (!near(member, event) || member.metric.kind != fbdetect::MetricKind::kGcpu) {
      return false;
    }
    if (member.metric.entity == event.subroutine) {
      return true;
    }
    const auto it = callers.find({event.service, event.subroutine});
    return it != callers.end() && it->second.count(member.metric.entity) > 0;
  };
  const auto group_explained = [&](const fbdetect::RegressionGroup& group) {
    for (const fbdetect::Regression& member : group.members) {
      for (const fbdetect::InjectedEvent& event : planted) {
        if (event.IsTrueRegression() && explained(member, event)) {
          return true;
        }
      }
    }
    return false;
  };
  Score score;
  for (const fbdetect::InjectedEvent& event : planted) {
    if (!event.IsTrueRegression()) {
      continue;
    }
    ++score.planted;
    bool caught = false;
    for (const fbdetect::RegressionGroup& group : groups) {
      for (const fbdetect::Regression& member : group.members) {
        caught = caught || (near(member, event) && member.metric.entity == event.subroutine);
      }
    }
    score.caught += caught ? 1 : 0;
  }
  for (const fbdetect::Regression& report : reports) {
    ++score.reports;
    for (const fbdetect::RegressionGroup& group : groups) {
      const fbdetect::Regression& head = group.members.front();
      if (head.metric == report.metric && head.change_time == report.change_time &&
          head.long_term == report.long_term) {
        score.true_reports += group_explained(group) ? 1 : 0;
        break;
      }
    }
  }
  return score;
}

void RecordScore(const Score& score, Result& result) {
  result.metrics["core.recall"] = score.recall();
  result.metrics["core.precision"] = score.precision();
  result.Gate(score.caught > 0, "no planted regression was detected");
  std::fprintf(stderr, "score: %zu/%zu planted caught, %zu/%zu reports explained\n",
               score.caught, score.planted, score.true_reports, score.reports);
}

double SpanRecorder::NowNs() const {
  return std::chrono::duration<double, std::nano>(Clock::now() - origin_).count();
}

int64_t SpanRecorder::Begin(const std::string& name, int64_t parent, int64_t run_id) {
  const double now = NowNs();
  return Add(name, parent, run_id, now, now);
}

void SpanRecorder::End(int64_t id) { spans_[static_cast<size_t>(id)].end_ns = NowNs(); }

int64_t SpanRecorder::Add(const std::string& name, int64_t parent, int64_t run_id,
                          double start_ns, double end_ns) {
  spans_.push_back(Span{name, parent, run_id, start_ns, end_ns});
  return static_cast<int64_t>(spans_.size()) - 1;
}

std::vector<double> SpanRecorder::SelfTimes() const {
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& span : spans_) {
    if (span.parent != kNoParent) {
      children[static_cast<size_t>(span.parent)].emplace_back(span.start_ns, span.end_ns);
    }
  }
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::vector<std::pair<double, double>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent.
    double covered = 0;
    double reach = span.start_ns;
    for (const auto& [start, end] : kids) {
      const double lo = std::max(start, reach);
      const double hi = std::min(end, span.end_ns);
      if (hi > lo) {
        covered += hi - lo;
      }
      reach = std::max(reach, std::min(end, span.end_ns));
    }
    self[i] = (span.end_ns - span.start_ns) - covered;
  }
  return self;
}

std::vector<std::pair<double, double>> SpanRecorder::DurationAndChildSum(
    const std::string& name) const {
  std::map<int64_t, double> child_sum;
  for (const Span& span : spans_) {
    if (span.parent != kNoParent) {
      child_sum[span.parent] += span.end_ns - span.start_ns;
    }
  }
  std::vector<std::pair<double, double>> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) {
      out.emplace_back(spans_[i].end_ns - spans_[i].start_ns,
                       child_sum[static_cast<int64_t>(i)]);
    }
  }
  return out;
}

std::map<std::string, SpanRecorder::NameTotals> SpanRecorder::Totals() const {
  const std::vector<double> self = SelfTimes();
  std::map<std::string, NameTotals> totals;
  for (size_t i = 0; i < spans_.size(); ++i) {
    NameTotals& entry = totals[spans_[i].name];
    ++entry.calls;
    entry.total_ns += spans_[i].end_ns - spans_[i].start_ns;
    entry.self_ns += self[i];
  }
  return totals;
}

bool SpanRecorder::Write(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  std::fprintf(out, "[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(out,
                 "  {\"id\": %zu, \"name\": \"%s\", \"parent\": %lld, \"run\": %lld, "
                 "\"start_ns\": %.0f, \"end_ns\": %.0f}%s\n",
                 i, span.name.c_str(), static_cast<long long>(span.parent),
                 static_cast<long long>(span.run_id), span.start_ns, span.end_ns,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(out, "]\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench
