// live_ingest: fbdetect_serve as a child process, driven over loopback HTTP
// by this process.
//
// Set-up preloads simulated services with planted regressions (see
// scenario.h), one wire body per (service, 10-minute tick), a simulated day
// per request. The timed part alternates closed-loop load (pre-encoded
// 32768-point synthetic bodies on two connections, as fast as acks return)
// with rounds of /run calls over the preloaded services. /run output is
// checked byte for byte against an in-process Pipeline fed the same acked
// bodies and asked for the same (service, as_of) sequence.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/harness.h"
#include "perfbench/replay.h"
#include "perfbench/scenario.h"
#include "src/core/pipeline.h"
#include "src/report/report.h"
#include "src/service/client.h"
#include "src/service/http.h"
#include "src/service/wire.h"
#include "src/service/workload.h"

extern char** environ;

namespace perfbench {
namespace {

using fbdetect::Duration;
using fbdetect::TimePoint;

constexpr int kClientTimeoutMs = 10'000;
// Latency sample of a request that failed: it missed every latency limit.
constexpr double kMissMs = kClientTimeoutMs;
constexpr char kBinaryType[] = "application/x-fbdetect";

// ---------------------------------------------------------------------------
// The server child process.
// ---------------------------------------------------------------------------

class ServeProcess {
 public:
  ServeProcess() = default;
  ~ServeProcess() { Stop(); }
  ServeProcess(const ServeProcess&) = delete;
  ServeProcess& operator=(const ServeProcess&) = delete;

  // Spawns `binary --port 0 args...` and waits for its listening line.
  bool Start(const std::string& binary, const std::vector<std::string>& args) {
    int fds[2];
    if (::pipe(fds) != 0) {
      return false;
    }
    std::vector<std::string> argv_storage = {binary, "--port", "0"};
    argv_storage.insert(argv_storage.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (std::string& arg : argv_storage) {
      argv.push_back(arg.data());
    }
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDERR_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
    const int spawned = ::posix_spawn(&pid_, binary.c_str(), &actions, nullptr, argv.data(),
                                      environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    if (spawned != 0) {
      pid_ = -1;
      ::close(fds[0]);
      return false;
    }
    stderr_fd_ = fds[0];
    // The listening line carries the ephemeral port.
    std::string seen;
    const Clock::time_point deadline = Clock::now() + std::chrono::seconds(30);
    while (port_ == 0 && Clock::now() < deadline) {
      pollfd pfd{stderr_fd_, POLLIN, 0};
      if (::poll(&pfd, 1, 100) <= 0) {
        continue;
      }
      char chunk[512];
      const ssize_t n = ::read(stderr_fd_, chunk, sizeof(chunk));
      if (n <= 0) {
        break;
      }
      seen.append(chunk, static_cast<size_t>(n));
      const size_t at = seen.find("listening on ");
      const size_t eol = at == std::string::npos ? at : seen.find('\n', at);
      if (eol != std::string::npos) {
        const std::string line = seen.substr(at, eol - at);
        const size_t colon = line.find(':');
        port_ = static_cast<uint16_t>(std::strtoul(line.c_str() + colon + 1, nullptr, 10));
      }
    }
    log_ = seen;
    reader_ = std::thread([this] {
      char chunk[512];
      ssize_t n;
      while ((n = ::read(stderr_fd_, chunk, sizeof(chunk))) > 0) {
        std::lock_guard<std::mutex> lock(log_mutex_);
        log_.append(chunk, static_cast<size_t>(n));
      }
    });
    return port_ != 0;
  }

  uint16_t port() const { return port_; }
  int pid() const { return static_cast<int>(pid_); }

  // SIGTERM (graceful drain), then SIGKILL if the drain overruns; waits for
  // the child and its stderr reader. Returns the exit code, -1 if killed.
  int Stop() {
    int code = -1;
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      const Clock::time_point deadline = Clock::now() + std::chrono::seconds(60);
      int status = 0;
      pid_t done = 0;
      while ((done = ::waitpid(pid_, &status, WNOHANG)) == 0 && Clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      if (done == 0) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
      } else if (done > 0 && WIFEXITED(status)) {
        code = WEXITSTATUS(status);
      }
      pid_ = -1;
    }
    if (reader_.joinable()) {
      reader_.join();
    }
    if (stderr_fd_ >= 0) {
      ::close(stderr_fd_);
      stderr_fd_ = -1;
    }
    return code;
  }

  std::string log() {
    std::lock_guard<std::mutex> lock(log_mutex_);
    return log_;
  }

 private:
  pid_t pid_ = -1;
  uint16_t port_ = 0;
  int stderr_fd_ = -1;
  std::mutex log_mutex_;
  std::string log_;
  std::thread reader_;
};

// ---------------------------------------------------------------------------
// Requests and their accounting.
// ---------------------------------------------------------------------------

// One client request, times in ms since the run's origin. `due_ms` is when
// the previous one on its connection returned (closed loop).
struct Request {
  double due_ms = 0;
  double sent_ms = 0;
  double done_ms = 0;
  int status = 0;  // 0 = transport failure.
  uint32_t points = 0;

  bool ok() const { return status == 200; }
  // From due time to response; a failed request misses every limit.
  double latency_ms() const { return ok() ? done_ms - due_ms : kMissMs; }
  double round_trip_ms() const { return ok() ? done_ms - sent_ms : kMissMs; }
};

class Origin {
 public:
  double Ms() const { return MsBetween(origin_, Clock::now()); }

 private:
  Clock::time_point origin_ = Clock::now();
};

// One round trip; connects first when an earlier failure closed the
// connection.
Request Send(fbdetect::HttpClient& client, uint16_t port, const Origin& origin, double due_ms,
             std::string_view target, std::string_view content_type, std::string_view body,
             uint32_t points, std::string* response_body = nullptr) {
  Request request;
  request.due_ms = due_ms;
  request.points = points;
  if (!client.connected()) {
    (void)client.Connect("127.0.0.1", port, kClientTimeoutMs);
  }
  request.sent_ms = origin.Ms();
  fbdetect::HttpResponse response;
  const fbdetect::Status status =
      client.connected() ? client.Post(target, content_type, body, &response)
                         : fbdetect::Status::Internal("not connected");
  request.done_ms = origin.Ms();
  request.status = status.ok() ? response.status : 0;
  if (response_body != nullptr) {
    *response_body = std::move(response.body);
  }
  return request;
}

std::string Get(uint16_t port, const std::string& target) {
  fbdetect::HttpClient client;
  fbdetect::HttpResponse response;
  if (!client.Connect("127.0.0.1", port, kClientTimeoutMs).ok() ||
      !client.Get(target, &response).ok()) {
    return "";
  }
  return response.body;
}

// Tallies requests into attempted/failed and the error breakdown.
void Account(const std::vector<Request>& requests, const char* what, Result& result) {
  for (const Request& request : requests) {
    ++result.attempted;
    if (request.ok()) {
      continue;
    }
    ++result.failed;
    const std::string cause = request.status == 0                                 ? "transport"
                              : request.status == 429 || request.status == 503 ? "shed"
                                                                               : "non200";
    ++result.errors[std::string(what) + "." + cause];
  }
}

uint64_t JsonField(const std::string& json, const std::string& name) {
  const size_t at = json.find("\"" + name + "\":");
  return at == std::string::npos
             ? 0
             : std::strtoull(json.c_str() + at + name.size() + 3, nullptr, 10);
}

// Value of a "  <label>   <count>" row of /quarantine.
uint64_t QuarantineRow(const std::string& text, const std::string& label) {
  const size_t at = text.find(label);
  return at == std::string::npos
             ? 0
             : std::strtoull(text.c_str() + at + label.size(), nullptr, 10);
}

// ---------------------------------------------------------------------------
// Simulated services with planted regressions.
// ---------------------------------------------------------------------------

constexpr int kServices = 3;
constexpr Duration kTick = fbdetect::Minutes(10);
// The serve defaults look back 10 days + 4 h, so the first 10.25 days are
// history; the planted regressions fall in the four days after it, which
// the /run ladder walks.
constexpr size_t kHistoryTicks = (fbdetect::Days(10) + fbdetect::Hours(6)) / kTick;
constexpr size_t kLadderTicks = fbdetect::Days(4) / kTick;

struct DetectStream {
  std::vector<std::string> services;
  std::vector<std::vector<std::string>> bodies;  // [service][tick]
  std::vector<fbdetect::InjectedEvent> planted;
  CallerMap callers;
  size_t ticks() const { return bodies.empty() ? 0 : bodies[0].size(); }
};

DetectStream BuildDetectStream(uint64_t seed) {
  DetectStream stream;
  fbdetect::Rng rng(seed);
  const fbdetect::DetectionConfig serve_detection;  // fbdetect_serve's defaults.
  for (int s = 0; s < kServices; ++s) {
    fbdetect::WireWorkloadOptions options;
    options.service.name = "svc" + std::to_string(s);
    options.service.num_servers = 300;
    options.service.call_graph.num_subroutines = 16;
    options.service.num_endpoints = 2;
    options.service.sampling.samples_per_bucket = 2'000'000;
    options.service.sampling.bucket_width = kTick;
    options.service.tick = kTick;
    options.service.seed = kServiceSeed + static_cast<uint64_t>(s);
    options.start = 0;
    const fbdetect::ServiceSimulator probe(options.service);
    EventPlan plan;
    plan.regressions = 2;
    plan.cost_shifts = 1;
    plan.transients = 3;
    plan.threshold = serve_detection.threshold;
    const TimePoint ladder_begin = static_cast<TimePoint>(kHistoryTicks) * kTick;
    const TimePoint end = static_cast<TimePoint>(kHistoryTicks + kLadderTicks) * kTick;
    plan.regress_lo = ladder_begin + fbdetect::Hours(2);
    plan.regress_hi = end - fbdetect::Hours(8);
    plan.noise_lo = ladder_begin - fbdetect::Days(1);
    plan.noise_hi = end - fbdetect::Hours(2);
    const std::vector<PlannedEvent> events = PlanEvents(probe, plan, rng);
    AddCallers(probe, events, stream.callers);

    fbdetect::WireWorkload workload(options);
    for (const PlannedEvent& planned : events) {
      workload.ScheduleEvent(planned.event);
      stream.planted.push_back(planned.event);
    }
    stream.services.push_back(options.service.name);
    stream.bodies.emplace_back();
    for (size_t t = 0; t < kHistoryTicks + kLadderTicks; ++t) {
      stream.bodies.back().push_back(workload.NextBody());
    }
  }
  return stream;
}

uint32_t BodyPoints(const std::string& body) {
  uint32_t points = 0;
  (void)fbdetect::PeekWirePoints(
      std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(body.data()), body.size()),
      &points);
  return points;
}

// A /run the workload issued, and what came back.
struct RunCall {
  std::string service;
  TimePoint as_of = 0;
  Request request;
  std::string ndjson;
};

// Everything a live run leaves behind for the gates and metrics.
struct LiveRun {
  std::unique_ptr<ServeProcess> server;
  DetectStream stream;
  Origin origin;
  std::vector<std::vector<bool>> acked;  // [service][tick]
  std::vector<Request> preload;
  std::vector<Request> ingest;  // Timed ingest requests.
  std::vector<RunCall> runs;
  uint64_t client_acked_points = 0;
  std::string stats_json;
  std::string telemetry_json;
  std::string quarantine;
  double server_peak_rss_mb = 0;
};

// Merges consecutive tick bodies of one service into one body.
std::string MergeBodies(std::span<const std::string> bodies) {
  fbdetect::WireBatch merged;
  fbdetect::WireBatch tick;
  for (const std::string& body : bodies) {
    (void)fbdetect::ParseWireBatch(
        std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(body.data()), body.size()),
        &tick);
    for (size_t i = 0; i < tick.series.size(); ++i) {
      if (merged.series.size() <= i) {
        merged.series.push_back(fbdetect::WireSeries{tick.series[i].id, {}, {}});
      }
      fbdetect::WireSeries& series = merged.series[i];
      series.timestamps.insert(series.timestamps.end(), tick.series[i].timestamps.begin(),
                               tick.series[i].timestamps.end());
      series.values.insert(series.values.end(), tick.series[i].values.begin(),
                           tick.series[i].values.end());
    }
    merged.total_points += tick.total_points;
  }
  std::string out;
  fbdetect::EncodeWireBatch(merged, out);
  return out;
}

// Starts a fresh server and preloads ticks [0, ticks) of every service on
// one closed-loop connection, a simulated day per request (a backfill, so
// set-up time is not dominated by per-request wake-ups).
bool StartAndPreload(const Options& options, const std::vector<std::string>& server_args,
                     size_t ticks, LiveRun& run) {
  run.server = std::make_unique<ServeProcess>();
  if (!run.server->Start(options.serve_binary, server_args)) {
    std::fprintf(stderr, "fbdetect_serve did not start: %s\n", run.server->log().c_str());
    return false;
  }
  run.acked.assign(run.stream.services.size(),
                   std::vector<bool>(run.stream.ticks(), false));
  constexpr size_t kTicksPerBody = fbdetect::kDay / kTick;
  fbdetect::HttpClient client;
  for (size_t first = 0; first < ticks; first += kTicksPerBody) {
    const size_t count = std::min(kTicksPerBody, ticks - first);
    for (size_t s = 0; s < run.stream.services.size(); ++s) {
      const std::string body =
          MergeBodies(std::span<const std::string>(run.stream.bodies[s]).subspan(first, count));
      run.preload.push_back(Send(client, run.server->port(), run.origin, run.origin.Ms(),
                                 "/ingest", kBinaryType, body, BodyPoints(body)));
      if (run.preload.back().ok()) {
        std::fill_n(run.acked[s].begin() + static_cast<long>(first), count, true);
        run.client_acked_points += run.preload.back().points;
      }
    }
  }
  return true;
}

// Runs `setup` several times, each after an untimed `reset`, and keeps the
// last; returns the median set-up time.
double TimedSetups(int count, const std::function<void()>& reset,
                   const std::function<bool()>& setup, bool& ok) {
  std::vector<double> seconds;
  ok = true;
  for (int i = 0; i < count && ok; ++i) {
    reset();
    const Clock::time_point start = Clock::now();
    ok = setup();
    seconds.push_back(SecondsSince(start));
  }
  return Median(seconds);
}

// Reads /stats, /telemetry and /quarantine, records the server's peak RSS
// and stops it (graceful drain).
void FinishServer(LiveRun& run, Result& result) {
  const uint16_t port = run.server->port();
  run.stats_json = Get(port, "/stats");
  run.telemetry_json = Get(port, "/telemetry");
  run.quarantine = Get(port, "/quarantine");
  run.server_peak_rss_mb = PeakRssMb(run.server->pid());
  const int code = run.server->Stop();
  result.Gate(code == 0, "fbdetect_serve did not drain cleanly (exit " +
                             std::to_string(code) + ")");
}

// Accounting gates of the live run.
void CheckAccounting(const LiveRun& run, Result& result) {
  const uint64_t offered = JsonField(run.stats_json, "offered_requests");
  const uint64_t admitted = JsonField(run.stats_json, "admitted_requests");
  const uint64_t shed = JsonField(run.stats_json, "shed_admission") +
                        JsonField(run.stats_json, "shed_backpressure") +
                        JsonField(run.stats_json, "shed_drain");
  const uint64_t server_acked = JsonField(run.stats_json, "acked_points");
  result.Gate(!run.stats_json.empty(), "no /stats response");
  result.Gate(offered == admitted + shed, "offered != admitted + shed");
  result.Gate(server_acked == run.client_acked_points,
              "client acked points " + std::to_string(run.client_acked_points) +
                  " != server acked_points " + std::to_string(server_acked));
  const uint64_t rejected = QuarantineRow(run.quarantine, "dropped duplicates") +
                            QuarantineRow(run.quarantine, "dropped out-of-order");
  result.Gate(!run.quarantine.empty(), "no /quarantine response");
  result.Gate(rejected == 0, "the database rejected " + std::to_string(rejected) + " points");
}

// The acked detect-stream bodies, tick-major: what the server ingested.
std::vector<std::string> AckedBodies(const LiveRun& run) {
  std::vector<std::string> bodies;
  for (size_t t = 0; t < run.stream.ticks(); ++t) {
    for (size_t s = 0; s < run.stream.services.size(); ++s) {
      if (run.acked[s][t]) {
        bodies.push_back(run.stream.bodies[s][t]);
      }
    }
  }
  return bodies;
}

// Replays the acked bodies and the /run sequence in-process and checks each
// response byte for byte; returns the oracle's groups for scoring.
struct OracleOutcome {
  std::vector<fbdetect::Regression> reports;
  std::vector<fbdetect::RegressionGroup> groups;
};
OracleOutcome CheckAgainstOracle(const LiveRun& run, Result& result) {
  OracleOutcome outcome;
  fbdetect::TimeSeriesDatabase db;
  const IngestTimings ingest = IngestBodies(AckedBodies(run), db, nullptr);
  result.Gate(ingest.parse_failures == 0, "an acked body does not parse");
  fbdetect::PipelineOptions options;  // fbdetect_serve's pipeline settings.
  options.telemetry.enabled = true;
  fbdetect::Pipeline pipeline(&db, nullptr, nullptr, options);
  size_t mismatches = 0;
  for (const RunCall& call : run.runs) {
    std::string expected;
    for (fbdetect::Regression& report : pipeline.RunAt(call.service, call.as_of)) {
      expected += fbdetect::ToJsonLine(report);
      expected += '\n';
      outcome.reports.push_back(std::move(report));
    }
    if (call.request.ok() && call.ndjson != expected) {
      ++mismatches;
    }
  }
  result.Gate(mismatches == 0, std::to_string(mismatches) +
                                   " /run responses differ from the in-process pipeline");
  outcome.groups = pipeline.groups();
  return outcome;
}

// The HTTP framing cost of the server's request parser on ingest requests
// shaped like the client's.
double HttpParseUsPerRequest(const std::vector<std::string>& bodies) {
  double total_ns = 0;
  size_t parsed = 0;
  for (const std::string& body : bodies) {
    const std::string request = "POST /ingest HTTP/1.1\r\nHost: fbdetect\r\nContent-Length: " +
                                std::to_string(body.size()) + "\r\nContent-Type: " +
                                kBinaryType + "\r\n\r\n" + body;
    fbdetect::HttpParser parser;
    const Clock::time_point start = Clock::now();
    fbdetect::HttpParser::Result state = fbdetect::HttpParser::Result::kNeedMore;
    for (size_t at = 0; at < request.size() && state == fbdetect::HttpParser::Result::kNeedMore;
         at += 16 * 1024) {
      state = parser.Feed(request.data() + at, std::min<size_t>(16 * 1024, request.size() - at));
    }
    total_ns += std::chrono::duration<double, std::nano>(Clock::now() - start).count();
    parsed += state == fbdetect::HttpParser::Result::kComplete ? 1 : 0;
  }
  return parsed == 0 ? 0 : total_ns / 1e3 / static_cast<double>(parsed);
}

// Per-layer metrics of the live traced run.
void FillServiceLayerMetrics(const LiveRun& run, const std::vector<std::string>& storage_bodies,
                             uint64_t seal_every, const Options& options, Result& result) {
  auto& m = result.metrics;
  const TelemetryCounts counts = ParseTelemetryJson(run.telemetry_json);
  SpanRecorder recorder;
  for (size_t i = 0; i < run.ingest.size(); ++i) {
    const Request& r = run.ingest[i];
    recorder.Add("service.ingest_round_trip", SpanRecorder::kNoParent,
                 static_cast<int64_t>(i), r.sent_ms * 1e6, r.done_ms * 1e6);
  }
  for (size_t i = 0; i < run.runs.size(); ++i) {
    const Request& r = run.runs[i].request;
    recorder.Add("service.run_round_trip", SpanRecorder::kNoParent, static_cast<int64_t>(i),
                 r.sent_ms * 1e6, r.done_ms * 1e6);
  }
  FillRunLayerMetrics(recorder, counts, result);

  const double acked = static_cast<double>(JsonField(run.stats_json, "acked_points"));
  const double commits = static_cast<double>(JsonField(run.stats_json, "commits"));
  const double offered = static_cast<double>(JsonField(run.stats_json, "offered_requests"));
  const double shed = static_cast<double>(JsonField(run.stats_json, "shed_admission") +
                                          JsonField(run.stats_json, "shed_backpressure") +
                                          JsonField(run.stats_json, "shed_drain"));
  m["service.points_per_commit"] = commits > 0 ? acked / commits : 0;
  m["service.parse_queue_peak_points"] =
      static_cast<double>(JsonField(run.stats_json, "parse_queue_peak_points"));
  m["service.ingest_queue_peak_points"] =
      static_cast<double>(JsonField(run.stats_json, "ingest_queue_peak_points"));
  m["service.shed_frac"] = offered > 0 ? shed / offered : 0;
  std::vector<double> ack_ms;
  for (const Request& r : run.ingest) {
    ack_ms.push_back(r.latency_ms());
  }
  m["service.ingest_ack_ms_p99"] = Percentile(ack_ms, 0.99);

  std::vector<double> run_ms;
  for (const RunCall& call : run.runs) {
    run_ms.push_back(call.request.round_trip_ms());
  }
  m["service.run_ms_p50"] = Median(run_ms);
  const double server_runs = counts.HistogramCount("pipeline.run.wall_ns");
  m["service.run_overhead_ms_mean"] =
      server_runs > 0 ? Mean(run_ms) - counts.HistogramSum("pipeline.run.wall_ns") / 1e6 /
                                           server_runs
                      : 0;

  std::vector<std::string> sample(storage_bodies.begin(),
                                  storage_bodies.begin() +
                                      static_cast<long>(std::min<size_t>(
                                          storage_bodies.size(), 256)));
  m["service.http_parse_us_per_request"] = HttpParseUsPerRequest(sample);
  FillStorageLayerMetrics(storage_bodies, seal_every, options.work_dir + "/storage-replay",
                          result);
  m["error_rate"] = static_cast<double>(result.failed) / static_cast<double>(result.attempted);
  WriteTrace(options, recorder, result);
}

// ---------------------------------------------------------------------------
// live_ingest
// ---------------------------------------------------------------------------

constexpr int kLoadConnections = 2;
constexpr int kLoadSeries = 512;
constexpr int kLoadPointsPerSeries = 64;  // 32768 points per request.
// A seal every 32 requests: several per second, so the seal stall is a few
// percent of requests and sits inside the p99 rather than at its edge.
constexpr uint64_t kSealEveryPoints = 1u << 20;
// /run ladder over the preloaded services: one as_of every 2 h over the
// span holding the planted regressions, each asked for every service: 48
// rounds, 144 calls, so the p90 has more than ten calls beyond it.
constexpr Duration kLadderStep = fbdetect::Hours(2);
// peak_rss_mb is the server's VmHWM once this many load points are acked,
// so it measures a fixed volume, not however much a run managed to send.
constexpr uint64_t kRssProbePoints = uint64_t{1} << 25;

}  // namespace

bool RunLiveIngest(const Options& options, Result& result) {
  const std::vector<std::string> server_args = {"--seal-every",
                                                std::to_string(kSealEveryPoints)};
  LiveRun run;
  bool ok = false;
  const double setup_s = TimedSetups(
      options.trace ? 1 : kSetups, [&] { run = LiveRun(); },
      [&] {
        run.stream = BuildDetectStream(options.seed);
        return StartAndPreload(options, server_args, run.stream.ticks(), run);
      },
      ok);
  if (!ok) {
    return false;
  }

  // The run is cut into one slice per ladder step. Each slice posts load
  // (closed loop, each connection its own series set) until the slice's
  // end, then asks /run for every service at the step's as_of with the load
  // paused, so both are sampled across the whole run.
  const uint16_t port = run.server->port();
  const TimePoint end = static_cast<TimePoint>(run.stream.ticks()) * kTick;
  const TimePoint ladder_begin = static_cast<TimePoint>(kHistoryTicks) * kTick;
  std::vector<TimePoint> ladder;
  for (TimePoint as_of = ladder_begin + kLadderStep; as_of <= end; as_of += kLadderStep) {
    ladder.push_back(as_of);
  }
  std::vector<fbdetect::SyntheticWorkload> workloads;
  std::vector<fbdetect::HttpClient> clients(kLoadConnections);
  for (int c = 0; c < kLoadConnections; ++c) {
    workloads.emplace_back("load" + std::to_string(c), kLoadSeries, kLoadPointsPerSeries, 0, 60);
  }
  std::vector<std::vector<Request>> per_connection(kLoadConnections);
  std::atomic<uint64_t> load_acked_points{0};
  std::atomic<double> probed_rss_mb{0};
  double load_ms = 0;  // Summed length of the load slices.
  fbdetect::HttpClient ladder_client;
  const double slice_ms = options.seconds * 1e3 / static_cast<double>(ladder.size());
  const double start_ms = run.origin.Ms();
  for (size_t slice = 0; slice < ladder.size(); ++slice) {
    const double slice_start_ms = run.origin.Ms();
    const double slice_end_ms = start_ms + static_cast<double>(slice + 1) * slice_ms;
    double slice_last_ms = slice_start_ms;
    std::vector<std::thread> threads;
    for (int c = 0; c < kLoadConnections; ++c) {
      threads.emplace_back([&, c] {
        std::vector<Request>& requests = per_connection[static_cast<size_t>(c)];
        std::string body;
        double due = run.origin.Ms();
        while (due < slice_end_ms) {
          const uint32_t points = workloads[static_cast<size_t>(c)].NextBody(body);
          requests.push_back(Send(clients[static_cast<size_t>(c)], port, run.origin, due,
                                  "/ingest", kBinaryType, body, points));
          due = requests.back().done_ms;
          if (requests.back().ok()) {
            const uint64_t before = load_acked_points.fetch_add(points);
            if (before < kRssProbePoints && before + points >= kRssProbePoints) {
              probed_rss_mb = PeakRssMb(run.server->pid());
            }
          }
        }
      });
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
    for (const std::vector<Request>& requests : per_connection) {
      if (!requests.empty()) {
        slice_last_ms = std::max(slice_last_ms, requests.back().done_ms);
      }
    }
    load_ms += slice_last_ms - slice_start_ms;
    for (const std::string& service : run.stream.services) {
      RunCall call;
      call.service = service;
      call.as_of = ladder[slice];
      // The data was acked long before, so the wait is the round trip.
      call.request = Send(ladder_client, port, run.origin, run.origin.Ms(),
                          "/run?service=" + service + "&as_of=" + std::to_string(call.as_of),
                          "", "", 0, &call.ndjson);
      run.runs.push_back(std::move(call));
    }
  }
  double load_acked = 0;
  for (const std::vector<Request>& requests : per_connection) {
    for (const Request& r : requests) {
      run.ingest.push_back(r);
      if (r.ok()) {
        load_acked += r.points;
        run.client_acked_points += r.points;
      }
    }
  }
  if (probed_rss_mb == 0) {
    std::fprintf(stderr, "live_ingest: fewer than %llu points acked; peak_rss_mb is at the end\n",
                 static_cast<unsigned long long>(kRssProbePoints));
  }
  FinishServer(run, result);
  CheckAccounting(run, result);
  const OracleOutcome oracle = CheckAgainstOracle(run, result);
  RecordScore(ScoreReports(oracle.reports, oracle.groups, run.stream.planted,
                           run.stream.callers),
              result);
  Account(run.preload, "preload", result);
  Account(run.ingest, "ingest", result);
  std::vector<Request> run_requests;
  for (const RunCall& call : run.runs) {
    run_requests.push_back(call.request);
  }
  Account(run_requests, "run", result);

  std::fprintf(stderr,
               "live_ingest: %zu load requests, %.0f points acked in %.2fs, %zu /run, "
               "setup %.2fs\n",
               run.ingest.size(), load_acked, load_ms / 1e3, run.runs.size(), setup_s);

  if (!options.trace) {
    std::vector<double> ack_ms, report_ms;
    for (const Request& r : run.ingest) {
      ack_ms.push_back(r.latency_ms());
    }
    double period_ms = 0;
    for (const RunCall& call : run.runs) {
      report_ms.push_back(call.request.latency_ms());
      period_ms += call.request.round_trip_ms();
    }
    auto& m = result.metrics;
    m["setup_s"] = setup_s;
    m["period_s"] = period_ms / 1e3;
    m["ingest_pts_per_s"] = load_acked / (load_ms / 1e3);
    m["ingest_ack_ms_p50"] = Percentile(ack_ms, 0.50);
    m["run_report_ms_p50"] = Percentile(report_ms, 0.50);
    m["run_report_ms_p90"] = Percentile(report_ms, 0.90);
    m["ok_rate"] =
        1.0 - static_cast<double>(result.failed) / static_cast<double>(result.attempted);
    m["peak_rss_mb"] = probed_rss_mb > 0 ? probed_rss_mb.load() : run.server_peak_rss_mb;
    return true;
  }

  // Storage costs on a replay of the start of the same synthetic stream.
  std::vector<std::string> storage_bodies;
  for (int c = 0; c < kLoadConnections; ++c) {
    fbdetect::SyntheticWorkload workload("load" + std::to_string(c), kLoadSeries,
                                         kLoadPointsPerSeries, 0, 60);
    for (int i = 0; i < 96; ++i) {
      storage_bodies.emplace_back();
      workload.NextBody(storage_bodies.back());
    }
  }
  FillServiceLayerMetrics(run, storage_bodies, kSealEveryPoints, options, result);
  return true;
}

}  // namespace perfbench
