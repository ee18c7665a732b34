// Shared helpers for the reproduction harnesses: aligned table printing and
// simple sparkline rendering so each bench prints rows comparable to the
// paper's tables/figures.
#ifndef FBDETECT_BENCH_BENCH_UTIL_H_
#define FBDETECT_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/simd.h"
#include "src/stats/descriptive.h"

namespace fbdetect {

// Fixed integer work, opaque to the optimizer.
inline uint64_t SpinWork(uint64_t iterations) {
  uint64_t x = 0x9E3779B97F4A7C15ull;
  for (uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

// Parallelism the host actually delivers, measured once per process (the
// same calibration as perfbench's): one thread spins fixed work alone, then
// hardware_concurrency() threads each spin the same work. With N truly free
// cores both take equally long and the ratio is N; a shared VM that lends
// fewer cores than it reports reads lower, which is what a --threads-sweep
// curve is bounded by.
inline double EffectiveCores() {
  static const double cores = [] {
    using Clock = std::chrono::steady_clock;
    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    constexpr uint64_t kWork = 20'000'000;
    std::atomic<uint64_t> sink{0};
    const Clock::time_point solo_start = Clock::now();
    sink += SpinWork(kWork);
    const double solo = std::chrono::duration<double>(Clock::now() - solo_start).count();
    const Clock::time_point team_start = Clock::now();
    std::vector<std::thread> team;
    for (unsigned t = 0; t < nproc; ++t) {
      team.emplace_back([&sink] { sink += SpinWork(kWork); });
    }
    for (std::thread& thread : team) {
      thread.join();
    }
    const double together = std::chrono::duration<double>(Clock::now() - team_start).count();
    return together > 0 ? static_cast<double>(nproc) * solo / together : 0.0;
  }();
  return cores;
}

// Hardware/build metadata as a single-line JSON object. Every recorded
// number depends on the core count (nominal and effective), the dispatched
// SIMD table, and the compiler, so results from different machines are only
// comparable when these fields match.
inline std::string HardwareJsonValue() {
  const char* disable_env = std::getenv("FBD_DISABLE_SIMD");
  const bool simd_disabled =
      disable_env != nullptr && disable_env[0] != '\0' &&
      !(disable_env[0] == '0' && disable_env[1] == '\0');
  char buffer[384];
  std::snprintf(buffer, sizeof(buffer),
                "{\"cores\": %u, \"effective_cores\": %.2f, \"simd_active\": \"%s\", "
                "\"simd_best\": \"%s\", \"simd_disabled_by_env\": %s, \"compiler\": \"%s\"}",
                std::thread::hardware_concurrency(), EffectiveCores(),
                simd::IsaName(simd::ActiveIsa()),
                simd::IsaName(simd::BestAvailableIsa()),
                simd_disabled ? "true" : "false",
#if defined(__clang__)
                "clang " __clang_version__
#else
                "gcc " __VERSION__
#endif
  );
  return std::string(buffer);
}

// Emits the "hardware" metadata member into a BENCH_*.json stream (no
// trailing comma or newline).
inline void WriteHardwareJson(std::FILE* json, const char* indent = "  ") {
  std::fprintf(json, "%s\"hardware\": %s", indent, HardwareJsonValue().c_str());
}

// BENCH_simd.json collects the SIMD/multicore rig's results across several
// binaries: the kernel micro-bench owns "kernels", and each --threads-sweep
// bench owns its own section. The file keeps exactly one top-level member
// per line ('  "name": <single-line value>'), which lets this
// read-modify-write helper re-emit the other binaries' sections verbatim.
// "hardware" is refreshed on every update.
inline void UpdateBenchSimdJson(const std::string& section, const std::string& value) {
  const char* path = "BENCH_simd.json";
  std::vector<std::pair<std::string, std::string>> sections;
  sections.emplace_back("hardware", HardwareJsonValue());
  {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
      if (line.compare(0, 3, "  \"") != 0) {
        continue;  // Braces or foreign formatting.
      }
      const size_t name_end = line.find('"', 3);
      size_t value_begin = line.find(": ", name_end == std::string::npos ? 3 : name_end);
      if (name_end == std::string::npos || value_begin == std::string::npos) {
        continue;
      }
      value_begin += 2;
      std::string name = line.substr(3, name_end - 3);
      std::string existing = line.substr(value_begin);
      if (!existing.empty() && existing.back() == ',') {
        existing.pop_back();
      }
      if (name == "hardware" || name == section) {
        continue;  // Superseded below.
      }
      sections.emplace_back(std::move(name), std::move(existing));
    }
  }
  sections.emplace_back(section, value);
  std::ofstream out(path, std::ios::trunc);
  out << "{\n";
  for (size_t i = 0; i < sections.size(); ++i) {
    out << "  \"" << sections[i].first << "\": " << sections[i].second
        << (i + 1 < sections.size() ? "," : "") << "\n";
  }
  out << "}\n";
  std::printf("\nupdated BENCH_simd.json section \"%s\"\n", section.c_str());
}

// Formats a --threads-sweep curve as a single-line JSON array for
// UpdateBenchSimdJson: per-thread-count wall time plus speedup vs 1 thread.
inline std::string ThreadsCurveJson(const std::vector<int>& threads,
                                    const std::vector<double>& ms) {
  std::string curve = "[";
  char buffer[128];
  for (size_t i = 0; i < threads.size(); ++i) {
    std::snprintf(buffer, sizeof(buffer),
                  "%s{\"threads\": %d, \"ms\": %.2f, \"speedup_vs_1\": %.3f}",
                  i == 0 ? "" : ", ", threads[i], ms[i], ms[0] / ms[i]);
    curve += buffer;
  }
  curve += "]";
  return curve;
}

// Prints a row of columns padded to the given widths.
inline void PrintRow(const std::vector<std::string>& cells, const std::vector<int>& widths) {
  for (size_t i = 0; i < cells.size(); ++i) {
    const int width = i < widths.size() ? widths[i] : 12;
    std::printf("%-*s", width, cells[i].c_str());
  }
  std::printf("\n");
}

inline std::string FormatDouble(double value, const char* format = "%.4f") {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), format, value);
  return std::string(buffer);
}

inline std::string FormatPercent(double value, int decimals = 3) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f%%", decimals, value * 100.0);
  return std::string(buffer);
}

// Renders a series as a one-line unicode sparkline (8 levels), so the shapes
// of Figure-style results are visible in terminal output.
inline std::string Sparkline(std::span<const double> values, size_t max_width = 100) {
  static const char* kLevels[] = {"▁", "▂", "▃", "▄",
                                  "▅", "▆", "▇", "█"};
  if (values.empty()) {
    return "";
  }
  const double lo = Min(values);
  const double hi = Max(values);
  const size_t stride = values.size() > max_width ? values.size() / max_width : 1;
  std::string line;
  for (size_t i = 0; i < values.size(); i += stride) {
    // Average the stride bucket for stability.
    double sum = 0.0;
    size_t count = 0;
    for (size_t j = i; j < values.size() && j < i + stride; ++j) {
      sum += values[j];
      ++count;
    }
    const double v = sum / static_cast<double>(count);
    int level = 0;
    if (hi > lo) {
      level = static_cast<int>((v - lo) / (hi - lo) * 7.999);
    }
    line += kLevels[level];
  }
  return line;
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

}  // namespace fbdetect

#endif  // FBDETECT_BENCH_BENCH_UTIL_H_
