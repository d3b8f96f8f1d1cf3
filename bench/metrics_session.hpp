#pragma once
// MetricsSession: machine-readable telemetry for the experiment harness.
// Each bench binary opens one session; on destruction (or an explicit
// write()) it dumps BENCH_<name>.json into the working directory containing
// the run id, the experiment parameters, every registered counter / gauge /
// histogram (with p50/p90/p99), and the result tables that were printed to
// the terminal. These files are the repo's perf trajectory: future PRs prove
// speedups by diffing them. Schema: "ncast.bench.v1", documented in
// docs/observability.md and enforced by tools/bench_validate.cpp.
//
// This header deliberately depends only on obs + util so the google-benchmark
// binaries (which do not link the overlay stack) can use it too.

#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/table.hpp"

namespace ncast::bench {

/// Wall-clock timer for a bench's own measurements. Unlike obs::Stopwatch it
/// does not compile out under NCAST_OBS=OFF, so reported timings stay real
/// in the kill-switch build.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  /// Nanoseconds since construction.
  double elapsed_ns() const {
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start_)
            .count());
  }

 private:
  using Clock = std::chrono::steady_clock;  // ncast:allow(determinism.steady_clock): bench timings are printed and reported, never fed back into results
  Clock::time_point start_;
};

/// True when NCAST_BENCH_SMOKE is set in the environment: benches that
/// support it shrink their workloads to seconds so CI can exercise the whole
/// emit-and-validate pipeline on every run.
inline bool smoke() {
  const char* s = std::getenv("NCAST_BENCH_SMOKE");
  return s != nullptr && *s != '\0' && *s != '0';
}

/// One numeric line ("VmHWM:   123 kB" -> 123) from /proc/self/status, or
/// 0 when the file or field is unavailable (non-Linux, masked procfs).
inline std::uint64_t proc_status_field(const char* field) {
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  const std::size_t field_len = std::strlen(field);
  std::uint64_t value = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, field, field_len) == 0 && line[field_len] == ':') {
      value = std::strtoull(line + field_len + 1, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return value;
#else
  (void)field;
  return 0;
#endif
}

/// Peak resident set size of this process in bytes: /proc VmHWM where
/// available, getrusage otherwise, 0 when neither works. The scale story's
/// second axis — BENCH_scale budgets memory per node, not just wall clock.
inline std::uint64_t peak_rss_bytes() {
  if (const std::uint64_t kb = proc_status_field("VmHWM"); kb != 0) {
    return kb * 1024;
  }
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) == 0 && ru.ru_maxrss > 0) {
#if defined(__APPLE__)
    return static_cast<std::uint64_t>(ru.ru_maxrss);  // bytes on macOS
#else
    return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;
#endif
  }
#endif
  return 0;
}

/// Threads currently alive in this process (1 when procfs is unavailable).
/// MetricsSession samples this at construction and at every param/note/table
/// call and keeps the peak: worker pools (ShardedEngine) are usually torn
/// down before the session flushes, so a write-time sample would miss them.
inline std::uint64_t process_thread_count() {
  const std::uint64_t n = proc_status_field("Threads");
  return n != 0 ? n : 1;
}

class MetricsSession {
 public:
  explicit MetricsSession(std::string name) : name_(std::move(name)) {
    // Run ids exist to tell apart runs of the same bench in telemetry, so the
    // wall clock is the entropy — deliberately, and nowhere near any
    // experiment draw. The 16-bit suffix is a splitmix-style hash of
    // (time, name): unlike the unseeded std::rand() it replaces, it actually
    // differs between same-second runs of different benches.
    const auto wall = static_cast<std::uint64_t>(
        std::time(nullptr));  // ncast:allow(determinism.wall_clock): run ids must differ across runs; never feeds results
    std::uint64_t z = wall ^ 0x9e3779b97f4a7c15ULL;
    for (const char c : name_) {
      z = (z ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    }
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    char id[64];
    std::snprintf(id, sizeof id, "%s-%" PRIx64 "-%u", name_.c_str(), wall,
                  static_cast<unsigned>(z & 0xffffu));
    run_id_ = id;
  }

  MetricsSession(const MetricsSession&) = delete;
  MetricsSession& operator=(const MetricsSession&) = delete;

  ~MetricsSession() { write(); }

  /// Records an experiment parameter (k, d, n, seed, ...). Integral values
  /// are stored as JSON integers, floating point as numbers, anything
  /// string-like as strings.
  template <typename T>
  void param(const std::string& key, const T& value) {
    sample_threads();
    params_.emplace_back(key, render(value));
  }

  /// Records a headline result value (decoded fraction, mean rate, ...) —
  /// same encoding as param(), separate JSON section.
  template <typename T>
  void note(const std::string& key, const T& value) {
    sample_threads();
    notes_.emplace_back(key, render(value));
  }

  /// Embeds a printed result table into the JSON dump under `id`.
  void add_table(const std::string& id, const Table& table) {
    sample_threads();
    tables_.emplace_back(id, table);
  }

  const std::string& run_id() const { return run_id_; }
  std::string path() const { return "BENCH_" + name_ + ".json"; }

  /// Writes the snapshot; idempotent (the destructor is a no-op afterwards).
  /// Failures are reported on stderr but never crash a finishing bench.
  void write() {
    if (written_) return;
    written_ = true;

    obs::JsonWriter w;
    w.begin_object();
    w.key("schema").value("ncast.bench.v1");
    w.key("bench").value(name_);
    w.key("run_id").value(run_id_);
    w.key("smoke").value(smoke());
    // Telemetry provenance: whether the obs kill switch was compiled in and
    // how the trace ring ended the run. bench_compare refuses to diff runs
    // whose smoke/obs_enabled flags disagree, and nonzero dropped_events
    // flags a trace whose span trees may be missing their heads.
    w.key("obs_enabled").value(NCAST_OBS_ENABLED != 0);
    w.key("trace_capacity").value(static_cast<std::uint64_t>(obs::trace().capacity()));
    w.key("trace_dropped_events").value(obs::trace().dropped_events());
    // Resource footprint: the scale benches budget peak memory alongside
    // wall clock, and worker_threads is the peak pool size observed over the
    // session's lifetime (0 = the run stayed single-threaded throughout).
    sample_threads();
    w.key("peak_rss_bytes").value(peak_rss_bytes());
    w.key("worker_threads").value(peak_threads_ - 1);

    w.key("params").begin_object();
    for (const auto& [key, rendered] : params_) w.key(key).raw_value(rendered);
    w.end_object();

    w.key("notes").begin_object();
    for (const auto& [key, rendered] : notes_) w.key(key).raw_value(rendered);
    w.end_object();

    obs::metrics().write_json(w);

    w.key("tables").begin_object();
    for (const auto& [id, table] : tables_) {
      w.key(id).begin_object();
      w.key("header").begin_array();
      for (const auto& cell : table.header()) w.value(cell);
      w.end_array();
      w.key("rows").begin_array();
      for (const auto& row : table.rows()) {
        w.begin_array();
        for (const auto& cell : row) w.value(cell);
        w.end_array();
      }
      w.end_array();
      w.end_object();
    }
    w.end_object();

    w.end_object();

    const std::string out_path = path();
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "MetricsSession: cannot write %s\n", out_path.c_str());
      return;
    }
    const std::string& body = w.str();
    std::fwrite(body.data(), 1, body.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("\n[telemetry] wrote %s (%zu metrics)\n", out_path.c_str(),
                obs::metrics().size());
  }

 private:
  template <typename T>
  static std::string render(const T& value) {
    if constexpr (std::is_same_v<T, bool>) {
      return value ? "true" : "false";
    } else if constexpr (std::is_integral_v<T>) {
      return std::to_string(value);
    } else if constexpr (std::is_floating_point_v<T>) {
      return obs::json_number(static_cast<double>(value));
    } else {
      return '"' + obs::json_escape(std::string(value)) + '"';
    }
  }

  void sample_threads() {
    const std::uint64_t t = process_thread_count();
    if (t > peak_threads_) peak_threads_ = t;
  }

  std::string name_;
  std::string run_id_;
  bool written_ = false;
  std::uint64_t peak_threads_ = process_thread_count();
  std::vector<std::pair<std::string, std::string>> params_;  // pre-rendered
  std::vector<std::pair<std::string, std::string>> notes_;
  std::vector<std::pair<std::string, Table>> tables_;  // copies: tiny
};

}  // namespace ncast::bench
