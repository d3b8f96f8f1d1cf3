#pragma once
// Shared pieces of the ledger runner: the clocks, a small JSON writer,
// percentiles, the in-memory span log, and the madd probe's view.
//
// Every wall-clock read in the ledger goes through now_ns() (steady_clock),
// never obs::Stopwatch, so timings are real in NCAST_OBS=OFF builds too.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <string>
#include <vector>

namespace ledger {

#if LEDGER_TRACED
inline constexpr bool kTraced = true;
#else
inline constexpr bool kTraced = false;
#endif

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// CPU time consumed so far by every thread of this process, in ns.
inline std::uint64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

inline double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// `v` as a quoted JSON string (escapes quotes and backslashes; the ledger
/// writes no control characters).
inline std::string json_string(const std::string& v) {
  std::string quoted = "\"";
  for (const char c : v) {
    if (c == '"' || c == '\\') quoted += '\\';
    quoted += c;
  }
  return quoted + "\"";
}

/// A flat-or-nested JSON object written in insertion order.
class JsonObject {
 public:
  void num(const std::string& key, double v) {
    char buf[40];
    if (std::isfinite(v)) {
      std::snprintf(buf, sizeof buf, "%.17g", v);
    } else {
      std::snprintf(buf, sizeof buf, "null");
    }
    raw(key, buf);
  }
  void count(const std::string& key, std::uint64_t v) {
    raw(key, std::to_string(v));
  }
  void str(const std::string& key, const std::string& v) { raw(key, json_string(v)); }
  void obj(const std::string& key, const JsonObject& o) { raw(key, o.text()); }
  void raw(const std::string& key, const std::string& json) {
    if (!body_.empty()) body_ += ',';
    body_ += '"' + key + "\":" + json;
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// Nearest-rank percentile (q in (0, 1]) of an unsorted sample; -1 if empty.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return -1.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[idx];
}

inline double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

/// Names of the spans the ledger records (index into span_names()).
enum SpanName : std::uint8_t {
  kSpanRunUntil,
  kSpanJoin,
  kSpanLeave,
  kSpanReportFailure,
  kSpanRepair,
  kSpanRunScenario,
  kSpanReplayGf,
  kSpanReplayCoding,
  kSpanReplayNode,
  kSpanReplaySim,
  kSpanReplayOverlay,
};

/// In-memory span log of the traced binary. A span is one call into a layer
/// made from the ledger's own code; `parent` links it to the span that was
/// open around it (-1 for a root). Spans are appended by one thread at a
/// time (the main thread, or the server lane's handlers, which the engine's
/// window barriers serialize) and read only after the run.
class SpanLog {
 public:
  enum Layer : std::uint8_t { kOverlay, kSim, kNode, kCoding, kGf, kLayers };

  struct Span {
    std::uint64_t begin_ns;
    std::uint64_t end_ns;
    std::int32_t parent;
    Layer layer;
    std::uint8_t name;  ///< a SpanName
  };

  static const char* layer_name(Layer l) {
    static const char* const kNames[] = {"overlay", "sim", "node", "coding", "gf"};
    return kNames[l];
  }

  void reserve(std::size_t n) { spans_.reserve(n); }

  std::int32_t open(Layer layer, std::uint8_t name, std::int32_t parent) {
    spans_.push_back(Span{now_ns(), 0, parent, layer, name});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void close(std::int32_t idx) { spans_[static_cast<std::size_t>(idx)].end_ns = now_ns(); }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per layer in seconds: each span's duration minus the part of
  /// it its direct children cover.
  /// Only the first `count` spans are considered.
  std::vector<double> self_seconds(std::size_t count) const {
    count = std::min(count, spans_.size());
    std::vector<std::uint64_t> child_ns(count, 0);
    for (std::size_t i = 0; i < count; ++i) {
      const Span& s = spans_[i];
      if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.begin_ns;
    }
    std::vector<double> self(kLayers, 0.0);
    for (std::size_t i = 0; i < count; ++i) {
      const Span& s = spans_[i];
      const std::uint64_t dur = s.end_ns - s.begin_ns;
      const std::uint64_t own = dur > child_ns[i] ? dur - child_ns[i] : 0;
      self[s.layer] += static_cast<double>(own) * 1e-9;
    }
    return self;
  }

  /// Durations (ns) of every span with the given name.
  std::vector<double> durations_ns(SpanName name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name) out.push_back(static_cast<double>(s.end_ns - s.begin_ns));
    }
    return out;
  }

  /// Writes one JSON line per span (times relative to the first span).
  bool write_jsonl(const std::string& path, const std::vector<std::string>& names) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::uint64_t t0 = spans_.empty() ? 0 : spans_.front().begin_ns;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"parent\":%d,\"layer\":\"%s\",\"name\":\"%s\","
                   "\"begin_ns\":%llu,\"end_ns\":%llu}\n",
                   i, s.parent, layer_name(s.layer), names[s.name].c_str(),
                   static_cast<unsigned long long>(s.begin_ns - t0),
                   static_cast<unsigned long long>(s.end_ns - t0));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
};

/// The traced binary's process-wide span log.
SpanLog& spans();

/// RAII span, compiled out of the untraced binary.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog::Layer layer, SpanName name, std::int32_t parent = -1) {
    if constexpr (kTraced) idx_ = spans().open(layer, name, parent);
  }
  ~ScopedSpan() {
    if constexpr (kTraced) spans().close(idx_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::int32_t index() const { return idx_; }

 private:
  std::int32_t idx_ = -1;
};

/// Totals of Gf256::region_madd calls seen by the link-time probe (traced
/// binary only; the untraced binary reports zeros and `available` false).
struct MaddTotals {
  bool available = false;
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;
};
/// Zeroes the probe's totals (call between runs, with no worker alive).
void madd_probe_reset();
/// Totals since the last reset, flushed from every thread that has exited
/// plus the calling thread.
MaddTotals madd_probe_totals();

/// Peak resident set size of this process (VmHWM), in MiB; 0 if unknown.
double peak_rss_mib();

}  // namespace ledger
