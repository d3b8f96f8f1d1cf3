#pragma once
// Layer 1 of the simulation kernel (docs/architecture.md): a minimal
// discrete-event engine — a time-ordered queue of callbacks with cancellable
// timer handles — plus the deterministic per-run RNG stream splitter every
// higher layer draws from. The scenario runner schedules sends, deliveries,
// and fault events on it; the churn executor schedules joins, lifetimes,
// failures, and repair timers.
//
// Endpoints program against the abstract Scheduler surface, so the same
// ClientNode/ServerNode code runs on the single-threaded EventEngine here or
// on a lane of the sharded kernel (sim/sharded_engine.hpp) unchanged.

#include <algorithm>
#include <cstdint>
#include <queue>
#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/inline_function.hpp"
#include "util/rng.hpp"

namespace ncast::sim {

using SimTime = double;

/// Classifies a scheduled callback for the engine's sampled per-handler
/// profiling: each class gets its own wall-time histogram
/// (engine.handler_<class>_ns), so a slow scenario can be attributed to
/// message delivery vs serve loops vs repair machinery without a profiler.
/// Purely observational — scheduling order never depends on the class.
enum class TimerClass : std::uint8_t {
  kGeneric = 0,  ///< unclassified callbacks (default)
  kDelivery,     ///< transport message delivery
  kServe,        ///< endpoint periodic serve/recode loops
  kEmit,         ///< server direct-emission ticks
  kJoinRetry,    ///< hello retransmission timers
  kSilence,      ///< feed-silence complaint timers
  kRepair,       ///< scheduled repair executions
  kFault,        ///< fault-plan replay events (join/leave/crash)
};
inline constexpr std::size_t kTimerClassCount = 8;

inline const char* to_string(TimerClass klass) {
  switch (klass) {
    case TimerClass::kGeneric: return "generic";
    case TimerClass::kDelivery: return "delivery";
    case TimerClass::kServe: return "serve";
    case TimerClass::kEmit: return "emit";
    case TimerClass::kJoinRetry: return "join_retry";
    case TimerClass::kSilence: return "silence";
    case TimerClass::kRepair: return "repair";
    case TimerClass::kFault: return "fault";
  }
  return "unknown";
}

/// Handle for a scheduled event; pass to Scheduler::cancel() to revoke it.
/// Value-copyable and cheap; a default-constructed handle refers to nothing.
/// (slot, gen) name the engine's slab entry — gen disambiguates a reused
/// slot so stale handles cancel nothing; lane routes sharded-kernel cancels.
struct TimerHandle {
  static constexpr std::uint64_t kInvalid = static_cast<std::uint64_t>(-1);
  std::uint64_t seq = kInvalid;
  std::uint32_t slot = 0;
  std::uint32_t gen = 0;
  std::uint32_t lane = 0;
  bool valid() const { return seq != kInvalid; }
};

/// Deterministic per-run RNG stream splitter. Each tagged stream is an
/// independent-looking generator derived from (run seed, tag) alone, so the
/// number of draws one subsystem makes cannot shift another subsystem's
/// sequence — the property that keeps composed scenarios (loss x latency x
/// churn x attacks) seed-stable as features toggle on and off.
class RngStreams {
 public:
  explicit RngStreams(std::uint64_t run_seed) : run_seed_(run_seed) {}

  /// Stream for a numeric tag. Streams for distinct tags are uncorrelated.
  Rng stream(std::uint64_t tag) const {
    // splitmix64-style finalizer over the (seed, tag) pair; Rng::reseed runs
    // the state through splitmix again, so even adjacent tags decorrelate.
    std::uint64_t z = run_seed_ ^ (tag * 0x9e3779b97f4a7c15ULL + 0x2545f4914f6cdd1dULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return Rng(z ^ (z >> 31));
  }

  /// Stream for a string tag (FNV-1a over the bytes, then split).
  Rng stream(const char* tag) const {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char* p = tag; *p != '\0'; ++p) {
      h = (h ^ static_cast<unsigned char>(*p)) * 0x100000001b3ULL;
    }
    return stream(h);
  }

  std::uint64_t run_seed() const { return run_seed_; }

 private:
  std::uint64_t run_seed_;
};

/// Inline capacity for scheduled callbacks: sized so the transport's
/// delivery closure (this + a Message by value, ~150 bytes) stays on the
/// slab instead of the heap. Fatter captures still work via a single heap
/// fallback allocation inside InlineFunction.
inline constexpr std::size_t kCallbackInlineBytes = 184;

/// Abstract scheduling surface endpoints program against. Implemented by
/// EventEngine (single-threaded kernel) and by the per-lane adapters of the
/// sharded kernel; protocol code holds a Scheduler* and never needs to know
/// which one it is running on.
class Scheduler {
 public:
  using Callback = InlineFunction<kCallbackInlineBytes>;

  virtual ~Scheduler() = default;

  virtual SimTime now() const = 0;

  /// Schedules `fn` to run at absolute time `at` (must be >= now()). The
  /// optional class tags the callback for sampled handler profiling; it has
  /// no effect on execution order.
  virtual TimerHandle schedule_at(SimTime at, Callback fn,
                                  TimerClass klass = TimerClass::kGeneric) = 0;

  /// Revokes a scheduled event. Returns true iff the event was still pending;
  /// a cancelled event never runs and is not counted as executed. Returns
  /// false for invalid handles, already-fired events, and double cancels.
  virtual bool cancel(TimerHandle handle) = 0;

  /// Schedules `fn` after a delay (must be >= 0).
  TimerHandle schedule_in(SimTime delay, Callback fn,
                          TimerClass klass = TimerClass::kGeneric) {
    return schedule_at(now() + delay, std::move(fn), klass);
  }
};

/// Discrete-event scheduler. Events at equal times fire in scheduling order.
///
/// Storage: callbacks live in a slab of reusable slots (free-list recycled),
/// and the priority queue holds only POD (at, seq, slot) triples — so the
/// steady-state schedule/fire/cancel cycle allocates nothing once the slab
/// and queue vectors have grown to the workload's high-water mark.
class EventEngine final : public Scheduler {
 public:
  using Callback = Scheduler::Callback;

  SimTime now() const override { return now_; }

  /// Scheduled-but-not-yet-run events, excluding cancelled ones.
  std::size_t pending() const { return pending_; }

  TimerHandle schedule_at(SimTime at, Callback fn,
                          TimerClass klass = TimerClass::kGeneric) override {
    if (at < now_) throw std::invalid_argument("EventEngine: scheduling in the past");
    const std::uint32_t slot = acquire_slot(std::move(fn));
    const TimerHandle handle{seq_, slot, slots_[slot].gen, 0};
    queue_.push(Item{at, seq_++, slot, klass});
    ++pending_;
    depth_hwm_->set_max(static_cast<double>(queue_.size()));
    return handle;
  }

  bool cancel(TimerHandle handle) override {
    if (!handle.valid()) return false;
    if (handle.slot >= slots_.size()) return false;
    Slot& s = slots_[handle.slot];
    if (s.gen != handle.gen || s.cancelled || !s.fn) return false;
    s.cancelled = true;
    s.fn.reset();  // release captures now; the queue entry is skipped later
    --pending_;
    return true;
  }

  /// Runs events until the queue is empty or the horizon is passed.
  /// Returns the number of events executed (cancelled events excluded).
  ///
  /// Profiling: every kProfileSampleEvery-th executed event is wall-timed
  /// into its class's engine.handler_<class>_ns histogram and the queue
  /// depth gauge is refreshed — sampling keeps the hot loop at two extra
  /// clock reads per 64 events and zero allocations. The trace clock is
  /// synced to each event's time before its callback runs, so emitters
  /// inside handlers stamp correctly (drivers that own their own notion of
  /// time may still override inside the callback).
  std::size_t run_until(SimTime horizon) {
    std::size_t executed = 0;
    const obs::Stopwatch run_watch;
    // ncast:hot-begin — event dispatch; the Callback move below reuses slab
    // storage and the queue pops PODs, so no per-event allocation happens.
    while (!queue_.empty() && queue_.top().at <= horizon) {
      const Item item = queue_.top();
      queue_.pop();
      Slot& s = slots_[item.slot];
      if (s.cancelled) {
        release_slot(item.slot);
        continue;
      }
      // Move the callback out before invoking: the handler may schedule new
      // events, which can recycle this very slot or grow the slab.
      Callback fn = std::move(s.fn);
      release_slot(item.slot);
      --pending_;
      now_ = item.at;
      obs::trace().set_now(now_);
      if ((lifetime_executed_ & (kProfileSampleEvery - 1)) == 0) {
        depth_gauge_->set(static_cast<double>(queue_.size()));
        const obs::Stopwatch handler_watch;
        fn();
        handler_ns_[static_cast<std::size_t>(item.klass)]->observe(
            handler_watch.elapsed_ns());
      } else {
        fn();
      }
      ++lifetime_executed_;
      ++executed;
    }
    // ncast:hot-end
    now_ = std::max(now_, horizon);
    executed_ctr_->inc(executed);
    wall_ns_ += run_watch.elapsed_ns();
    if (wall_ns_ > 0.0) {
      rate_gauge_->set(static_cast<double>(lifetime_executed_) /
                       (wall_ns_ * 1e-9));
    }
    return executed;
  }

  /// Runs a single event if any is pending; returns whether one ran. Unlike
  /// run_until() it is deliberately unprofiled.
  bool step() {
    while (!queue_.empty()) {
      const Item item = queue_.top();
      queue_.pop();
      Slot& s = slots_[item.slot];
      if (s.cancelled) {
        release_slot(item.slot);
        continue;
      }
      Callback fn = std::move(s.fn);
      release_slot(item.slot);
      --pending_;
      now_ = item.at;
      obs::trace().set_now(now_);
      fn();
      ++lifetime_executed_;
      executed_ctr_->inc();
      return true;
    }
    return false;
  }

  /// Events executed over this engine's lifetime (across run_until/step).
  std::uint64_t lifetime_executed() const { return lifetime_executed_; }

  /// One in this many executed events is wall-timed (power of two).
  static constexpr std::uint64_t kProfileSampleEvery = 64;

 private:
  /// Slab entry owning a scheduled callback. `gen` increments on every
  /// release, so a TimerHandle that outlives its event can never cancel the
  /// slot's next tenant.
  struct Slot {
    Callback fn;
    std::uint32_t gen = 0;
    bool cancelled = false;
  };

  /// POD queue entry; the callback stays in the slab until dispatch.
  struct Item {
    SimTime at;
    std::uint64_t seq;
    std::uint32_t slot;
    TimerClass klass;
    bool operator>(const Item& o) const {
      return at != o.at ? at > o.at : seq > o.seq;
    }
  };

  std::uint32_t acquire_slot(Callback fn) {
    std::uint32_t slot;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    Slot& s = slots_[slot];
    s.fn = std::move(fn);
    s.cancelled = false;
    return slot;
  }

  void release_slot(std::uint32_t slot) {
    Slot& s = slots_[slot];
    s.fn.reset();
    s.cancelled = false;
    ++s.gen;
    free_slots_.push_back(slot);
  }

  std::priority_queue<Item, std::vector<Item>, std::greater<>> queue_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  SimTime now_ = 0.0;
  std::uint64_t seq_ = 0;
  std::size_t pending_ = 0;
  std::uint64_t lifetime_executed_ = 0;
  double wall_ns_ = 0.0;  ///< wall time spent inside run_until dispatch
  // Process-wide instrumentation; registry entries are never deallocated, so
  // caching the pointers once per engine keeps the hot paths lookup-free.
  obs::Counter* executed_ctr_ = &obs::metrics().counter("engine.events_executed");
  obs::Gauge* depth_hwm_ = &obs::metrics().gauge("engine.queue_depth_hwm");
  obs::Gauge* depth_gauge_ = &obs::metrics().gauge("engine.queue_depth");
  obs::Gauge* rate_gauge_ = &obs::metrics().gauge("engine.events_per_sec");
  // Sampled per-class handler wall time, indexed by TimerClass.
  obs::Histogram* handler_ns_[kTimerClassCount] = {
      &obs::metrics().histogram("engine.handler_generic_ns"),
      &obs::metrics().histogram("engine.handler_delivery_ns"),
      &obs::metrics().histogram("engine.handler_serve_ns"),
      &obs::metrics().histogram("engine.handler_emit_ns"),
      &obs::metrics().histogram("engine.handler_join_retry_ns"),
      &obs::metrics().histogram("engine.handler_silence_ns"),
      &obs::metrics().histogram("engine.handler_repair_ns"),
      &obs::metrics().histogram("engine.handler_fault_ns"),
  };
};

}  // namespace ncast::sim
