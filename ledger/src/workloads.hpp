#pragma once
// The ledger's three workloads. Each call runs one repetition: it builds
// the seeded inputs (timed as set-up), runs the program on them (timed as
// wall), checks the outputs, and, in the traced binary, attributes the run's
// time to the layers overlay / sim / node / coding / gf.

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace ledger {

/// Every workload, and every engine replay, runs sim::ShardedEngine with 8
/// shards inline (no worker threads): the shards, outboxes and window
/// barriers all run on one thread. With worker threads every epoch barrier
/// waits for thread wake-ups, which on a loaded shared host swung
/// stream_small between 2.8 s and 7.5 s of wall time.
constexpr std::uint32_t kShards = 8;
constexpr std::uint32_t kWorkers = 0;

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  std::string spans_out;  ///< traced binary: span log destination ("" = none)
};

struct RepResult {
  bool ok = true;
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double setup_s = 0.0;
  double wall_s = 0.0;
  /// Seed-deterministic end-to-end metrics (simulated time, byte ratios).
  JsonObject metrics;
  /// Seed-deterministic counts; must repeat exactly across repetitions.
  JsonObject counts;
  /// Per-layer metrics (traced binary only).
  JsonObject layers;

  void fail(const std::string& why) {
    ok = false;
    errors.push_back(why);
  }
};

/// Runs one repetition of `opt.workload`. Throws std::invalid_argument on an
/// unknown workload name.
RepResult run_workload(const RunOptions& opt);

}  // namespace ledger
