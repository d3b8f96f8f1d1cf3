#pragma once
// Layer replays for the traced run: each times one public entry point of a
// layer in isolation, at the geometry the workload used, and returns the
// median CPU ns per call over several batches. The traced run multiplies
// these by the op counts the real run reported to attribute its CPU time.

#include <cstddef>
#include <cstdint>

#include "coding/structure.hpp"

namespace ledger {

/// Median CPU ns per Gf256::region_madd over rows of `len` bytes.
double replay_madd_ns(std::size_t len, std::uint64_t seed);

struct CodecShape {
  std::size_t generation_size = 32;
  std::size_t generations = 4;
  std::size_t symbols = 16;
  ncast::coding::StructureSpec structure;
};

/// Median CPU ns per call of each codec entry point a data message passes
/// through, on relay-recoded packets like the ones clients exchange.
struct CodecReplay {
  double serialize_ns = 0.0;       ///< coding::serialize_stream
  double deserialize_ns = 0.0;     ///< coding::deserialize_stream
  double absorb_ns = 0.0;          ///< StructuredDecoder::absorb
  double recoder_absorb_ns = 0.0;  ///< StructuredRecoder::absorb
  double recode_ns = 0.0;          ///< StructuredRecoder::emit_into
  double absorb_wire_ns = 0.0;     ///< node::StreamState::absorb_wire
};

/// `packets_per_generation`: how many packets each replayed decoder absorbs
/// (the real run's received-to-needed ratio times g), so the replay sees
/// the same innovative/redundant mix the clients saw.
CodecReplay replay_codec(const CodecShape& shape,
                         std::size_t packets_per_generation,
                         std::uint64_t seed);

/// Median CPU ns per event of ShardedEngine dispatch with empty handlers that
/// each post one cross-lane event, at the workloads' shard/worker counts and
/// the workload's epoch and lane count.
double replay_engine_ns_per_event(double epoch, std::size_t lanes, std::uint64_t seed);

/// Median CPU ns per data message through node::ShardedTransport: a relay
/// chain of endpoints, each forwarding a fresh `wire_bytes` payload to the
/// next address on the stream's latency model. Includes one engine event
/// per message (the delivery), which the caller prices separately.
double replay_transport_ns(double epoch, std::size_t addresses,
                           std::size_t wire_bytes, std::uint64_t seed);

/// CurtainServer call latencies over a fleet of `clients`: every client
/// joins, then a tenth leave and a tenth crash and are repaired.
struct OverlayReplay {
  double join_p50 = 0.0;
  double join_p99 = 0.0;
  double leave_p50 = 0.0;
  double repair_p50 = 0.0;
};
OverlayReplay replay_overlay(std::uint32_t k, std::uint32_t d,
                             std::uint32_t clients, std::uint64_t seed);

}  // namespace ledger
