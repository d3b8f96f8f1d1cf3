// Layer replays for the traced run; see replay.hpp.

#include "replay.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "coding/file_codec.hpp"
#include "coding/structured_decoder.hpp"
#include "coding/structured_recoder.hpp"
#include "coding/wire.hpp"
#include "common.hpp"
#include "gf/gf256.hpp"
#include "node/sharded_transport.hpp"
#include "node/stream_state.hpp"
#include "overlay/curtain_server.hpp"
#include "sim/sharded_engine.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace ledger {
namespace {

using ncast::Rng;
using Field = ncast::gf::Gf256;
using Packet = ncast::coding::CodedPacket<Field>;

constexpr int kBatches = 7;

/// Runs `batch` kBatches times (after one untimed warm-up) and returns the
/// median CPU ns per op (summed over threads, so a replay that runs engine
/// workers is priced like the run's CPU time); `batch` returns the number
/// of ops it performed, and `prepare` (untimed) resets whatever state a
/// batch consumes.
template <typename Prepare, typename Batch>
double median_ns_per_op(Prepare&& prepare, Batch&& batch) {
  std::vector<double> per_op;
  for (int b = 0; b <= kBatches; ++b) {
    prepare();
    const std::uint64_t t0 = cpu_ns();
    const std::size_t ops = batch();
    const double ns = static_cast<double>(cpu_ns() - t0);
    if (b > 0 && ops > 0) per_op.push_back(ns / static_cast<double>(ops));
  }
  return median(per_op);
}

std::vector<std::uint8_t> random_bytes(std::size_t n, Rng& rng) {
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

}  // namespace

double replay_madd_ns(std::size_t len, std::uint64_t seed) {
  ScopedSpan span(SpanLog::kGf, kSpanReplayGf);
  Rng rng(seed);
  constexpr std::size_t kRows = 64;
  const std::vector<std::uint8_t> src = random_bytes(kRows * len, rng);
  std::vector<std::uint8_t> dst = random_bytes(len, rng);
  std::vector<std::uint8_t> coeff(256);
  for (auto& c : coeff) c = static_cast<std::uint8_t>(2 + rng.below(254));
  const std::size_t ops = std::max<std::size_t>(2000, (std::size_t{8} << 20) / len);
  return median_ns_per_op([] {}, [&] {
    for (std::size_t i = 0; i < ops; ++i) {
      Field::region_madd(dst.data(), src.data() + (i % kRows) * len,
                         coeff[i & 255], len);
    }
    return ops;
  });
}

CodecReplay replay_codec(const CodecShape& shape,
                         std::size_t packets_per_generation,
                         std::uint64_t seed) {
  namespace coding = ncast::coding;
  const std::size_t g = shape.generation_size;
  const std::size_t gens = shape.generations;
  const std::size_t symbols = shape.symbols;
  Rng rng(seed);

  // A relay that has decoded the stream, fed straight from the source
  // encoder: its recoded uploads are what clients exchange in the runs.
  coding::FileEncoder encoder(random_bytes(gens * g * symbols, rng), g,
                              symbols, shape.structure);
  const coding::GenerationStructure structure = encoder.structure();
  ncast::node::StreamState relay;
  if (!relay.initialize(gens * g * symbols, static_cast<std::uint32_t>(gens),
                        static_cast<std::uint16_t>(g),
                        static_cast<std::uint16_t>(symbols), structure)) {
    throw std::runtime_error("replay_codec: relay rejected the stream plan");
  }
  for (std::size_t i = 0; !relay.decoded(); ++i) {
    if (i > 64 * gens * g) throw std::runtime_error("replay_codec: relay never decoded");
    relay.absorb_wire(
        coding::serialize_stream(encoder.emit(i % gens, rng), structure));
  }

  const std::size_t per_gen = std::clamp<std::size_t>(packets_per_generation, g, 64 * g);
  std::vector<std::vector<std::uint8_t>> wires;
  std::vector<Packet> packets;
  wires.reserve(per_gen * gens);
  packets.reserve(per_gen * gens);
  while (wires.size() < per_gen * gens) {
    auto wire = relay.emit_wire(rng);
    if (!wire) throw std::runtime_error("replay_codec: relay emitted nothing");
    auto packet = coding::deserialize_stream<Field>(*wire, structure);
    if (!packet) throw std::runtime_error("replay_codec: relay emitted garbage");
    packets.push_back(std::move(*packet));
    wires.push_back(std::move(*wire));
  }
  const std::size_t n = packets.size();
  const coding::DecoderPolicy policy = coding::select_stream_policy(structure);

  CodecReplay out;
  std::size_t sink = 0;
  {
    ScopedSpan span(SpanLog::kCoding, kSpanReplayCoding);
    out.serialize_ns = median_ns_per_op([] {}, [&] {
      for (const Packet& p : packets) sink += coding::serialize_stream(p, structure).size();
      return n;
    });
    out.deserialize_ns = median_ns_per_op([] {}, [&] {
      for (const auto& w : wires) {
        sink += coding::deserialize_stream<Field>(w, structure)->payload.size();
      }
      return n;
    });

    std::vector<coding::StructuredDecoder<Field>> decoders;
    out.absorb_ns = median_ns_per_op(
        [&] {
          decoders.clear();
          for (std::size_t gen = 0; gen < gens; ++gen) {
            decoders.emplace_back(static_cast<std::uint32_t>(gen), structure, symbols, policy);
          }
        },
        [&] {
          for (const Packet& p : packets) sink += decoders[p.generation].absorb(p) ? 1 : 0;
          return n;
        });

    std::vector<coding::StructuredRecoder<Field>> recoders;
    const auto fresh_recoders = [&] {
      recoders.clear();
      for (std::size_t gen = 0; gen < gens; ++gen) {
        recoders.emplace_back(static_cast<std::uint32_t>(gen), structure, symbols);
      }
    };
    out.recoder_absorb_ns = median_ns_per_op(fresh_recoders, [&] {
      for (const Packet& p : packets) sink += recoders[p.generation].absorb(p) ? 1 : 0;
      return n;
    });
    // The recoders now hold every packet: emit from full buffers.
    Packet scratch;
    out.recode_ns = median_ns_per_op([] {}, [&] {
      for (std::size_t i = 0; i < n; ++i) {
        sink += recoders[i % gens].emit_into(scratch, rng) ? 1 : 0;
      }
      return n;
    });
  }

  ScopedSpan node_span(SpanLog::kNode, kSpanReplayNode);
  std::optional<ncast::node::StreamState> state;
  out.absorb_wire_ns = median_ns_per_op(
      [&] {
        state.emplace();
        state->initialize(gens * g * symbols, static_cast<std::uint32_t>(gens),
                         static_cast<std::uint16_t>(g),
                         static_cast<std::uint16_t>(symbols), structure);
      },
      [&] {
        for (const auto& w : wires) sink += state->absorb_wire(w) ? 1 : 0;
        return n;
      });
  if (sink == 0) throw std::runtime_error("replay_codec: nothing was processed");
  return out;
}

namespace {

/// One hop of the engine replay: posts the next hop to another lane.
struct Hop {
  ncast::sim::ShardedEngine* engine;
  std::uint32_t lane;
  std::uint32_t lanes;
  std::uint32_t left;
  double epoch;
  void operator()() const {
    if (left == 0) return;
    const std::uint32_t next = (lane * 7 + 1) % lanes;
    const double jitter = static_cast<double>((lane * 2654435761u + left) % 1000) / 1000.0;
    engine->schedule_on(next, engine->now() + epoch * (1.0 + jitter),
                        Hop{engine, next, lanes, left - 1, epoch});
  }
};

}  // namespace

double replay_engine_ns_per_event(double epoch, std::size_t lanes, std::uint64_t seed) {
  ScopedSpan span(SpanLog::kSim, kSpanReplaySim);
  const auto lane_count = static_cast<std::uint32_t>(std::max<std::size_t>(lanes, 2));
  constexpr std::uint32_t kEvents = 400000;
  const std::uint32_t hops = std::max<std::uint32_t>(1, kEvents / lane_count);
  std::unique_ptr<ncast::sim::ShardedEngine> engine;
  Rng rng(seed);
  return median_ns_per_op(
      [&] {
        engine = std::make_unique<ncast::sim::ShardedEngine>(kShards, kWorkers, epoch);
        engine->reserve_lanes(lane_count);
        for (std::uint32_t l = 0; l < lane_count; ++l) {
          engine->schedule_on(l, epoch * rng.uniform(),
                              Hop{engine.get(), l, lane_count, hops, epoch});
        }
      },
      [&] { return engine->run_until(std::numeric_limits<double>::max()); });
}

namespace {

/// Forwards every data message it receives, as a fresh payload of the same
/// size, to the next address, until it has sent `budget` messages.
class Relay final : public ncast::node::Endpoint {
 public:
  Relay(ncast::node::Transport& net, ncast::node::Address self,
        std::size_t addresses, std::uint32_t budget)
      : net_(net), self_(self), addresses_(addresses), budget_(budget) {}

  void send(std::size_t wire_bytes) {
    if (sent_ == budget_) return;
    ++sent_;
    ncast::node::Message m;
    m.type = ncast::node::MessageType::kData;
    m.from = self_;
    m.to = static_cast<ncast::node::Address>(self_ % (addresses_ - 1) + 1);
    m.wire.assign(wire_bytes, static_cast<std::uint8_t>(sent_));
    net_.send(std::move(m));
  }
  void on_message(const ncast::node::Message& m) override { send(m.wire.size()); }

 private:
  ncast::node::Transport& net_;
  ncast::node::Address self_;
  std::size_t addresses_;
  std::uint32_t budget_;
  std::uint32_t sent_ = 0;
};

}  // namespace

double replay_transport_ns(double epoch, std::size_t addresses,
                           std::size_t wire_bytes, std::uint64_t seed) {
  namespace node = ncast::node;
  ScopedSpan span(SpanLog::kNode, kSpanReplayNode);
  const std::size_t n = std::max<std::size_t>(addresses, 3);
  constexpr std::uint32_t kMessages = 200000;
  const auto budget = static_cast<std::uint32_t>(kMessages / (n - 1) + 1);
  std::unique_ptr<ncast::sim::ShardedEngine> engine;
  std::unique_ptr<node::ShardedTransport> net;
  std::vector<std::unique_ptr<Relay>> relays;
  return median_ns_per_op(
      [&] {
        relays.clear();
        net.reset();
        engine = std::make_unique<ncast::sim::ShardedEngine>(kShards, kWorkers, epoch);
        engine->reserve_lanes(n);
        node::TransportSpec spec;
        spec.latency = ncast::sim::LatencySpec::uniform(epoch, 3.0 * epoch);
        net = std::make_unique<node::ShardedTransport>(*engine, spec, seed, n);
        for (std::size_t a = 1; a < n; ++a) {
          relays.push_back(std::make_unique<Relay>(*net, static_cast<node::Address>(a), n,
                                                   budget));
          net->attach(static_cast<node::Address>(a), relays.back().get());
          Relay* relay = relays.back().get();
          engine->schedule_on(static_cast<ncast::sim::LaneId>(a), epoch * static_cast<double>(a % 7),
                              [relay, wire_bytes] { relay->send(wire_bytes); });
        }
      },
      [&] {
        engine->run_until(std::numeric_limits<double>::max());
        return static_cast<std::size_t>(net->data_messages());
      });
}

OverlayReplay replay_overlay(std::uint32_t k, std::uint32_t d,
                             std::uint32_t clients, std::uint64_t seed) {
  ScopedSpan span(SpanLog::kOverlay, kSpanReplayOverlay);
  namespace overlay = ncast::overlay;
  std::vector<double> join_ns, leave_ns, repair_ns;
  Rng rng(seed);
  for (int fleet = 0; fleet < 64; ++fleet) {
    overlay::CurtainServer server(k, d, Rng(rng()), overlay::InsertPolicy::kRandomPosition);
    std::vector<overlay::NodeId> nodes;
    nodes.reserve(clients);
    for (std::uint32_t i = 0; i < clients; ++i) {
      const std::uint64_t t0 = now_ns();
      nodes.push_back(server.join().node);
      join_ns.push_back(static_cast<double>(now_ns() - t0));
    }
    rng.shuffle(nodes);
    const std::size_t tenth = std::max<std::size_t>(1, clients / 10);
    for (std::size_t i = 0; i < tenth && i < nodes.size(); ++i) {
      const std::uint64_t t0 = now_ns();
      server.leave(nodes[i]);
      leave_ns.push_back(static_cast<double>(now_ns() - t0));
    }
    for (std::size_t i = tenth; i < 2 * tenth && i < nodes.size(); ++i) {
      server.report_failure(nodes[i]);
      const std::uint64_t t0 = now_ns();
      server.repair(nodes[i]);
      repair_ns.push_back(static_cast<double>(now_ns() - t0));
    }
  }
  return OverlayReplay{percentile(join_ns, 0.5), percentile(join_ns, 0.99),
                       percentile(leave_ns, 0.5), percentile(repair_ns, 0.5)};
}

}  // namespace ledger
