// Protocol-level tests: real ServerNode/ClientNode endpoints exchanging
// hello/good-bye/complaint/repair/data messages over a lossless
// fixed-latency fabric. This is the paper's Section 3, executed message by
// message.

#include <gtest/gtest.h>

#include <memory>

#include "coding/encoder.hpp"
#include "coding/null_keys.hpp"
#include "coding/wire.hpp"
#include "node/client_node.hpp"
#include "node/server_node.hpp"
#include "protocol_harness.hpp"
#include "util/rng.hpp"

namespace ncast {
namespace {

using namespace node;

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> bytes(n);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.below(256));
  return bytes;
}

struct Fixture {
  ServerConfig scfg;
  ClientConfig ccfg;
  Fabric fabric;
  std::unique_ptr<ServerNode> server;
  std::vector<std::unique_ptr<ClientNode>> clients;

  /// The suite's default stream: `n_clients` join at t = 0.
  explicit Fixture(std::size_t n_clients, std::uint32_t k = 8,
                   std::uint32_t d = 3, std::size_t g = 8,
                   std::size_t generations = 1)
      : Fixture(config(k, d, g), random_bytes(g * 8 * generations, 99)) {
    ccfg.silence_timeout = 6;
    for (std::size_t i = 0; i < n_clients; ++i) {
      add_client(static_cast<Address>(i + 1));
    }
  }

  /// A started server and no clients yet.
  Fixture(ServerConfig config, std::vector<std::uint8_t> content)
      : scfg(config),
        server(std::make_unique<ServerNode>(scfg, std::move(content))) {
    server->start(fabric.engine.lane(kServerAddress), fabric.net);
  }

  static ServerConfig config(std::uint32_t k, std::uint32_t d, std::size_t g) {
    ServerConfig c;
    c.k = k;
    c.default_degree = d;
    c.repair_delay = 2;
    c.generation_size = g;
    c.symbols = 8;
    c.seed = 7;
    return c;
  }

  ClientNode& add_client(Address addr, std::uint32_t degree = 0) {
    clients.push_back(std::make_unique<ClientNode>(addr, ccfg));
    clients.back()->start(fabric.engine.lane(addr), fabric.net, degree);
    return *clients.back();
  }

  bool run_until_decoded(double budget) {
    return fabric.run_until([this] { return all_live_decoded(clients); },
                            budget);
  }
};

TEST(NodeProtocol, JoinAssignsThreadsAndBuildsMatrix) {
  Fixture f(5);
  f.fabric.run(3);
  for (auto& c : f.clients) {
    EXPECT_TRUE(c->joined());
    EXPECT_TRUE(f.server->matrix().contains(c->address()));
    EXPECT_EQ(f.server->matrix().row(c->address()).threads.size(), 3u);
  }
  EXPECT_EQ(f.server->matrix().row_count(), 5u);
}

TEST(NodeProtocol, StreamingDecodesEveryone) {
  Fixture f(20);
  EXPECT_TRUE(f.run_until_decoded(300));
  for (auto& c : f.clients) {
    ASSERT_TRUE(c->decoded());
    EXPECT_EQ(c->data(), f.server->data());
  }
}

TEST(NodeProtocol, GracefulLeaveRewiresStream) {
  Fixture f(12);
  f.fabric.run(5);  // everyone joined
  // The 3rd client leaves; everyone else must still decode.
  f.clients[2]->leave(f.fabric.net);
  f.fabric.run(3);
  EXPECT_FALSE(f.server->matrix().contains(f.clients[2]->address()));

  std::vector<ClientNode*> rest;
  for (std::size_t i = 0; i < f.clients.size(); ++i) {
    if (i != 2) rest.push_back(f.clients[i].get());
  }
  EXPECT_TRUE(f.run_until_decoded(400));
  for (auto* c : rest) EXPECT_TRUE(c->decoded());
}

TEST(NodeProtocol, CrashComplaintRepairRecovers) {
  Fixture f(15, 8, 2, 12);
  f.fabric.run(4);

  // Crash an early client (likely to have children).
  ClientNode& victim = *f.clients[1];
  f.fabric.crash(victim);

  // The stream must still reach everyone else: children detect silence,
  // complain, the server repairs, parents redirect. Note decoding usually
  // finishes *before* the repair lands (redundancy covers the outage — the
  // containment story), so run past the silence timeout to observe the
  // repair machinery itself.
  EXPECT_TRUE(f.run_until_decoded(600));
  f.fabric.run(f.ccfg.silence_timeout * 3 + f.scfg.repair_delay + 4);
  EXPECT_FALSE(f.server->matrix().contains(victim.address()));
  EXPECT_EQ(f.server->matrix().failed_count(), 0u);
  EXPECT_GE(f.server->repairs_done(), 1u);
}

TEST(NodeProtocol, MultipleCrashesAllRepaired) {
  Fixture f(25, 12, 3, 10);
  f.fabric.run(4);
  f.fabric.crash(*f.clients[0]);
  f.fabric.crash(*f.clients[4]);
  f.fabric.crash(*f.clients[9]);
  EXPECT_TRUE(f.run_until_decoded(800));
  // Let the complaint -> repair cycle complete for all three victims.
  f.fabric.run(f.ccfg.silence_timeout * 4 + f.scfg.repair_delay + 8);
  EXPECT_EQ(f.server->matrix().failed_count(), 0u);
  EXPECT_EQ(f.server->matrix().row_count(), 22u);
  for (auto& c : f.clients) {
    if (c->crashed()) continue;
    EXPECT_TRUE(c->decoded());
    EXPECT_EQ(c->data(), f.server->data());
  }
}

TEST(NodeProtocol, LateJoinersCatchUp) {
  Fixture f(10);
  f.fabric.run(40);
  // A new client joins mid-stream.
  ClientNode& late = f.add_client(100);
  f.fabric.run(100);
  EXPECT_TRUE(late.decoded());
  EXPECT_EQ(late.data(), f.server->data());
}

TEST(NodeProtocol, ControlTrafficIsTiny) {
  Fixture f(30);
  EXPECT_TRUE(f.run_until_decoded(400));
  const auto& net = f.fabric.net;
  // Control is O(d) per membership event (join request + accept + <= d
  // parent attachments), independent of stream length: 30 joins here.
  const auto control_after_joins = net.control_messages();
  EXPECT_LE(control_after_joins, 30u * (2 + 3 + 1));
  // With membership stable, a longer stream adds data but zero control —
  // the message-level version of the server-scalability claim.
  f.fabric.run(100);
  EXPECT_EQ(net.control_messages(), control_after_joins);
  EXPECT_GT(net.data_messages(), net.control_messages() * 5);
}

TEST(NodeProtocol, MultiGenerationFileStreams) {
  // A 4-generation content object: the protocol layer must deliver and
  // reassemble the whole file, not just one generation.
  Fixture f(16, 8, 3, 8, /*generations=*/4);
  EXPECT_EQ(f.server->plan().generations, 4u);
  EXPECT_TRUE(f.run_until_decoded(1200));
  for (auto& c : f.clients) {
    ASSERT_TRUE(c->decoded());
    EXPECT_EQ(c->data(), f.server->data());
  }
}

TEST(NodeProtocol, NullKeysDistributedInJoinAccept) {
  ServerConfig scfg;
  scfg.k = 8;
  scfg.default_degree = 2;
  scfg.generation_size = 6;
  scfg.symbols = 8;
  scfg.null_keys = 3;
  Fixture f(scfg, random_bytes(6 * 8 * 2, 5));
  for (Address a = 1; a <= 10; ++a) f.add_client(a);
  f.fabric.run(3);
  for (auto& c : f.clients) {
    EXPECT_TRUE(c->joined());
    EXPECT_TRUE(c->verification_enabled());
  }
  // Verification must not interfere with honest streaming.
  EXPECT_TRUE(f.run_until_decoded(400));
  for (auto& c : f.clients) {
    EXPECT_EQ(c->data(), f.server->data());
    EXPECT_EQ(c->packets_rejected(), 0u);
  }
}

TEST(NodeProtocol, VerifyingClientsRejectForgedData) {
  ServerConfig scfg;
  scfg.k = 6;
  scfg.default_degree = 2;
  scfg.generation_size = 4;
  scfg.symbols = 8;
  scfg.null_keys = 4;
  Fixture f(scfg, random_bytes(4 * 8, 6));
  ClientNode& client = f.add_client(1);
  f.fabric.run(3);
  ASSERT_TRUE(client.verification_enabled());

  // Forge a well-formed but inconsistent packet and inject it.
  Rng rng(7);
  coding::CodedPacket<gf::Gf256> forged;
  forged.generation = 0;
  forged.coeffs.assign(4, 0);
  forged.coeffs[0] = 1;
  forged.payload.resize(8);
  for (auto& b : forged.payload) b = static_cast<std::uint8_t>(rng.below(256));

  Message evil;
  evil.type = MessageType::kData;
  evil.from = 99;
  evil.to = 1;
  evil.column = 0;
  evil.wire = coding::serialize(forged);
  const auto rejected_before = client.packets_rejected();
  f.fabric.net.send(evil);
  f.fabric.run(1);
  EXPECT_EQ(client.packets_rejected(), rejected_before + 1);

  // The stream still completes correctly around the forgery.
  EXPECT_TRUE(f.run_until_decoded(200));
  EXPECT_EQ(client.data(), f.server->data());
}

TEST(NodeProtocol, KeyBundleRoundTrip) {
  Rng rng(8);
  std::vector<std::vector<std::uint8_t>> source(5, std::vector<std::uint8_t>(7));
  for (auto& row : source) {
    for (auto& b : row) b = static_cast<std::uint8_t>(rng.below(256));
  }
  const auto keys = coding::NullKeySet<gf::Gf256>::generate(9, source, 3, rng);
  const auto bytes = keys.serialize();
  const auto parsed = coding::NullKeySet<gf::Gf256>::deserialize(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->generation(), 9u);
  EXPECT_EQ(parsed->key_count(), 3u);

  // Parsed keys verify exactly what the originals verify.
  coding::SourceEncoder<gf::Gf256> enc(9, source);
  for (int i = 0; i < 50; ++i) {
    const auto p = enc.emit(rng);
    EXPECT_TRUE(parsed->verify(p));
    auto bad = p;
    bad.payload[0] ^= 0x5A;
    EXPECT_FALSE(parsed->verify(bad));
  }

  // Malformed bundles are rejected.
  EXPECT_FALSE(coding::NullKeySet<gf::Gf256>::deserialize({}).has_value());
  auto truncated = bytes;
  truncated.pop_back();
  EXPECT_FALSE(coding::NullKeySet<gf::Gf256>::deserialize(truncated).has_value());
  auto zeroed = bytes;
  zeroed[4] = 0;
  zeroed[5] = 0;  // g = 0
  EXPECT_FALSE(coding::NullKeySet<gf::Gf256>::deserialize(zeroed).has_value());
}

TEST(NodeProtocol, CongestionOffloadShedsOneThread) {
  Fixture f(12, 8, 3, 8);
  f.fabric.run(3);
  ClientNode& node = *f.clients[4];
  ASSERT_EQ(node.degree(), 3u);

  node.request_offload(f.fabric.net);
  f.fabric.run(3);
  EXPECT_EQ(node.degree(), 2u);
  EXPECT_EQ(f.server->matrix().row(node.address()).threads.size(), 2u);

  // The stream must keep flowing for everyone, including the shedder.
  EXPECT_TRUE(f.run_until_decoded(400));
}

TEST(NodeProtocol, CongestionRestoreReturnsThread) {
  Fixture f(12, 8, 3, 8);
  f.fabric.run(3);
  ClientNode& node = *f.clients[4];
  node.request_offload(f.fabric.net);
  f.fabric.run(3);
  ASSERT_EQ(node.degree(), 2u);

  node.request_restore(f.fabric.net);
  f.fabric.run(3);
  EXPECT_EQ(node.degree(), 3u);
  EXPECT_EQ(f.server->matrix().row(node.address()).threads.size(), 3u);
  EXPECT_TRUE(f.run_until_decoded(400));
}

TEST(NodeProtocol, OffloadCannotDropLastThread) {
  Fixture f(6, 8, 2, 6);
  f.fabric.run(3);
  ClientNode& node = *f.clients[0];
  node.request_offload(f.fabric.net);
  f.fabric.run(2);
  EXPECT_EQ(node.degree(), 1u);
  // The server must refuse to empty the row.
  node.request_offload(f.fabric.net);
  f.fabric.run(2);
  EXPECT_EQ(node.degree(), 1u);
  EXPECT_EQ(f.server->matrix().row(node.address()).threads.size(), 1u);
}

TEST(NodeProtocol, OffloadSplicesDownstreamCorrectly) {
  // After node X sheds column c, X's former child on c must be fed by X's
  // former parent on c — verified through actual decode completion and
  // matrix consistency under repeated offloads.
  Fixture f(20, 8, 3, 8);
  f.fabric.run(3);
  Rng rng(42);
  for (int i = 0; i < 10; ++i) {
    f.clients[rng.below(20)]->request_offload(f.fabric.net);
    f.fabric.run(2);
    ASSERT_TRUE(f.server->matrix().check_invariants());
  }
  EXPECT_TRUE(f.run_until_decoded(600));
  for (auto& c : f.clients) EXPECT_EQ(c->data(), f.server->data());
}

TEST(NodeProtocol, HeterogeneousDegreeJoins) {
  // Section 5 at message level: DSL peers request d=2, fiber peers d=5, on
  // the same curtain; everyone streams at their own width.
  ServerConfig scfg;
  scfg.k = 10;
  scfg.default_degree = 3;
  scfg.generation_size = 8;
  scfg.symbols = 8;
  Fixture f(scfg, std::vector<std::uint8_t>(64, 7));
  for (Address a = 1; a <= 12; ++a) f.add_client(a, a % 2 == 1 ? 2u : 5u);
  f.fabric.run(3);
  for (std::size_t i = 0; i < f.clients.size(); ++i) {
    EXPECT_EQ(f.server->matrix().row(f.clients[i]->address()).threads.size(),
              i % 2 == 0 ? 2u : 5u);
    EXPECT_EQ(f.clients[i]->degree(), i % 2 == 0 ? 2u : 5u);
  }
  // Out-of-range requests fall back to the default.
  f.add_client(99, 11);  // > k
  f.fabric.run(3);
  EXPECT_EQ(f.server->matrix().row(99).threads.size(), 3u);

  EXPECT_TRUE(f.run_until_decoded(400));
}

TEST(NodeProtocol, ClientValidation) {
  ClientConfig cfg;
  EXPECT_THROW(ClientNode(kServerAddress, cfg), std::invalid_argument);
}

}  // namespace
}  // namespace ncast
