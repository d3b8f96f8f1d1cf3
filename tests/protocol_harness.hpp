#pragma once
// Shared harness for the message-plane suites that drive endpoints by hand:
// the sequential case of the protocol runtime — a one-shard ShardedEngine
// run inline, with a lossless fixed-latency (1.0) ShardedTransport on top.
// Address a runs on lane a, as in node::run_scenario_sharded.

#include <memory>
#include <vector>

#include "node/sharded_transport.hpp"
#include "sim/sharded_engine.hpp"

namespace ncast::node {

struct Fabric {
  /// Addresses 0..255 (the suites use fewer); lane epoch = link latency.
  Fabric()
      : engine(/*shards=*/1, /*workers=*/0, /*epoch=*/1.0),
        net(engine, TransportSpec{}, /*seed=*/1, /*max_addresses=*/256) {}

  /// Advances simulated time by `dt`.
  void run(double dt) { engine.run_until(engine.now() + dt); }

  /// Runs in unit slices until `done()` holds or `budget` time passes.
  template <class Done>
  bool run_until(Done done, double budget) {
    for (double t = 0.0; t < budget; t += 1.0) {
      run(1.0);
      if (done()) return true;
    }
    return false;
  }

  /// Crashes an endpoint: it goes dark and the fabric blackholes it.
  template <class Node>
  void crash(Node& node) {
    node.crash();
    net.crash(node.address());
  }

  sim::ShardedEngine engine;
  ShardedTransport net;
};

/// True iff at least one node is live (neither crashed nor departed) and
/// every live node decoded.
template <class Node>
bool all_live_decoded(const std::vector<std::unique_ptr<Node>>& nodes) {
  bool any = false;
  for (const auto& n : nodes) {
    if (n->crashed() || n->departed()) continue;
    if (!n->decoded()) return false;
    any = true;
  }
  return any;
}

}  // namespace ncast::node
