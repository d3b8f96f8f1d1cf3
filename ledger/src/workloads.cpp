// The ledger's workloads; see workloads.hpp and ../README.md.
//
// Load model: simulated time is open loop. Every arrival (join, leave,
// crash) is drawn from the seed before the run and scheduled at its time,
// whatever state the system is in when it comes due.

#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "coding/structure.hpp"
#include "gf/dispatch.hpp"
#include "node/protocol_scenario.hpp"
#include "obs/metrics.hpp"
#include "overlay/curtain_server.hpp"
#include "replay.hpp"
#include "sim/fault_plan.hpp"
#include "sim/sharded_engine.hpp"
#include "util/rng.hpp"

namespace ledger {
namespace {

using ncast::Rng;
namespace overlay = ncast::overlay;
namespace sim = ncast::sim;

/// Link latency U[0.5, 1.5) of message `key`, a pure function of the seed,
/// so any lane can compute it without shared RNG state.
double link_latency(std::uint64_t seed, std::uint64_t key) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (key + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return 0.5 + static_cast<double>(z >> 11) * 0x1.0p-53;
}

constexpr double kMinLatency = 0.5;
constexpr int kScaleSetups = 3;
constexpr int kStreamSetups = 25;

/// obs counter value, or -1 when the build compiled obs out.
double obs_counter(const char* name) {
  if constexpr (NCAST_OBS_ENABLED) {
    return static_cast<double>(ncast::obs::metrics().counter(name).value());
  }
  return -1.0;
}

/// Adds an obs-derived per-layer metric; absent (not 0) in an obs-off build.
void add_obs_metric(JsonObject& layers, const char* key, double value) {
  if (value >= 0.0) layers.num(key, value);
}

/// The per-layer metrics every workload reports from the layer replays.
struct LayerSpeeds {
  double madd_32 = 0.0;    ///< ns per 32-byte madd
  double madd_1k = 0.0;    ///< ns per 1 KiB madd
  CodecReplay codec;
  double engine_ns = 0.0;  ///< replayed engine ns per event
  OverlayReplay overlay_ops;
};

void add_speeds(JsonObject& layers, const LayerSpeeds& s) {
  layers.num("gf.madd_gbps_32B", 32.0 / s.madd_32);
  layers.num("gf.madd_gbps_1KiB", 1024.0 / s.madd_1k);
  layers.num("coding.serialize_ns", s.codec.serialize_ns);
  layers.num("coding.deserialize_ns", s.codec.deserialize_ns);
  layers.num("coding.absorb_ns", s.codec.absorb_ns);
  layers.num("coding.recoder_absorb_ns", s.codec.recoder_absorb_ns);
  layers.num("coding.recode_ns", s.codec.recode_ns);
  layers.num("node.absorb_wire_ns", s.codec.absorb_wire_ns);
  layers.num("sim.replay_ns_per_event", s.engine_ns);
}

/// Busy shares are shares of the run's CPU time, the time the layers' busy
/// estimates are measured in; trace.run_cpu_s / trace.run_wall_s says how
/// far it is from wall time.
void add_shares(JsonObject& layers, const double busy[SpanLog::kLayers],
                double run_cpu_s, double run_wall_s) {
  layers.num("trace.run_wall_s", run_wall_s);
  layers.num("trace.run_cpu_s", run_cpu_s);
  double attributed = 0.0;
  for (int l = 0; l < SpanLog::kLayers; ++l) {
    const double share = busy[l] / run_cpu_s;
    attributed += share;
    layers.num(std::string(SpanLog::layer_name(static_cast<SpanLog::Layer>(l))) +
                   ".busy_share",
               share);
  }
  layers.num("unattributed.busy_share", 1.0 - attributed);
}

void add_self_times(JsonObject& layers, std::size_t run_spans) {
  const std::vector<double> self = spans().self_seconds(run_spans);
  for (int l = 0; l < SpanLog::kLayers; ++l) {
    layers.num(std::string(SpanLog::layer_name(static_cast<SpanLog::Layer>(l))) +
                   ".self_s",
               self[static_cast<std::size_t>(l)]);
  }
}

/// Span names, indexed by SpanName.
const std::vector<std::string>& span_names() {
  static const std::vector<std::string> kNames = {
      "run_until",      "join",          "leave",        "report_failure",
      "repair",         "run_scenario_sharded",          "replay.gf",
      "replay.coding",  "replay.node",   "replay.sim",   "replay.overlay"};
  return kNames;
}

void write_spans(const RunOptions& opt, RepResult& r) {
  if (!opt.spans_out.empty() && !spans().write_jsonl(opt.spans_out, span_names())) {
    r.fail("could not write spans to " + opt.spans_out);
  }
}

// ---------------------------------------------------------------------------
// scale_churn: a join wave plus Poisson churn on the curtain server, driven
// through the sharded engine. Each client owns a lane; the server is lane 0.

struct ScaleConfig {
  std::uint32_t clients = 300000;
  std::uint32_t k = 64;
  std::uint32_t d = 3;
  double join_window = 60.0;   ///< Poisson join arrivals over [0, 60)
  double churn_start = 65.0;
  double churn_window = 30.0;  ///< Poisson churn over [65, 95)
  double silence = 1.0;        ///< crash -> children's complaint
  double repair_delay = 2.0;   ///< failure report -> splice-out
  double horizon = 110.0;
};

struct ChurnOp {
  double at = 0.0;
  std::uint32_t client = 0;
  bool crash = false;
};

// Message keys for link_latency: client i's hello/accept/attach j, and
// churn op c's notice.
std::uint64_t key_hello(std::uint32_t i) { return std::uint64_t{i} << 3; }
std::uint64_t key_accept(std::uint32_t i) { return (std::uint64_t{i} << 3) | 1; }
std::uint64_t key_attach(std::uint32_t i, std::uint32_t j) {
  return (std::uint64_t{i} << 3) | (2 + j);
}
std::uint64_t key_churn(std::uint32_t c) { return (std::uint64_t{1} << 40) + c; }

/// State of one scale_churn repetition. Fields are written only from the
/// lane named beside them.
struct ScaleRun {
  ScaleConfig cfg;
  std::uint64_t seed = 0;
  sim::ShardedEngine engine;
  overlay::CurtainServer server;
  std::int32_t run_span = -1;

  std::vector<double> join_at;                  // setup
  std::vector<ChurnOp> churn;                   // setup
  std::vector<overlay::NodeId> node_of;         // lane 0
  std::vector<std::uint32_t> client_of_node;    // lane 0
  std::vector<std::uint8_t> parent_count;       // lane 0
  std::vector<std::uint8_t> gone;               // lane 0
  std::vector<double> accept_at;                // client i's lane
  std::vector<double> attach_at;                // parent's lane, slot i*d+j
  std::uint64_t leaves = 0, crashes = 0, repairs = 0, skipped = 0;  // lane 0
  double max_repair_latency = 0.0;              // lane 0

  ScaleRun(const ScaleConfig& c, std::uint64_t s)
      : cfg(c),
        seed(s),
        engine(kShards, kWorkers, kMinLatency),
        server(c.k, c.d, Rng(s ^ 0x5CA1EULL), overlay::InsertPolicy::kRandomPosition) {}

  static sim::LaneId lane_of(std::uint32_t client) { return client + 1; }

  void build_schedule() {
    const std::uint32_t n = cfg.clients;
    Rng rng(seed);
    join_at.resize(n);
    double t = 0.0;
    const double join_rate = static_cast<double>(n) / cfg.join_window;
    for (std::uint32_t i = 0; i < n; ++i) {
      t += rng.exponential(join_rate);
      join_at[i] = t;
    }
    const std::uint32_t ops = n / 20;
    churn.resize(ops);
    t = cfg.churn_start;
    const double churn_rate = static_cast<double>(ops) / cfg.churn_window;
    for (ChurnOp& op : churn) {
      t += rng.exponential(churn_rate);
      op.at = t;
      op.client = static_cast<std::uint32_t>(rng.below(n));
      op.crash = rng.chance(0.5);
    }
    node_of.assign(n, overlay::kServerNode);
    client_of_node.assign(n, 0);
    parent_count.assign(n, 0);
    gone.assign(n, 0);
    accept_at.assign(n, -1.0);
    attach_at.assign(static_cast<std::size_t>(n) * cfg.d, -1.0);
    engine.reserve_lanes(static_cast<std::size_t>(n) + 1);
    for (std::uint32_t i = 0; i < n; ++i) {
      engine.schedule_on(lane_of(i), join_at[i], [this, i] { send_hello(i); });
    }
    for (std::uint32_t c = 0; c < ops; ++c) {
      engine.schedule_on(lane_of(churn[c].client), churn[c].at,
                         [this, c] { churn_notice(c); });
    }
  }

  // Client lane: the hello leaves at the scheduled arrival time.
  void send_hello(std::uint32_t i) {
    engine.schedule_on(0, engine.now() + link_latency(seed, key_hello(i)),
                       [this, i] { admit(i); });
  }

  // Server lane: admit, answer the client, order each parent to feed it.
  void admit(std::uint32_t i) {
    overlay::JoinTicket ticket;
    {
      ScopedSpan span(SpanLog::kOverlay, kSpanJoin, run_span);
      ticket = server.join();
    }
    node_of[i] = ticket.node;
    // CurtainServer numbers nodes 0, 1, ... in join order.
    if (ticket.node < client_of_node.size()) client_of_node[ticket.node] = i;
    engine.schedule_on(lane_of(i), engine.now() + link_latency(seed, key_accept(i)),
                       [this, i] { accept_at[i] = engine.now(); });
    const std::uint32_t parents =
        static_cast<std::uint32_t>(std::min<std::size_t>(ticket.parents.size(), cfg.d));
    parent_count[i] = static_cast<std::uint8_t>(parents);
    for (std::uint32_t j = 0; j < parents; ++j) {
      const overlay::NodeId p = ticket.parents[j];
      // kServerNode (the server itself) is out of range: lane 0.
      const sim::LaneId lane = p < client_of_node.size() ? lane_of(client_of_node[p]) : 0;
      const std::size_t slot = static_cast<std::size_t>(i) * cfg.d + j;
      engine.schedule_on(lane, engine.now() + link_latency(seed, key_attach(i, j)),
                         [this, slot] { attach_at[slot] = engine.now(); });
    }
  }

  // Client lane: a graceful leave sends its good-bye now; a crash is only
  // noticed when the children's silence timers fire and one complains.
  void churn_notice(std::uint32_t c) {
    const ChurnOp op = churn[c];
    const double delay =
        (op.crash ? cfg.silence : 0.0) + link_latency(seed, key_churn(c));
    engine.schedule_on(0, engine.now() + delay, [this, c] { churn_arrival(c); });
  }

  // Server lane.
  void churn_arrival(std::uint32_t c) {
    const ChurnOp op = churn[c];
    if (gone[op.client] != 0) {
      ++skipped;  // the victim already left or crashed
      return;
    }
    gone[op.client] = 1;
    const overlay::NodeId node = node_of[op.client];
    if (!op.crash) {
      ++leaves;
      ScopedSpan span(SpanLog::kOverlay, kSpanLeave, run_span);
      server.leave(node);
      return;
    }
    ++crashes;
    {
      ScopedSpan span(SpanLog::kOverlay, kSpanReportFailure, run_span);
      server.report_failure(node);
    }
    const double crashed_at = op.at;
    engine.schedule_on(0, engine.now() + cfg.repair_delay, [this, node, crashed_at] {
      {
        ScopedSpan span(SpanLog::kOverlay, kSpanRepair, run_span);
        server.repair(node);
      }
      ++repairs;
      max_repair_latency = std::max(max_repair_latency, engine.now() - crashed_at);
    });
  }
};

RepResult run_scale_churn(const RunOptions& opt) {
  RepResult r;
  ScaleConfig cfg;
  if constexpr (kTraced) spans().reserve(cfg.clients + cfg.clients / 10 + 64);

  // Set-up (engine lanes, server, schedule) is built kScaleSetups times and
  // the median build reported; the last build is the one that runs.
  std::unique_ptr<ScaleRun> run;
  std::vector<double> setups;
  for (int i = 0; i < kScaleSetups; ++i) {
    run.reset();
    const std::uint64_t setup_t0 = now_ns();
    run = std::make_unique<ScaleRun>(cfg, opt.seed);
    run->build_schedule();
    setups.push_back(seconds_since(setup_t0));
  }
  r.setup_s = median(setups);

  if constexpr (NCAST_OBS_ENABLED) ncast::obs::metrics().reset_values();
  std::size_t events = 0;
  const std::uint64_t cpu_t0 = cpu_ns();
  const std::uint64_t wall_t0 = now_ns();
  {
    ScopedSpan span(SpanLog::kSim, kSpanRunUntil);
    run->run_span = span.index();
    events = run->engine.run_until(cfg.horizon);
  }
  r.wall_s = seconds_since(wall_t0);
  const double run_cpu_s = static_cast<double>(cpu_ns() - cpu_t0) * 1e-9;
  const std::size_t run_spans = kTraced ? spans().spans().size() : 0;

  // Outputs and the correctness gate.
  ScaleRun& s = *run;
  const auto& m = s.server.matrix();
  const std::uint64_t n = cfg.clients;
  const std::uint64_t admitted = s.server.stats().joins;
  std::vector<double> join_latency, attach_delay;
  join_latency.reserve(n);
  attach_delay.reserve(n);
  std::uint64_t unanswered = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (s.accept_at[i] < 0.0) {
      ++unanswered;
      continue;
    }
    double ready = s.accept_at[i];
    for (std::uint32_t j = 0; j < s.parent_count[i]; ++j) {
      const double a = s.attach_at[static_cast<std::size_t>(i) * cfg.d + j];
      if (a < 0.0) {
        ready = -1.0;
        break;
      }
      ready = std::max(ready, a);
    }
    if (ready < 0.0) {
      ++unanswered;
      continue;
    }
    join_latency.push_back(s.accept_at[i] - s.join_at[i]);
    attach_delay.push_back(ready - s.join_at[i]);
  }
  r.attempted = n + s.crashes;
  r.failed = (n - std::min(n, admitted)) + (s.crashes - std::min(s.crashes, s.repairs));
  const std::uint64_t expected_rows = n - s.leaves - s.repairs;
  if (admitted != n) r.fail("not every join was admitted");
  if (unanswered != 0) r.fail(std::to_string(unanswered) + " joins never fully attached");
  if (s.repairs != s.crashes) r.fail("not every crash was repaired");
  if (m.row_count() != expected_rows) r.fail("matrix rows do not balance to the op counts");
  if (m.failed_count() != 0) r.fail("failed rows remain in the matrix");
  if (s.engine.clamped_posts() != 0) r.fail("the engine clamped a cross-lane post");
  if (!m.check_invariants()) r.fail("thread matrix invariants violated");

  r.metrics.num("decode_delay_p50_s", percentile(attach_delay, 0.50));
  r.metrics.num("decode_delay_p95_s", percentile(attach_delay, 0.95));
  r.metrics.num("join_latency_p50_s", percentile(join_latency, 0.50));
  r.metrics.num("join_latency_p95_s", percentile(join_latency, 0.95));
  r.metrics.num("repair_converge_s", s.max_repair_latency);
  // No data plane runs here: no byte is sent and none is decoded.
  r.metrics.num("data_bytes_per_decoded_byte", 1.0);

  r.counts.count("events", events);
  r.counts.count("joins", admitted);
  r.counts.count("leaves", s.leaves);
  r.counts.count("crashes", s.crashes);
  r.counts.count("repairs", s.repairs);
  r.counts.count("skipped", s.skipped);
  r.counts.count("rows", m.row_count());
  r.counts.count("handoffs", s.engine.cross_shard_handoffs());
  r.counts.count("epochs", s.engine.epochs_run());

  if constexpr (kTraced) {
    JsonObject& L = r.layers;
    L.num("gf.tier", static_cast<double>(ncast::gf::active_tier()));
    const auto joins = spans().durations_ns(kSpanJoin);
    const auto leaves = spans().durations_ns(kSpanLeave);
    const auto repairs = spans().durations_ns(kSpanRepair);
    const std::vector<double> self = spans().self_seconds(run_spans);
    const double overlay_busy = self[SpanLog::kOverlay];
    L.num("overlay.join_ns_p50", percentile(joins, 0.50));
    L.num("overlay.join_ns_p99", percentile(joins, 0.99));
    L.num("overlay.leave_ns_p50", percentile(leaves, 0.50));
    L.num("overlay.repair_ns_p50", percentile(repairs, 0.50));
    L.num("overlay.busy_s", overlay_busy);
    L.num("sim.events", static_cast<double>(events));
    L.num("sim.ns_per_event", (r.wall_s - overlay_busy) * 1e9 / static_cast<double>(events));
    L.num("sim.handoffs", static_cast<double>(s.engine.cross_shard_handoffs()));
    L.num("sim.epochs", static_cast<double>(s.engine.epochs_run()));
    L.num("sim.clamped_posts", static_cast<double>(s.engine.clamped_posts()));
    // The node, coding and gf layers do no work in this workload.
    for (const char* key : {"node.data_messages", "node.control_messages",
                            "node.control_bytes", "node.control_dropped",
                            "node.join_retries", "node.complaints",
                            "node.useful_share", "node.transport_ns", "gf.madd_calls",
                            "gf.madd_mean_bytes"}) {
      L.num(key, 0.0);
    }
    LayerSpeeds speeds;
    speeds.madd_32 = replay_madd_ns(32, opt.seed);
    speeds.madd_1k = replay_madd_ns(1024, opt.seed);
    CodecShape reference;  // stream_small's geometry
    speeds.codec = replay_codec(reference, 2 * reference.generation_size, opt.seed);
    speeds.engine_ns = replay_engine_ns_per_event(kMinLatency, cfg.clients + 1, opt.seed);
    add_speeds(L, speeds);
    add_self_times(L, run_spans);
    double busy[SpanLog::kLayers] = {};
    // Everything run_until spends outside the curtain calls is engine
    // dispatch plus the ledger's own few-instruction handlers.
    busy[SpanLog::kOverlay] = overlay_busy;
    busy[SpanLog::kSim] = std::max(0.0, run_cpu_s - overlay_busy);
    add_shares(L, busy, run_cpu_s, r.wall_s);
    write_spans(opt, r);
  }
  return r;
}

// ---------------------------------------------------------------------------
// stream_small / stream_large: the message-plane protocol broadcasting RLNC
// content through ServerNode/ClientNode on run_scenario_sharded.

struct StreamConfig {
  std::uint32_t clients = 200;
  std::uint32_t k = 64;
  std::uint32_t d = 3;
  CodecShape codec;
  double join_start = 1.0;
  double join_spacing = 0.1;  ///< mean of the exponential join gaps
  std::uint32_t early = 10;   ///< crash victims come from the first joiners
  double crash_from = 30.0;   ///< crash times ~ U[crash_from, crash_from+10)
  double control_loss = 0.10;
  /// Covers a client whose first 8 hello exchanges are all lost (retries
  /// back off 4, 8, ... 64, 64 s) and which then still needs ~100 s to
  /// decode: about 2e-6 per client at 10% control loss.
  double horizon = 500.0;
};

StreamConfig stream_config(const std::string& name) {
  StreamConfig c;
  if (name == "stream_small") {
    c.codec.symbols = 16;
    c.codec.structure = ncast::coding::StructureSpec::dense();
  } else {
    c.codec.symbols = 1024;
    c.codec.structure = ncast::coding::StructureSpec::overlapping(8, 2);
  }
  return c;
}

/// The seeded inputs of one stream run: the spec the program receives and
/// the schedule facts the metrics are measured against.
struct StreamInputs {
  ncast::node::ProtocolScenarioSpec spec;
  std::vector<double> start_at;  ///< join index -> scheduled start
  std::array<std::uint32_t, 2> victims{};  ///< join indices that crash
  double first_crash = 0.0;
};

StreamInputs make_stream_inputs(const StreamConfig& cfg, std::uint64_t seed) {
  StreamInputs in;
  ncast::node::ProtocolScenarioSpec& spec = in.spec;
  spec.k = cfg.k;
  spec.default_degree = cfg.d;
  spec.generation_size = cfg.codec.generation_size;
  spec.generations = cfg.codec.generations;
  spec.symbols = cfg.codec.symbols;
  spec.structure = cfg.codec.structure;
  spec.silence_timeout = 8;
  spec.repair_delay = 2.0;
  spec.join_retry = 4.0;
  spec.horizon = cfg.horizon;
  spec.seed = seed;
  spec.transport.latency = sim::LatencySpec::uniform(kMinLatency, 1.5);
  spec.transport.control_loss = sim::LossSpec::bernoulli(cfg.control_loss);
  Rng rng(seed ^ 0x57AEA3ULL);
  in.start_at.resize(cfg.clients);
  double t = cfg.join_start;
  for (std::uint32_t i = 0; i < cfg.clients; ++i) {
    in.start_at[i] = t;
    spec.faults.join_at(t);
    t += rng.exponential(1.0 / cfg.join_spacing);
  }
  const auto first = static_cast<std::uint32_t>(rng.below(cfg.early));
  auto second = static_cast<std::uint32_t>(rng.below(cfg.early - 1));
  if (second >= first) ++second;
  const double crash_a = cfg.crash_from + 10.0 * rng.uniform();
  const double crash_b = cfg.crash_from + 10.0 * rng.uniform();
  spec.faults.crash_join_at(crash_a, first);
  spec.faults.crash_join_at(crash_b, second);
  in.victims = {first, second};
  in.first_crash = std::min(crash_a, crash_b);
  return in;
}

RepResult run_stream(const RunOptions& opt) {
  RepResult r;
  const StreamConfig cfg = stream_config(opt.workload);
  if constexpr (kTraced) spans().reserve(64);

  // Set-up is the seeded inputs plus everything run_scenario_sharded builds
  // before its first join: content, ServerNode and its encoder, transport,
  // every ClientNode and the engine lanes. It is timed as a run of the same
  // spec whose horizon ends before the first join, kStreamSetups times, and
  // the median reported.
  StreamInputs in;
  std::vector<double> setups;
  for (int i = 0; i < kStreamSetups; ++i) {
    const std::uint64_t setup_t0 = now_ns();
    in = make_stream_inputs(cfg, opt.seed);
    in.spec.horizon = cfg.join_start / 2.0;
    (void)ncast::node::run_scenario_sharded(in.spec, kShards, kWorkers);
    setups.push_back(seconds_since(setup_t0));
  }
  in.spec.horizon = cfg.horizon;
  r.setup_s = median(setups);
  const ncast::node::ProtocolScenarioSpec& spec = in.spec;
  const std::vector<double>& start_at = in.start_at;
  const std::uint32_t first = in.victims[0];
  const std::uint32_t second = in.victims[1];
  const double first_crash = in.first_crash;

  if constexpr (NCAST_OBS_ENABLED) ncast::obs::metrics().reset_values();
  madd_probe_reset();
  const std::uint64_t cpu_t0 = cpu_ns();
  const std::uint64_t wall_t0 = now_ns();
  ncast::node::ProtocolScenarioReport report;
  {
    ScopedSpan span(SpanLog::kNode, kSpanRunScenario);
    report = ncast::node::run_scenario_sharded(spec, kShards, kWorkers);
  }
  r.wall_s = seconds_since(wall_t0);
  const double run_cpu_s = static_cast<double>(cpu_ns() - cpu_t0) * 1e-9;
  const double handoffs = obs_counter("engine.shard_handoffs");
  const double epochs = obs_counter("engine.shard_epochs");
  const double clamped = obs_counter("engine.shard_clamped");
  const std::size_t run_spans = kTraced ? spans().spans().size() : 0;
  const MaddTotals madds = madd_probe_totals();

  // Outputs and the correctness gate. Address a = join index + 1. A client
  // that crashes before its join completes (its hellos kept getting lost)
  // has no join left to finish and no membership to repair.
  std::vector<double> decode_delay, join_latency;
  std::uint64_t joins = 0, never_joined = 0, live = 0, undecoded = 0, decoded = 0;
  for (const auto& o : report.outcomes) {
    if (!o.joined) {
      if (!o.crashed) {
        ++joins;
        ++never_joined;
      }
      continue;
    }
    ++joins;
    join_latency.push_back(o.join_latency);
    if (o.crashed || o.departed) continue;
    ++live;
    if (!o.decoded) {
      ++undecoded;
      continue;
    }
    ++decoded;
    decode_delay.push_back(o.decode_time - start_at[o.address - 1]);
  }
  std::uint64_t repairs_due = 0, unrepaired = 0;
  for (const std::uint32_t victim : {first, second}) {
    if (!report.outcomes[victim].joined) continue;
    ++repairs_due;
    if (report.matrix.contains(victim + 1)) ++unrepaired;
  }
  r.attempted = joins + live + repairs_due;
  r.failed = never_joined + undecoded + unrepaired;
  if (never_joined != 0) r.fail(std::to_string(never_joined) + " clients never joined");
  if (undecoded != 0) r.fail(std::to_string(undecoded) + " live clients did not decode");
  if (unrepaired != 0) r.fail(std::to_string(unrepaired) + " crashes were not repaired");
  if (!report.matrix.check_invariants()) r.fail("thread matrix invariants violated");

  const double content_bytes = static_cast<double>(
      cfg.codec.generations * cfg.codec.generation_size * cfg.codec.symbols);
  r.metrics.num("decode_delay_p50_s", percentile(decode_delay, 0.50));
  r.metrics.num("decode_delay_p95_s", percentile(decode_delay, 0.95));
  r.metrics.num("join_latency_p50_s", percentile(join_latency, 0.50));
  r.metrics.num("join_latency_p95_s", percentile(join_latency, 0.95));
  r.metrics.num("repair_converge_s", report.last_repair_time - first_crash);
  r.metrics.num("data_bytes_per_decoded_byte",
                static_cast<double>(report.data_bytes) /
                    (static_cast<double>(decoded) * content_bytes));

  r.counts.count("events", report.events_executed);
  r.counts.count("messages_sent", report.messages_sent);
  r.counts.count("messages_dropped", report.messages_dropped);
  r.counts.count("control_messages", report.control_messages);
  r.counts.count("data_messages", report.data_messages);
  r.counts.count("control_dropped", report.control_dropped);
  r.counts.count("control_bytes", report.control_bytes);
  r.counts.count("data_bytes", report.data_bytes);
  r.counts.count("repairs", report.repairs_done);
  r.counts.count("join_retries", report.total_join_retries());
  r.counts.count("complaints", report.total_complaints());
  r.counts.count("decoded", decoded);

  if constexpr (kTraced) {
    JsonObject& L = r.layers;
    L.num("gf.tier", static_cast<double>(ncast::gf::active_tier()));
    const double rows_per_client =
        static_cast<double>(cfg.codec.generations * cfg.codec.generation_size);
    const double data = static_cast<double>(report.data_messages);
    const double useful =
        data > 0.0 ? static_cast<double>(decoded) * rows_per_client / data : 0.0;
    const double events = static_cast<double>(report.events_executed);

    LayerSpeeds speeds;
    speeds.madd_32 = replay_madd_ns(32, opt.seed);
    speeds.madd_1k = replay_madd_ns(1024, opt.seed);
    const std::size_t g = cfg.codec.generation_size;
    const std::size_t per_gen =
        useful > 0.0 ? static_cast<std::size_t>(std::ceil(static_cast<double>(g) / useful))
                     : 64 * g;  // nothing decoded: the replay's cap
    speeds.codec = replay_codec(cfg.codec, per_gen, opt.seed);
    speeds.engine_ns = replay_engine_ns_per_event(kMinLatency, cfg.clients + 1, opt.seed);
    speeds.overlay_ops = replay_overlay(cfg.k, cfg.d, cfg.clients, opt.seed);
    const double wire_bytes =
        data > 0.0 ? static_cast<double>(report.data_bytes) / data : 0.0;
    const double transport_ns =
        replay_transport_ns(kMinLatency, cfg.clients + 1,
                            static_cast<std::size_t>(std::round(wire_bytes)), opt.seed);
    const double mean_madd_len =
        madds.calls > 0 ? static_cast<double>(madds.bytes) / static_cast<double>(madds.calls)
                        : 32.0;
    const double madd_ns = replay_madd_ns(
        static_cast<std::size_t>(std::max(1.0, std::round(mean_madd_len))), opt.seed);

    L.num("overlay.join_ns_p50", speeds.overlay_ops.join_p50);
    L.num("overlay.join_ns_p99", speeds.overlay_ops.join_p99);
    L.num("overlay.leave_ns_p50", speeds.overlay_ops.leave_p50);
    L.num("overlay.repair_ns_p50", speeds.overlay_ops.repair_p50);
    const double overlay_busy =
        (static_cast<double>(cfg.clients) * speeds.overlay_ops.join_p50 +
         static_cast<double>(report.repairs_done) * speeds.overlay_ops.repair_p50) * 1e-9;
    L.num("overlay.busy_s", overlay_busy);
    L.num("sim.events", events);
    L.num("sim.ns_per_event", (r.wall_s - overlay_busy) * 1e9 / events);
    add_obs_metric(L, "sim.handoffs", handoffs);
    add_obs_metric(L, "sim.epochs", epochs);
    add_obs_metric(L, "sim.clamped_posts", clamped);
    L.num("node.data_messages", data);
    L.num("node.control_messages", static_cast<double>(report.control_messages));
    L.num("node.control_bytes", static_cast<double>(report.control_bytes));
    L.num("node.control_dropped", static_cast<double>(report.control_dropped));
    L.num("node.join_retries", static_cast<double>(report.total_join_retries()));
    L.num("node.complaints", static_cast<double>(report.total_complaints()));
    L.num("node.useful_share", useful);
    L.num("node.transport_ns", transport_ns);
    L.num("gf.madd_calls", static_cast<double>(madds.calls));
    L.num("gf.madd_mean_bytes", mean_madd_len);
    add_speeds(L, speeds);
    add_self_times(L, run_spans);

    // Attribution: replayed ns per call x calls the run made. Every data
    // message is one recode + serialize at its sender, one trip through the
    // transport (whose delivery event is priced under sim), and one
    // absorb_wire (deserialize + decoder absorb + recoder absorb) at its
    // receiver; the GF kernel calls inside those are counted by the madd
    // probe and taken out of coding's share so no time is counted twice.
    const CodecReplay& c = speeds.codec;
    const double coding_ns = c.serialize_ns + c.deserialize_ns + c.absorb_ns +
                             c.recoder_absorb_ns + c.recode_ns;
    const double node_own_ns = std::max(
        0.0, c.absorb_wire_ns - (c.deserialize_ns + c.absorb_ns + c.recoder_absorb_ns));
    double busy[SpanLog::kLayers] = {};
    busy[SpanLog::kGf] = static_cast<double>(madds.calls) * madd_ns * 1e-9;
    busy[SpanLog::kCoding] = std::max(0.0, data * coding_ns * 1e-9 - busy[SpanLog::kGf]);
    const double transport_own_ns = std::max(0.0, transport_ns - speeds.engine_ns);
    busy[SpanLog::kNode] = data * (node_own_ns + transport_own_ns) * 1e-9;
    busy[SpanLog::kSim] = events * speeds.engine_ns * 1e-9;
    busy[SpanLog::kOverlay] = overlay_busy;
    add_shares(L, busy, run_cpu_s, r.wall_s);
    write_spans(opt, r);
  }
  return r;
}

}  // namespace

RepResult run_workload(const RunOptions& opt) {
  if (opt.workload == "scale_churn") return run_scale_churn(opt);
  if (opt.workload == "stream_small" || opt.workload == "stream_large") {
    return run_stream(opt);
  }
  throw std::invalid_argument("unknown workload: " + opt.workload);
}

}  // namespace ledger
