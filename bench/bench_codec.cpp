// E13 — codec microbenchmarks (google-benchmark): raw field arithmetic,
// RLNC encode/recode/decode, and the Reed–Solomon baseline. These bound the
// CPU cost per delivered byte of the whole system.

#include <benchmark/benchmark.h>

#include "metrics_session.hpp"

#include "coding/decoder.hpp"
#include "coding/encoder.hpp"
#include "coding/recoder.hpp"
#include "coding/reed_solomon.hpp"
#include "gf/dispatch.hpp"
#include "gf/gf256.hpp"
#include "gf/gf2_16.hpp"
#include "util/rng.hpp"

namespace {

using ncast::Rng;
using Gf = ncast::gf::Gf256;

// Region madds are priced per tier: the CPU's best tier and every tier below
// it run through set_tier_for_testing (registered in main, after the codec
// benchmarks). Args are {symbols, tier}. BM_*RegionMadd calls the field front
// end, so rows below the tier's dispatch floor (min_len) take the front
// end's short-row loop; BM_*KernelMadd calls the tier's kernel table
// directly with the same per-call coefficient setup the front end does, so
// its short sizes show what a lower floor would cost. Comparing the two at
// 16..48 symbols is how each tier's floor is chosen (docs/performance.md).

/// Pins the GF tier for one benchmark run and restores the starting tier.
class TierPin {
 public:
  explicit TierPin(std::int64_t tier) : restore_(ncast::gf::active_tier()) {
    ncast::gf::set_tier_for_testing(static_cast<ncast::gf::Tier>(tier));
  }
  ~TierPin() { ncast::gf::set_tier_for_testing(restore_); }
  TierPin(const TierPin&) = delete;
  TierPin& operator=(const TierPin&) = delete;

 private:
  ncast::gf::Tier restore_;
};

/// Next coefficient of the bench's cycling sequence (never 0 or 1, which the
/// front ends special-case).
template <typename V>
V next_coeff(V c) {
  c = static_cast<V>(c * 3 + 1);
  return c < 2 ? V{7} : c;
}

/// The active tier's kernel, called directly with the coefficient setup the
/// field front end would do: the product row for GF(2^8), the nibble tables
/// for GF(2^16).
void kernel_madd(std::uint8_t* dst, const std::uint8_t* src, std::uint8_t c,
                 std::size_t n) {
  ncast::gf::detail::gf256_kernels().madd(
      dst, src, ncast::gf::detail::gf256_mul_row(c), n);
}

void kernel_madd(std::uint16_t* dst, const std::uint16_t* src, std::uint16_t c,
                 std::size_t n) {
  std::uint16_t nib[4][16];
  ncast::gf::detail::gf2_16_nibble_tables(c, nib);
  ncast::gf::detail::gf2_16_kernels().madd(dst, src, nib, n);
}

/// One region madd per iteration at {symbols, tier}: through the field front
/// end (`kDirect` false) or straight into the tier's kernel (`kDirect` true).
template <typename Field, bool kDirect>
void BM_Madd(benchmark::State& state) {
  using V = typename Field::value_type;
  const auto n = static_cast<std::size_t>(state.range(0));
  const TierPin pin(state.range(1));
  std::vector<V> dst(n), src(n);
  Rng rng(sizeof(V));
  for (auto& b : src) b = static_cast<V>(rng.below(Field::order));
  V c = 7;
  for (auto _ : state) {
    if constexpr (kDirect) {
      kernel_madd(dst.data(), src.data(), c, n);
    } else {
      Field::region_madd(dst.data(), src.data(), c, n);
    }
    benchmark::DoNotOptimize(dst.data());
    benchmark::ClobberMemory();
    c = next_coeff(c);
  }
  state.SetLabel(ncast::gf::tier_name(ncast::gf::active_tier()));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * sizeof(V)));
}

/// Registers the region-madd families for every tier the CPU supports.
void register_region_madds() {
  const std::vector<std::int64_t> short_sizes = {16, 32, 48, 64};
  std::vector<std::int64_t> tiers;
  for (int t = 0; t <= static_cast<int>(ncast::gf::best_supported_tier()); ++t) {
    tiers.push_back(t);
  }
  using ncast::gf::Gf2_16;
  benchmark::RegisterBenchmark("BM_Gf256RegionMadd", BM_Madd<Gf, false>)
      ->ArgsProduct({{16, 32, 48, 64, 1024, 16384}, tiers});
  benchmark::RegisterBenchmark("BM_Gf256KernelMadd", BM_Madd<Gf, true>)
      ->ArgsProduct({short_sizes, tiers});
  benchmark::RegisterBenchmark("BM_Gf2_16RegionMadd", BM_Madd<Gf2_16, false>)
      ->ArgsProduct({{16, 32, 48, 64, 1024, 8192}, tiers});
  benchmark::RegisterBenchmark("BM_Gf2_16KernelMadd", BM_Madd<Gf2_16, true>)
      ->ArgsProduct({short_sizes, tiers});
}

std::vector<std::vector<std::uint8_t>> random_source(std::size_t g,
                                                     std::size_t symbols,
                                                     Rng& rng) {
  std::vector<std::vector<std::uint8_t>> src(g, std::vector<std::uint8_t>(symbols));
  for (auto& row : src) {
    for (auto& b : row) b = static_cast<std::uint8_t>(rng.below(256));
  }
  return src;
}

void BM_RlncEncode(benchmark::State& state) {
  const auto g = static_cast<std::size_t>(state.range(0));
  const std::size_t symbols = 1024;
  Rng rng(3);
  ncast::coding::SourceEncoder<Gf> enc(0, random_source(g, symbols, rng));
  for (auto _ : state) {
    auto p = enc.emit(rng);
    benchmark::DoNotOptimize(p.payload.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(symbols));
}
BENCHMARK(BM_RlncEncode)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

void BM_RlncDecodeGeneration(benchmark::State& state) {
  const auto g = static_cast<std::size_t>(state.range(0));
  const std::size_t symbols = 1024;
  Rng rng(4);
  ncast::coding::SourceEncoder<Gf> enc(0, random_source(g, symbols, rng));
  // Pre-generate enough packets (with slack for rare dependencies).
  std::vector<ncast::coding::CodedPacket<Gf>> packets;
  for (std::size_t i = 0; i < g + 8; ++i) packets.push_back(enc.emit(rng));
  for (auto _ : state) {
    ncast::coding::Decoder<Gf> dec(0, g, symbols);
    for (const auto& p : packets) {
      if (dec.complete()) break;
      dec.absorb(p);
    }
    benchmark::DoNotOptimize(dec.rank());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g * symbols));
}
BENCHMARK(BM_RlncDecodeGeneration)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

void BM_RlncRecode(benchmark::State& state) {
  const auto g = static_cast<std::size_t>(state.range(0));
  const std::size_t symbols = 1024;
  Rng rng(5);
  ncast::coding::SourceEncoder<Gf> enc(0, random_source(g, symbols, rng));
  ncast::coding::Recoder<Gf> rec(0, g, symbols);
  while (!rec.complete()) rec.absorb(enc.emit(rng));
  for (auto _ : state) {
    auto p = rec.emit(rng);
    benchmark::DoNotOptimize(p->payload.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(symbols));
}
BENCHMARK(BM_RlncRecode)->Arg(16)->Arg(32)->Arg(64);

// The allocation-free variant the simulators actually run: one packet whose
// buffers are recycled across emissions. The delta to BM_RlncRecode is the
// cost of per-emission packet allocation.
void BM_RlncRecodeInto(benchmark::State& state) {
  const auto g = static_cast<std::size_t>(state.range(0));
  const std::size_t symbols = 1024;
  Rng rng(5);
  ncast::coding::SourceEncoder<Gf> enc(0, random_source(g, symbols, rng));
  ncast::coding::Recoder<Gf> rec(0, g, symbols);
  while (!rec.complete()) rec.absorb(enc.emit(rng));
  ncast::coding::CodedPacket<Gf> out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rec.emit_into(out, rng));
    benchmark::DoNotOptimize(out.payload.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(symbols));
}
BENCHMARK(BM_RlncRecodeInto)->Arg(16)->Arg(32)->Arg(64);

void BM_RsEncode(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const std::size_t n = 2 * k;
  const std::size_t len = 1024;
  Rng rng(6);
  std::vector<std::vector<std::uint8_t>> data(k, std::vector<std::uint8_t>(len));
  for (auto& d : data) {
    for (auto& b : d) b = static_cast<std::uint8_t>(rng.below(256));
  }
  ncast::coding::ReedSolomon rs(n, k);
  for (auto _ : state) {
    auto frags = rs.encode(data);
    benchmark::DoNotOptimize(frags.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(k * len));
}
BENCHMARK(BM_RsEncode)->Arg(8)->Arg(16)->Arg(32);

void BM_RsDecodeParityHeavy(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const std::size_t n = 2 * k;
  const std::size_t len = 1024;
  Rng rng(7);
  std::vector<std::vector<std::uint8_t>> data(k, std::vector<std::uint8_t>(len));
  for (auto& d : data) {
    for (auto& b : d) b = static_cast<std::uint8_t>(rng.below(256));
  }
  ncast::coding::ReedSolomon rs(n, k);
  const auto frags = rs.encode(data);
  // Receive only parity fragments: the hardest decode.
  std::vector<std::pair<std::size_t, std::vector<std::uint8_t>>> received;
  for (std::size_t i = k; i < 2 * k; ++i) received.emplace_back(i, frags[i]);
  for (auto _ : state) {
    auto out = rs.decode(received);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(k * len));
}
BENCHMARK(BM_RsDecodeParityHeavy)->Arg(8)->Arg(16)->Arg(32);

}  // namespace

// Expanded BENCHMARK_MAIN() with a MetricsSession wrapped around the run so
// the registry counters (decoder.*, linalg.*) land in BENCH_codec.json.
int main(int argc, char** argv) {
  ncast::bench::MetricsSession session("codec");
  session.param("k", "g in 16..128");  // generation sizes; no overlay here
  session.param("d", "n/a");
  session.param("n", 1024);  // symbols per packet
  session.param("seed", std::uint64_t{1});
  // Which GF kernel tier these numbers were measured on (see src/gf/dispatch).
  session.param("gf_tier", ncast::gf::tier_name(ncast::gf::active_tier()));
  register_region_madds();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
