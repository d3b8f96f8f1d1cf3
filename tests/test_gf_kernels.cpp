// SIMD/scalar parity for the GF region kernels. Every region operation, for
// both fields, at every size in 0..67 plus 1023/1024/1025 (straddling the
// vector main-loop boundaries and the dispatch floor), must agree exactly
// with a per-element reference computed from the field's scalar mul/add —
// under every instruction-set tier the running CPU supports, both through
// the field front ends and through each tier's kernel table called directly
// on unaligned regions. A randomized
// decode round-trip then cross-checks that a generation decoded under a
// vector tier and under forced scalar produce identical source data.
//
// Tiers are flipped in-process via set_tier_for_testing(); the ctest suite
// additionally re-runs the full field/codec tests with NCAST_FORCE_SCALAR=1
// in the environment (see tests/CMakeLists.txt).

#include <gtest/gtest.h>

#include <cstddef>
#include <type_traits>
#include <vector>

#include "coding/decoder.hpp"
#include "coding/encoder.hpp"
#include "coding/structure.hpp"
#include "coding/structured_decoder.hpp"
#include "gf/dispatch.hpp"
#include "gf/gf256.hpp"
#include "gf/gf2_16.hpp"
#include "util/rng.hpp"

namespace ncast {
namespace {

/// All tiers the running CPU can execute, scalar first.
std::vector<gf::Tier> supported_tiers() {
  std::vector<gf::Tier> tiers{gf::Tier::kScalar};
  const auto best = static_cast<int>(gf::best_supported_tier());
  for (int t = 1; t <= best; ++t) tiers.push_back(static_cast<gf::Tier>(t));
  return tiers;
}

/// Restores the CPU-selected tier when a test scope ends, pass or fail.
struct TierGuard {
  ~TierGuard() { gf::set_tier_for_testing(gf::best_supported_tier()); }
};

constexpr std::size_t kSizes[] = {0,  1,  2,  3,  4,  5,  6,  7,  8,  9,  10,
                                  11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21,
                                  22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32,
                                  33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43,
                                  44, 45, 46, 47, 48, 49, 50, 51, 52, 53, 54,
                                  55, 56, 57, 58, 59, 60, 61, 62, 63, 64, 65,
                                  66, 67, 1023, 1024, 1025};

template <typename Field>
std::vector<typename Field::value_type> random_region(std::size_t n, Rng& rng) {
  std::vector<typename Field::value_type> v(n);
  for (auto& x : v) {
    x = static_cast<typename Field::value_type>(rng.below(Field::order));
  }
  return v;
}

/// Exercises madd, mul, and add at size n with coefficient c and compares
/// against the per-element reference.
template <typename Field>
void check_ops(std::size_t n, typename Field::value_type c, Rng& rng) {
  using V = typename Field::value_type;
  const auto src = random_region<Field>(n, rng);
  const auto base = random_region<Field>(n, rng);

  std::vector<V> want_madd = base;
  std::vector<V> want_mul = base;
  std::vector<V> want_add = base;
  for (std::size_t i = 0; i < n; ++i) {
    want_madd[i] = Field::add(base[i], Field::mul(c, src[i]));
    want_mul[i] = Field::mul(c, base[i]);
    want_add[i] = Field::add(base[i], src[i]);
  }

  std::vector<V> got = base;
  Field::region_madd(got.data(), src.data(), c, n);
  ASSERT_EQ(got, want_madd) << "madd n=" << n << " c=" << +c << " tier="
                            << gf::tier_name(gf::active_tier());

  got = base;
  Field::region_mul(got.data(), c, n);
  ASSERT_EQ(got, want_mul) << "mul n=" << n << " c=" << +c << " tier="
                           << gf::tier_name(gf::active_tier());

  got = base;
  Field::region_add(got.data(), src.data(), n);
  ASSERT_EQ(got, want_add) << "add n=" << n << " tier="
                           << gf::tier_name(gf::active_tier());
}

template <typename Field>
void run_parity(std::uint64_t seed) {
  TierGuard guard;
  for (const gf::Tier tier : supported_tiers()) {
    gf::set_tier_for_testing(tier);
    ASSERT_EQ(gf::active_tier(), tier);
    Rng rng(seed);
    for (const std::size_t n : kSizes) {
      // Edge coefficients (0, 1, max) plus random ones.
      check_ops<Field>(n, typename Field::value_type{0}, rng);
      check_ops<Field>(n, typename Field::value_type{1}, rng);
      check_ops<Field>(
          n, static_cast<typename Field::value_type>(Field::order - 1), rng);
      for (int k = 0; k < 3; ++k) {
        check_ops<Field>(
            n, static_cast<typename Field::value_type>(rng.below(Field::order)),
            rng);
      }
    }
  }
}

TEST(GfKernelParity, Gf256AllTiersAllSizes) { run_parity<gf::Gf256>(101); }

TEST(GfKernelParity, Gf2_16AllTiersAllSizes) { run_parity<gf::Gf2_16>(202); }

// The front ends above send a row to the tier's kernels only from the tier's
// min_len up, so on a tier with a floor of 64 they never hand a kernel a
// short row. The checks below call each tier's kernel table directly, at
// every size, so every tail is covered whatever the floor is. The regions
// start `kSkew` symbols past an allocation, like the payload half of an
// arena row (row + g), so no vector load or store is aligned.
constexpr std::size_t kSkew = 3;

/// The kernels' coefficient argument, built from Field::mul and so
/// independent of the front ends' tables: the product row for GF(2^8), the
/// four nibble tables for GF(2^16).
void coeff_tables(std::uint8_t c, std::uint8_t (&row)[256]) {
  for (unsigned x = 0; x < 256; ++x) {
    row[x] = gf::Gf256::mul(c, static_cast<std::uint8_t>(x));
  }
}

void coeff_tables(std::uint16_t c, std::uint16_t (&nib)[4][16]) {
  for (unsigned j = 0; j < 4; ++j) {
    for (unsigned x = 0; x < 16; ++x) {
      nib[j][x] = gf::Gf2_16::mul(c, static_cast<std::uint16_t>(x << (4 * j)));
    }
  }
}

template <typename Field>
using CoeffTables = std::conditional_t<sizeof(typename Field::value_type) == 1,
                                       std::uint8_t[256], std::uint16_t[4][16]>;

/// Runs the three kernels of `k` at size n with coefficient c (c != 0) on
/// unaligned regions and compares against the per-element reference.
template <typename Field, typename Kernels>
void check_kernels(const Kernels& k, std::size_t n,
                   typename Field::value_type c, Rng& rng) {
  CoeffTables<Field> table;
  coeff_tables(c, table);
  const auto src_buf = random_region<Field>(n + kSkew, rng);
  const auto base_buf = random_region<Field>(n + kSkew, rng);
  const auto* src = src_buf.data() + kSkew;

  auto got = base_buf;
  k.madd(got.data() + kSkew, src, table, n);
  auto want = base_buf;
  for (std::size_t i = 0; i < n; ++i) {
    want[kSkew + i] = Field::add(want[kSkew + i], Field::mul(c, src[i]));
  }
  ASSERT_EQ(got, want) << "madd n=" << n << " c=" << +c;

  got = base_buf;
  k.mul(got.data() + kSkew, table, n);
  want = base_buf;
  for (std::size_t i = 0; i < n; ++i) {
    want[kSkew + i] = Field::mul(c, want[kSkew + i]);
  }
  ASSERT_EQ(got, want) << "mul n=" << n << " c=" << +c;

  got = base_buf;
  k.add(got.data() + kSkew, src, n);
  want = base_buf;
  for (std::size_t i = 0; i < n; ++i) {
    want[kSkew + i] = Field::add(want[kSkew + i], src[i]);
  }
  ASSERT_EQ(got, want) << "add n=" << n;
}

template <typename Field, typename Kernels>
void run_kernel_direct_parity(const Kernels& (*kernels)(), std::uint64_t seed) {
  using V = typename Field::value_type;
  TierGuard guard;
  for (const gf::Tier tier : supported_tiers()) {
    gf::set_tier_for_testing(tier);
    ASSERT_EQ(gf::active_tier(), tier);
    const Kernels& k = kernels();
    Rng rng(seed);
    for (const std::size_t n : kSizes) {
      SCOPED_TRACE(::testing::Message() << "tier=" << gf::tier_name(tier));
      check_kernels<Field>(k, n, V{1}, rng);
      check_kernels<Field>(k, n, static_cast<V>(Field::order - 1), rng);
      for (int r = 0; r < 3; ++r) {
        check_kernels<Field>(
            k, n, static_cast<V>(1 + rng.below(Field::order - 1)), rng);
      }
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(GfKernelParity, Gf256KernelsDirectAllTiersUnaligned) {
  run_kernel_direct_parity<gf::Gf256>(&gf::detail::gf256_kernels, 303);
}

TEST(GfKernelParity, Gf2_16KernelsDirectAllTiersUnaligned) {
  run_kernel_direct_parity<gf::Gf2_16>(&gf::detail::gf2_16_kernels, 404);
}

/// The dispatch floor is a per-tier constant (see gf/dispatch.cpp): GF(2^8)
/// rows of any length go to GFNI, from 32 symbols to the shuffle tiers;
/// GF(2^16) rows go to every tier's kernels from 64 symbols.
TEST(GfKernelParity, DispatchFloorPerTier) {
  TierGuard guard;
  for (const gf::Tier tier : supported_tiers()) {
    gf::set_tier_for_testing(tier);
    std::size_t want = 64;
    if (tier == gf::Tier::kGfni) want = 1;
    if (tier == gf::Tier::kAvx2 || tier == gf::Tier::kSsse3) want = 32;
    EXPECT_EQ(gf::detail::gf256_kernels().min_len, want)
        << "tier=" << gf::tier_name(tier);
    EXPECT_EQ(gf::detail::gf2_16_kernels().min_len, 64u)
        << "tier=" << gf::tier_name(tier);
  }
}

TEST(GfKernelParity, TierNamesAndForcedOrder) {
  EXPECT_STREQ(gf::tier_name(gf::Tier::kScalar), "scalar");
  EXPECT_STREQ(gf::tier_name(gf::Tier::kSsse3), "ssse3");
  EXPECT_STREQ(gf::tier_name(gf::Tier::kAvx2), "avx2");
  EXPECT_STREQ(gf::tier_name(gf::Tier::kGfni), "gfni");
  TierGuard guard;
  // Requesting a tier never exceeds what the CPU supports.
  gf::set_tier_for_testing(gf::Tier::kGfni);
  EXPECT_LE(static_cast<int>(gf::active_tier()),
            static_cast<int>(gf::best_supported_tier()));
}

/// The same packet stream must decode to the same source under every tier —
/// elimination order and pivot choices are tier-independent, so this catches
/// any kernel that is "close but not equal" on real codec data.
template <typename Field>
void run_decode_cross_check(std::size_t g, std::size_t symbols,
                            std::uint64_t seed) {
  using V = typename Field::value_type;
  Rng source_rng(seed);
  std::vector<std::vector<V>> source(g, std::vector<V>(symbols));
  for (auto& row : source) {
    for (auto& v : row) v = static_cast<V>(source_rng.below(Field::order));
  }
  const coding::SourceEncoder<Field> enc(0, source);
  std::vector<coding::CodedPacket<Field>> packets;
  Rng packet_rng(seed + 1);
  for (std::size_t i = 0; i < g + 4; ++i) packets.push_back(enc.emit(packet_rng));

  TierGuard guard;
  for (const gf::Tier tier : supported_tiers()) {
    gf::set_tier_for_testing(tier);
    coding::Decoder<Field> dec(0, g, symbols);
    for (const auto& p : packets) {
      if (dec.complete()) break;
      dec.absorb(p);
    }
    ASSERT_TRUE(dec.complete()) << "tier=" << gf::tier_name(tier);
    EXPECT_EQ(dec.source_packets(), source) << "tier=" << gf::tier_name(tier);
  }
}

TEST(GfKernelParity, DecodeRoundTripCrossCheckGf256) {
  run_decode_cross_check<gf::Gf256>(24, 300, 7);
}

TEST(GfKernelParity, DecodeRoundTripCrossCheckGf2_16) {
  run_decode_cross_check<gf::Gf2_16>(12, 150, 8);
}

/// Same cross-check through the structured codec: one packet stream, decoded
/// under every tier with the auto-selected policy (band elimination for
/// banded structures, per-class propagation for overlapped ones). Innovation
/// verdicts and decoded bytes must be tier-independent bit for bit.
template <typename Field>
void run_structured_decode_cross_check(const coding::GenerationStructure& s,
                                       std::size_t symbols,
                                       std::uint64_t seed) {
  using V = typename Field::value_type;
  Rng source_rng(seed);
  std::vector<V> flat(s.g * symbols);
  for (auto& v : flat) v = static_cast<V>(source_rng.below(Field::order));
  const coding::SourceEncoder<Field> enc(0, s, flat, symbols);
  std::vector<coding::CodedPacket<Field>> packets;
  Rng packet_rng(seed + 1);
  for (std::size_t i = 0; i < 6 * s.g; ++i) {
    packets.push_back(enc.emit(packet_rng));
  }

  TierGuard guard;
  std::vector<std::vector<V>> want;
  std::vector<int> want_verdicts;
  for (const gf::Tier tier : supported_tiers()) {
    gf::set_tier_for_testing(tier);
    coding::StructuredDecoder<Field> dec(0, s, symbols);
    std::vector<int> verdicts;
    for (const auto& p : packets) {
      if (dec.complete()) break;
      verdicts.push_back(dec.absorb(p) ? 1 : 0);
    }
    ASSERT_TRUE(dec.complete()) << "tier=" << gf::tier_name(tier);
    const auto got = dec.source_packets();
    if (want.empty()) {
      want = got;
      want_verdicts = verdicts;
      for (std::size_t i = 0; i < s.g; ++i) {
        ASSERT_EQ(got[i], std::vector<V>(flat.begin() + i * symbols,
                                         flat.begin() + (i + 1) * symbols))
            << "row " << i;
      }
    } else {
      EXPECT_EQ(got, want) << "tier=" << gf::tier_name(tier);
      EXPECT_EQ(verdicts, want_verdicts) << "tier=" << gf::tier_name(tier);
    }
  }
}

TEST(GfKernelParity, StructuredDecodeCrossCheckBanded) {
  run_structured_decode_cross_check<gf::Gf256>(
      coding::GenerationStructure::banded(24, 6), 200, 9);
}

TEST(GfKernelParity, StructuredDecodeCrossCheckOverlapped) {
  run_structured_decode_cross_check<gf::Gf256>(
      coding::GenerationStructure::overlapping(24, 8, 2), 200, 10);
}

TEST(GfKernelParity, StructuredDecodeCrossCheckBandedGf2_16) {
  run_structured_decode_cross_check<gf::Gf2_16>(
      coding::GenerationStructure::banded(12, 4), 100, 11);
}

}  // namespace
}  // namespace ncast
