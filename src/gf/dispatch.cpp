// Runtime kernel-tier selection for the GF region operations. This is the
// only place in the library that inspects the CPU or the environment; the
// field front ends (gf256.cpp, gf2_16.cpp) call through the function-pointer
// tables published here.

#include "gf/dispatch.hpp"

#include <cstdlib>

#include "gf/gf256_simd.hpp"
#include "gf/gf256_ssse3.hpp"
#include "gf/gf2_16_simd.hpp"
#include "gf/gf_gfni.hpp"

namespace ncast::gf {

namespace detail {

// ncast:hot-begin — scalar fallback kernels: allocation- and throw-free.

void gf256_madd_scalar(std::uint8_t* dst, const std::uint8_t* src,
                       const std::uint8_t* mul_row, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] ^= mul_row[src[i]];
}

void gf256_mul_scalar(std::uint8_t* dst, const std::uint8_t* mul_row,
                      std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = mul_row[dst[i]];
}

void gf256_add_scalar(std::uint8_t* dst, const std::uint8_t* src,
                      std::size_t n) {
  std::size_t i = 0;
  // Word-at-a-time XOR; GF(2^8) addition is carry-free.
  for (; i + 8 <= n; i += 8) {
    std::uint64_t a, b;
    __builtin_memcpy(&a, dst + i, 8);
    __builtin_memcpy(&b, src + i, 8);
    a ^= b;
    __builtin_memcpy(dst + i, &a, 8);
  }
  for (; i < n; ++i) dst[i] ^= src[i];
}

void gf2_16_madd_scalar(std::uint16_t* dst, const std::uint16_t* src,
                        const std::uint16_t (*nib)[16], std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint16_t v = src[i];
    dst[i] ^= static_cast<std::uint16_t>(nib[0][v & 15] ^ nib[1][(v >> 4) & 15] ^
                                         nib[2][(v >> 8) & 15] ^ nib[3][v >> 12]);
  }
}

void gf2_16_mul_scalar(std::uint16_t* dst, const std::uint16_t (*nib)[16],
                       std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint16_t v = dst[i];
    dst[i] = static_cast<std::uint16_t>(nib[0][v & 15] ^ nib[1][(v >> 4) & 15] ^
                                        nib[2][(v >> 8) & 15] ^ nib[3][v >> 12]);
  }
}

void gf2_16_add_scalar(std::uint16_t* dst, const std::uint16_t* src,
                       std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    std::uint64_t a, b;
    __builtin_memcpy(&a, dst + i, 8);
    __builtin_memcpy(&b, src + i, 8);
    a ^= b;
    __builtin_memcpy(dst + i, &a, 8);
  }
  for (; i < n; ++i) dst[i] ^= src[i];
}

// ncast:hot-end

}  // namespace detail

namespace {

// Dispatch floors (Gf256Kernels::min_len, Gf2_16Kernels::min_len), chosen
// from bench_codec's BM_*KernelMadd against BM_*RegionMadd at 16..64
// symbols (table in docs/performance.md):
//   - GF(2^8) on GFNI: every nonempty row. The kernel's only setup is one
//     8-byte matrix and it finishes any tail with one masked op.
//   - GF(2^8) on AVX2/SSSE3: from 32 symbols. The nibble-shuffle setup plus
//     a scalar tail lose to the plain loop at 16, win from 32.
//   - GF(2^16) on every tier, and the scalar tier: from 64. Each call first
//     builds the coefficient's nibble tables (60 products) and, on GFNI,
//     four bit matrices; the front end's log/exp loop wins below 64.
constexpr std::size_t kMaskedFloor = 1;
constexpr std::size_t kShuffleFloor = 32;
constexpr std::size_t kShortLoopFloor = 64;

detail::Gf256Kernels g_gf256{detail::gf256_madd_scalar, detail::gf256_mul_scalar,
                             detail::gf256_add_scalar, kShortLoopFloor};
detail::Gf2_16Kernels g_gf2_16{detail::gf2_16_madd_scalar,
                               detail::gf2_16_mul_scalar,
                               detail::gf2_16_add_scalar, kShortLoopFloor};
Tier g_tier = Tier::kScalar;

void install(Tier t) {
  g_tier = t;
  switch (t) {
    case Tier::kGfni:
      g_gf256 = {detail::region_madd_gfni, detail::region_mul_gfni,
                 detail::region_add_gfni, kMaskedFloor};
      g_gf2_16 = {detail::region_madd_gfni_u16, detail::region_mul_gfni_u16,
                  detail::region_add_gfni_u16, kShortLoopFloor};
      break;
    case Tier::kAvx2:
      g_gf256 = {detail::region_madd_avx2, detail::region_mul_avx2,
                 detail::region_add_avx2, kShuffleFloor};
      g_gf2_16 = {detail::region_madd_avx2_u16, detail::region_mul_avx2_u16,
                  detail::region_add_avx2_u16, kShortLoopFloor};
      break;
    case Tier::kSsse3:
      g_gf256 = {detail::region_madd_ssse3, detail::region_mul_ssse3,
                 detail::region_add_ssse3, kShuffleFloor};
      // GF(2^16) has no SSSE3 kernel; its nibble-table scalar loop reads only
      // 128 bytes of table per coefficient and stays the best non-AVX2 path.
      g_gf2_16 = {detail::gf2_16_madd_scalar, detail::gf2_16_mul_scalar,
                  detail::gf2_16_add_scalar, kShortLoopFloor};
      break;
    case Tier::kScalar:
      g_gf256 = {detail::gf256_madd_scalar, detail::gf256_mul_scalar,
                 detail::gf256_add_scalar, kShortLoopFloor};
      g_gf2_16 = {detail::gf2_16_madd_scalar, detail::gf2_16_mul_scalar,
                  detail::gf2_16_add_scalar, kShortLoopFloor};
      break;
  }
}

bool force_scalar_env() {
  const char* s = std::getenv("NCAST_FORCE_SCALAR");
  return s != nullptr && *s != '\0' && *s != '0';
}

/// One-shot initialization, latched by a function-local static.
bool init() {
  install(force_scalar_env() ? Tier::kScalar : best_supported_tier());
  return true;
}

void ensure_init() {
  static const bool done = init();
  (void)done;
}

}  // namespace

const char* tier_name(Tier t) {
  switch (t) {
    case Tier::kGfni:
      return "gfni";
    case Tier::kAvx2:
      return "avx2";
    case Tier::kSsse3:
      return "ssse3";
    case Tier::kScalar:
      return "scalar";
  }
  return "unknown";
}

Tier best_supported_tier() {
  if (detail::gfni_available()) return Tier::kGfni;
  if (detail::avx2_available()) return Tier::kAvx2;
  if (detail::ssse3_available()) return Tier::kSsse3;
  return Tier::kScalar;
}

Tier active_tier() {
  ensure_init();
  return g_tier;
}

void set_tier_for_testing(Tier t) {
  ensure_init();
  const Tier best = best_supported_tier();
  install(static_cast<int>(t) <= static_cast<int>(best) ? t : best);
}

namespace detail {

const Gf256Kernels& gf256_kernels() {
  ensure_init();
  return g_gf256;
}

const Gf2_16Kernels& gf2_16_kernels() {
  ensure_init();
  return g_gf2_16;
}

}  // namespace detail

}  // namespace ncast::gf
