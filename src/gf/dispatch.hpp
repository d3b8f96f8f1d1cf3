#pragma once
// Runtime SIMD dispatch for the GF region kernels — the single decision point
// for which instruction-set tier the field arithmetic runs on.
//
// Tiers (best available wins):
//   kGfni   — 64-byte vgf2p8affineqb bit-matrix kernels (GF(2^8) and
//             GF(2^16)); requires GFNI + AVX512BW/VL
//   kAvx2   — 32-byte nibble-table shuffles (GF(2^8) and GF(2^16))
//   kSsse3  — 16-byte nibble-table shuffles (GF(2^8); GF(2^16) falls back to
//             the scalar nibble-table loop, which is already table-resident)
//   kScalar — portable loops, no vector instructions
//
// The tier is decided once, at first use, from cpuid — unless the environment
// variable NCAST_FORCE_SCALAR is set (nonempty, not "0"), which pins the
// process to kScalar so tests can prove scalar/SIMD parity. Tests may also
// flip tiers in-process via set_tier_for_testing().

#include <cstddef>
#include <cstdint>

namespace ncast::gf {

enum class Tier : int { kScalar = 0, kSsse3 = 1, kAvx2 = 2, kGfni = 3 };

/// Human-readable tier name ("scalar", "ssse3", "avx2", "gfni").
const char* tier_name(Tier t);

/// The tier the region kernels currently run on.
Tier active_tier();

/// Best tier the running CPU supports (ignores NCAST_FORCE_SCALAR).
Tier best_supported_tier();

/// Forces a tier for the rest of the process (clamped to what the CPU
/// supports). Single-threaded use only; exists for parity tests.
void set_tier_for_testing(Tier t);

namespace detail {

// GF(2^8) kernels operate on a caller-provided 256-entry product table
// (`mul_row[x] == c*x`) so the coefficient-dependent setup is one row of the
// field's multiplication table, already resident in cache.
//
// `min_len` is the tier's dispatch floor: the field front ends hand a region
// of n symbols to these kernels only when n >= min_len, and run their own
// short-row loop below it. It is a per-tier constant set with the function
// pointers (see install() in dispatch.cpp): 1 where the kernel finishes any
// tail in one masked vector op, higher where a short row would not repay the
// kernel's per-call setup.
struct Gf256Kernels {
  void (*madd)(std::uint8_t* dst, const std::uint8_t* src,
               const std::uint8_t* mul_row, std::size_t n);
  void (*mul)(std::uint8_t* dst, const std::uint8_t* mul_row, std::size_t n);
  void (*add)(std::uint8_t* dst, const std::uint8_t* src, std::size_t n);
  std::size_t min_len;
};

// GF(2^16) kernels operate on four 16-entry nibble product tables:
// nib[k][x] == c * (x << 4k), so c*v = nib[0][v&15] ^ nib[1][(v>>4)&15] ^
// nib[2][(v>>8)&15] ^ nib[3][v>>12]. 128 bytes of setup per coefficient.
// `min_len` is the tier's dispatch floor, as for Gf256Kernels.
struct Gf2_16Kernels {
  void (*madd)(std::uint16_t* dst, const std::uint16_t* src,
               const std::uint16_t (*nib)[16], std::size_t n);
  void (*mul)(std::uint16_t* dst, const std::uint16_t (*nib)[16], std::size_t n);
  void (*add)(std::uint16_t* dst, const std::uint16_t* src, std::size_t n);
  std::size_t min_len;
};

/// Kernel tables for the active tier. References stay valid forever; the
/// function pointers inside change only via set_tier_for_testing().
const Gf256Kernels& gf256_kernels();
const Gf2_16Kernels& gf2_16_kernels();

// Scalar reference kernels (always available; also the tail path of the
// vector kernels).
void gf256_madd_scalar(std::uint8_t* dst, const std::uint8_t* src,
                       const std::uint8_t* mul_row, std::size_t n);
void gf256_mul_scalar(std::uint8_t* dst, const std::uint8_t* mul_row,
                      std::size_t n);
void gf256_add_scalar(std::uint8_t* dst, const std::uint8_t* src,
                      std::size_t n);
void gf2_16_madd_scalar(std::uint16_t* dst, const std::uint16_t* src,
                        const std::uint16_t (*nib)[16], std::size_t n);
void gf2_16_mul_scalar(std::uint16_t* dst, const std::uint16_t (*nib)[16],
                       std::size_t n);
void gf2_16_add_scalar(std::uint16_t* dst, const std::uint16_t* src,
                       std::size_t n);

}  // namespace detail

}  // namespace ncast::gf
