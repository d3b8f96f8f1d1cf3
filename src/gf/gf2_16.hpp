#pragma once
// GF(2^16) arithmetic, used for the field-size ablation and for settings where
// generation sizes approach the GF(2^8) order. Same interface as Gf256.

#include <cstddef>
#include <cstdint>

namespace ncast::gf {

/// Field traits for GF(2^16); primitive polynomial x^16+x^12+x^3+x+1 (0x1100B).
struct Gf2_16 {
  using value_type = std::uint16_t;
  static constexpr std::uint32_t order = 65536;
  static constexpr const char* name = "GF(2^16)";

  static value_type add(value_type a, value_type b) { return a ^ b; }
  static value_type sub(value_type a, value_type b) { return a ^ b; }
  static value_type mul(value_type a, value_type b);
  /// Requires b != 0.
  static value_type div(value_type a, value_type b);
  /// Requires a != 0.
  static value_type inv(value_type a);
  static value_type pow(value_type a, std::uint32_t e);

  static void region_add(value_type* dst, const value_type* src, std::size_t n);
  static void region_madd(value_type* dst, const value_type* src, value_type c,
                          std::size_t n);
  static void region_mul(value_type* dst, value_type c, std::size_t n);
};

namespace detail {

/// nib[k][x] = c * (x << 4k) for c != 0: the coefficient tables the
/// Gf2_16Kernels expect (gf/dispatch.hpp). For benches and kernel tests that
/// call a tier's kernels directly.
void gf2_16_nibble_tables(std::uint16_t c, std::uint16_t (*nib)[16]);

}  // namespace detail

}  // namespace ncast::gf
