#pragma once
// GF(2^8) arithmetic — the workhorse field for random linear network coding.
//
// Elements are bytes; addition is XOR; multiplication is polynomial
// multiplication modulo the primitive polynomial x^8+x^4+x^3+x^2+1 (0x11D,
// the AES-unrelated Rijndael-alternative used by most RLNC implementations).
// Scalar ops go through log/exp tables; the hot region ops (row operations in
// Gaussian elimination and packet mixing) use a full 256x256 product table so
// the inner loop is a single lookup + XOR per byte.

#include <cstddef>
#include <cstdint>

namespace ncast::gf {

/// Field traits for GF(2^8); usable as the `Field` parameter of the templated
/// linear-algebra and coding layers.
struct Gf256 {
  using value_type = std::uint8_t;
  static constexpr std::uint32_t order = 256;
  static constexpr const char* name = "GF(2^8)";

  static value_type add(value_type a, value_type b) { return a ^ b; }
  static value_type sub(value_type a, value_type b) { return a ^ b; }
  static value_type mul(value_type a, value_type b);
  /// Requires b != 0.
  static value_type div(value_type a, value_type b);
  /// Requires a != 0.
  static value_type inv(value_type a);
  static value_type pow(value_type a, std::uint32_t e);

  /// dst[i] ^= src[i]
  static void region_add(value_type* dst, const value_type* src, std::size_t n);
  /// dst[i] ^= c * src[i]
  static void region_madd(value_type* dst, const value_type* src, value_type c,
                          std::size_t n);
  /// dst[i] = c * dst[i]
  static void region_mul(value_type* dst, value_type c, std::size_t n);
};

namespace detail {

/// Row `c` of the product table (row[x] == c * x): the `mul_row` argument
/// the Gf256Kernels expect (gf/dispatch.hpp). For benches and kernel tests
/// that call a tier's kernels directly.
const std::uint8_t* gf256_mul_row(std::uint8_t c);

}  // namespace detail

}  // namespace ncast::gf
