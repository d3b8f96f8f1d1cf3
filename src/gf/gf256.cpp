#include "gf/gf256.hpp"

#include <array>
#include <cassert>

#include "gf/dispatch.hpp"

namespace ncast::gf {
namespace {

constexpr std::uint32_t kPoly = 0x11D;  // x^8 + x^4 + x^3 + x^2 + 1

struct Tables {
  std::array<std::uint8_t, 256> log{};
  std::array<std::uint8_t, 512> exp{};  // doubled so exp[log a + log b] needs no mod
  std::array<std::array<std::uint8_t, 256>, 256> mul{};

  Tables() {
    std::uint32_t x = 1;
    for (std::uint32_t i = 0; i < 255; ++i) {
      exp[i] = static_cast<std::uint8_t>(x);
      exp[i + 255] = static_cast<std::uint8_t>(x);
      log[x] = static_cast<std::uint8_t>(i);
      x <<= 1;
      if (x & 0x100) x ^= kPoly;
    }
    exp[510] = exp[0];
    exp[511] = exp[1];
    log[0] = 0;  // sentinel; callers must not use log[0]
    for (std::uint32_t a = 1; a < 256; ++a) {
      for (std::uint32_t b = 1; b < 256; ++b) {
        mul[a][b] = exp[log[a] + log[b]];
      }
    }
  }
};

const Tables& tables() {
  static const Tables t;
  return t;
}

}  // namespace

Gf256::value_type Gf256::mul(value_type a, value_type b) {
  return tables().mul[a][b];
}

Gf256::value_type Gf256::div(value_type a, value_type b) {
  assert(b != 0 && "Gf256::div by zero");
  if (a == 0) return 0;
  const auto& t = tables();
  return t.exp[t.log[a] + 255 - t.log[b]];
}

Gf256::value_type Gf256::inv(value_type a) {
  assert(a != 0 && "Gf256::inv of zero");
  const auto& t = tables();
  return t.exp[255 - t.log[a]];
}

Gf256::value_type Gf256::pow(value_type a, std::uint32_t e) {
  if (e == 0) return 1;
  if (a == 0) return 0;
  const auto& t = tables();
  const std::uint32_t l = (static_cast<std::uint32_t>(t.log[a]) * e) % 255;
  return t.exp[l];
}

namespace detail {

const std::uint8_t* gf256_mul_row(std::uint8_t c) {
  return tables().mul[c].data();
}

}  // namespace detail

// ncast:hot-begin — region kernels: the innermost loops of every decode,
// recode, and elimination; allocation- and throw-free by contract.
//
// Rows of at least the active tier's min_len symbols go to its kernels
// (gf/dispatch.cpp): every nonempty row on GFNI, 32 symbols and up on
// AVX2/SSSE3. Shorter rows run the scalar loops here.

void Gf256::region_add(value_type* dst, const value_type* src, std::size_t n) {
  const auto& k = detail::gf256_kernels();
  if (n >= k.min_len) {
    k.add(dst, src, n);
    return;
  }
  detail::gf256_add_scalar(dst, src, n);
}

void Gf256::region_madd(value_type* dst, const value_type* src, value_type c,
                        std::size_t n) {
  if (c == 0) return;
  if (c == 1) {
    region_add(dst, src, n);
    return;
  }
  const auto& row = tables().mul[c];
  const auto& k = detail::gf256_kernels();
  if (n >= k.min_len) {
    k.madd(dst, src, row.data(), n);
    return;
  }
  detail::gf256_madd_scalar(dst, src, row.data(), n);
}

void Gf256::region_mul(value_type* dst, value_type c, std::size_t n) {
  if (c == 1) return;
  if (c == 0) {
    for (std::size_t i = 0; i < n; ++i) dst[i] = 0;
    return;
  }
  const auto& row = tables().mul[c];
  const auto& k = detail::gf256_kernels();
  if (n >= k.min_len) {
    k.mul(dst, row.data(), n);
    return;
  }
  detail::gf256_mul_scalar(dst, row.data(), n);
}

// ncast:hot-end

}  // namespace ncast::gf
