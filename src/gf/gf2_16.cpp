#include "gf/gf2_16.hpp"

#include <cassert>
#include <vector>

#include "gf/dispatch.hpp"

namespace ncast::gf {
namespace {

constexpr std::uint32_t kPoly = 0x1100B;  // x^16 + x^12 + x^3 + x + 1

struct Tables {
  std::vector<std::uint16_t> log;
  std::vector<std::uint16_t> exp;  // doubled length

  Tables() : log(65536), exp(131072) {
    std::uint32_t x = 1;
    for (std::uint32_t i = 0; i < 65535; ++i) {
      exp[i] = static_cast<std::uint16_t>(x);
      exp[i + 65535] = static_cast<std::uint16_t>(x);
      log[x] = static_cast<std::uint16_t>(i);
      x <<= 1;
      if (x & 0x10000) x ^= kPoly;
    }
    exp[131070] = exp[0];
    exp[131071] = exp[1];
    log[0] = 0;  // sentinel
  }
};

const Tables& tables() {
  static const Tables t;
  return t;
}

}  // namespace

namespace detail {

void gf2_16_nibble_tables(std::uint16_t c, std::uint16_t (*nib)[16]) {
  const auto& t = tables();
  const std::uint32_t lc = t.log[c];  // c != 0 checked by callers
  nib[0][0] = nib[1][0] = nib[2][0] = nib[3][0] = 0;
  for (std::uint32_t x = 1; x < 16; ++x) {
    nib[0][x] = t.exp[lc + t.log[x]];
    nib[1][x] = t.exp[lc + t.log[x << 4]];
    nib[2][x] = t.exp[lc + t.log[x << 8]];
    nib[3][x] = t.exp[lc + t.log[x << 12]];
  }
}

}  // namespace detail

Gf2_16::value_type Gf2_16::mul(value_type a, value_type b) {
  if (a == 0 || b == 0) return 0;
  const auto& t = tables();
  return t.exp[static_cast<std::uint32_t>(t.log[a]) + t.log[b]];
}

Gf2_16::value_type Gf2_16::div(value_type a, value_type b) {
  assert(b != 0 && "Gf2_16::div by zero");
  if (a == 0) return 0;
  const auto& t = tables();
  return t.exp[static_cast<std::uint32_t>(t.log[a]) + 65535 - t.log[b]];
}

Gf2_16::value_type Gf2_16::inv(value_type a) {
  assert(a != 0 && "Gf2_16::inv of zero");
  const auto& t = tables();
  return t.exp[65535 - t.log[a]];
}

Gf2_16::value_type Gf2_16::pow(value_type a, std::uint32_t e) {
  if (e == 0) return 1;
  if (a == 0) return 0;
  const auto& t = tables();
  const std::uint64_t l =
      (static_cast<std::uint64_t>(t.log[a]) * e) % 65535;
  return t.exp[l];
}

// ncast:hot-begin — region kernels: allocation- and throw-free by contract.
//
// Rows of at least the active tier's min_len symbols go to its kernels
// (gf/dispatch.cpp), which first need the coefficient's nibble tables
// (60 products, 128 bytes). Shorter rows stay on the direct log/exp loops
// here.

void Gf2_16::region_add(value_type* dst, const value_type* src, std::size_t n) {
  const auto& k = detail::gf2_16_kernels();
  if (n >= k.min_len) {
    k.add(dst, src, n);
    return;
  }
  detail::gf2_16_add_scalar(dst, src, n);
}

void Gf2_16::region_madd(value_type* dst, const value_type* src, value_type c,
                         std::size_t n) {
  if (c == 0) return;
  if (c == 1) {
    region_add(dst, src, n);
    return;
  }
  const auto& k = detail::gf2_16_kernels();
  if (n >= k.min_len) {
    std::uint16_t nib[4][16];
    detail::gf2_16_nibble_tables(c, nib);
    k.madd(dst, src, nib, n);
    return;
  }
  const auto& t = tables();
  const std::uint32_t lc = t.log[c];
  for (std::size_t i = 0; i < n; ++i) {
    if (src[i] != 0) dst[i] ^= t.exp[lc + t.log[src[i]]];
  }
}

void Gf2_16::region_mul(value_type* dst, value_type c, std::size_t n) {
  if (c == 1) return;
  if (c == 0) {
    for (std::size_t i = 0; i < n; ++i) dst[i] = 0;
    return;
  }
  const auto& k = detail::gf2_16_kernels();
  if (n >= k.min_len) {
    std::uint16_t nib[4][16];
    detail::gf2_16_nibble_tables(c, nib);
    k.mul(dst, nib, n);
    return;
  }
  const auto& t = tables();
  const std::uint32_t lc = t.log[c];
  for (std::size_t i = 0; i < n; ++i) {
    if (dst[i] != 0) dst[i] = t.exp[lc + t.log[dst[i]]];
  }
}

// ncast:hot-end

}  // namespace ncast::gf
