// GFNI/AVX-512 region kernels. Compiled with -mgfni -mavx512f -mavx512bw
// -mavx512vl; callers must gate on gfni_available().
//
// The bit-matrix convention of vgf2p8affineqb (Intel SDM): for each byte,
//   out.bit[i] = parity(matrix.byte[7-i] AND in) ^ imm.bit[i]
// i.e. matrix byte 7-i is the row producing output bit i, and bit k of that
// row selects input bit k. To multiply by a constant c we need
//   out.bit[i] = XOR_k bit_i(c * 2^k) * in.bit[k]
// so matrix byte j must carry, at bit k, bit (7-j) of the basis image c*2^k.

#include "gf/gf_gfni.hpp"

#include <immintrin.h>

#include <array>

namespace ncast::gf::detail {
// ncast:hot-begin — region kernels: allocation- and throw-free by contract.


bool gfni_available() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("gfni") && __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512bw") && __builtin_cpu_supports("avx512vl");
}

namespace {

// Self-contained GF(2^8)/0x11D multiply for the one-time matrix-table build.
// (Deliberately not Gf256::mul: these kernels sit below the field front end
// and must not depend on its static-table initialization order.)
std::uint8_t mul8(unsigned a, unsigned b) {
  unsigned r = 0;
  while (b != 0) {
    if (b & 1u) r ^= a;
    a <<= 1;
    if (a & 0x100u) a ^= 0x11Du;
    b >>= 1;
  }
  return static_cast<std::uint8_t>(r);
}

/// Packs 8 basis images (im[k] = c * 2^k, one bit plane each) into an affine
/// matrix qword; `shift` selects which 8 output bits (0 for bits 0..7, 8 for
/// bits 8..15 of wider images). Matrix byte j, bit k is bit 7-j of image
/// byte k: gather the image bytes into one word (byte k = image k), transpose
/// it as an 8x8 bit matrix (three delta swaps, Hacker's Delight 7-3), then
/// reverse the byte order. The GF(2^16) kernels build four of these per call.
template <typename T>
std::uint64_t pack_matrix(const T* im, unsigned shift) {
  std::uint64_t x = 0;
  for (unsigned k = 0; k < 8; ++k) {
    x |= ((static_cast<std::uint64_t>(im[k]) >> shift) & 0xFFu) << (8 * k);
  }
  std::uint64_t t = (x ^ (x >> 7)) & 0x00AA00AA00AA00AAull;
  x ^= t ^ (t << 7);
  t = (x ^ (x >> 14)) & 0x0000CCCC0000CCCCull;
  x ^= t ^ (t << 14);
  t = (x ^ (x >> 28)) & 0x00000000F0F0F0F0ull;
  x ^= t ^ (t << 28);
  return __builtin_bswap64(x);
}

/// The affine matrix for multiplication by each GF(2^8) constant, built once.
/// 2KB, hot rows stay cached across a decode.
const std::uint64_t* gf256_matrices() {
  static const std::array<std::uint64_t, 256> table = [] {
    std::array<std::uint64_t, 256> t{};
    for (unsigned c = 0; c < 256; ++c) {
      std::uint8_t im[8];
      for (unsigned k = 0; k < 8; ++k) im[k] = mul8(c, 1u << k);
      t[c] = pack_matrix(im, 0);
    }
    return t;
  }();
  return table.data();
}

inline __mmask64 tail_mask(std::size_t bytes) {
  return ~__mmask64{0} >> (64 - bytes);
}

/// Masked byte load with a zeroed (not undefined) pass-through operand; the
/// maskz intrinsic's undefined source trips GCC's -Wmaybe-uninitialized.
inline __m512i masked_load(__mmask64 k, const void* p) {
  return _mm512_mask_loadu_epi8(_mm512_setzero_si512(), k, p);
}

}  // namespace

void region_madd_gfni(std::uint8_t* dst, const std::uint8_t* src,
                      const std::uint8_t* mul_row, std::size_t n) {
  const __m512i m = _mm512_set1_epi64(
      static_cast<long long>(gf256_matrices()[mul_row[1]]));
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    const __m512i x = _mm512_loadu_si512(src + i);
    const __m512i d = _mm512_loadu_si512(dst + i);
    const __m512i y = _mm512_gf2p8affine_epi64_epi8(x, m, 0);
    _mm512_storeu_si512(dst + i, _mm512_xor_si512(d, y));
  }
  if (i < n) {
    const __mmask64 k = tail_mask(n - i);
    const __m512i x = masked_load(k, src + i);
    const __m512i d = masked_load(k, dst + i);
    const __m512i y = _mm512_gf2p8affine_epi64_epi8(x, m, 0);
    _mm512_mask_storeu_epi8(dst + i, k, _mm512_xor_si512(d, y));
  }
}

void region_mul_gfni(std::uint8_t* dst, const std::uint8_t* mul_row,
                     std::size_t n) {
  const __m512i m = _mm512_set1_epi64(
      static_cast<long long>(gf256_matrices()[mul_row[1]]));
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    const __m512i x = _mm512_loadu_si512(dst + i);
    _mm512_storeu_si512(dst + i, _mm512_gf2p8affine_epi64_epi8(x, m, 0));
  }
  if (i < n) {
    const __mmask64 k = tail_mask(n - i);
    const __m512i x = masked_load(k, dst + i);
    _mm512_mask_storeu_epi8(dst + i, k, _mm512_gf2p8affine_epi64_epi8(x, m, 0));
  }
}

void region_add_gfni(std::uint8_t* dst, const std::uint8_t* src,
                     std::size_t n) {
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    const __m512i x = _mm512_loadu_si512(src + i);
    const __m512i d = _mm512_loadu_si512(dst + i);
    _mm512_storeu_si512(dst + i, _mm512_xor_si512(d, x));
  }
  if (i < n) {
    const __mmask64 k = tail_mask(n - i);
    const __m512i x = masked_load(k, src + i);
    const __m512i d = masked_load(k, dst + i);
    _mm512_mask_storeu_epi8(dst + i, k, _mm512_xor_si512(d, x));
  }
}

namespace {

// GF(2^16) symbols live interleaved in memory (little-endian u16: lo byte,
// hi byte). Multiplication by c is a 16x16 bit matrix, split into four 8x8
// blocks applied to the byte stream:
//   out_lo = A*in_lo ^ B*in_hi        out_hi = C*in_lo ^ D*in_hi
// Each affine pass transforms EVERY byte with one matrix, so the kernel runs
// four passes and recombines with 16-bit byte shifts: srli moves the hi-byte
// lane's result down to the lo lane, slli the other way.
struct BlockMatrices {
  __m512i a, b, c, d;
};

BlockMatrices build_blocks(const std::uint16_t (*nib)[16]) {
  // Basis images c * 2^(4j+b) are exactly nib[j][1<<b].
  std::uint16_t im[16];
  for (unsigned j = 0; j < 4; ++j) {
    for (unsigned b = 0; b < 4; ++b) im[4 * j + b] = nib[j][1u << b];
  }
  BlockMatrices m;
  m.a = _mm512_set1_epi64(static_cast<long long>(pack_matrix(im, 0)));
  m.b = _mm512_set1_epi64(static_cast<long long>(pack_matrix(im + 8, 0)));
  m.c = _mm512_set1_epi64(static_cast<long long>(pack_matrix(im, 8)));
  m.d = _mm512_set1_epi64(static_cast<long long>(pack_matrix(im + 8, 8)));
  return m;
}

inline __m512i product32(const BlockMatrices& m, __m512i x, __m512i lomask) {
  // (Plain AND with the complementary mask, not andnot: GCC's andnot
  // intrinsic carries an undefined pass-through operand that trips
  // -Wmaybe-uninitialized.)
  const __m512i himask = _mm512_set1_epi16(static_cast<short>(0xFF00));
  const __m512i lo =
      _mm512_xor_si512(_mm512_and_si512(_mm512_gf2p8affine_epi64_epi8(x, m.a, 0),
                                        lomask),
                       _mm512_srli_epi16(_mm512_gf2p8affine_epi64_epi8(x, m.b, 0), 8));
  const __m512i hi =
      _mm512_xor_si512(_mm512_and_si512(_mm512_gf2p8affine_epi64_epi8(x, m.d, 0),
                                        himask),
                       _mm512_slli_epi16(_mm512_gf2p8affine_epi64_epi8(x, m.c, 0), 8));
  return _mm512_xor_si512(lo, hi);
}

}  // namespace

void region_madd_gfni_u16(std::uint16_t* dst, const std::uint16_t* src,
                          const std::uint16_t (*nib)[16], std::size_t n) {
  const BlockMatrices m = build_blocks(nib);
  const __m512i lomask = _mm512_set1_epi16(0x00FF);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m512i x = _mm512_loadu_si512(src + i);
    const __m512i d = _mm512_loadu_si512(dst + i);
    _mm512_storeu_si512(dst + i, _mm512_xor_si512(d, product32(m, x, lomask)));
  }
  if (i < n) {
    const __mmask64 k = tail_mask(2 * (n - i));
    const __m512i x = masked_load(k, src + i);
    const __m512i d = masked_load(k, dst + i);
    _mm512_mask_storeu_epi8(dst + i, k,
                            _mm512_xor_si512(d, product32(m, x, lomask)));
  }
}

void region_mul_gfni_u16(std::uint16_t* dst, const std::uint16_t (*nib)[16],
                         std::size_t n) {
  const BlockMatrices m = build_blocks(nib);
  const __m512i lomask = _mm512_set1_epi16(0x00FF);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m512i x = _mm512_loadu_si512(dst + i);
    _mm512_storeu_si512(dst + i, product32(m, x, lomask));
  }
  if (i < n) {
    const __mmask64 k = tail_mask(2 * (n - i));
    const __m512i x = masked_load(k, dst + i);
    _mm512_mask_storeu_epi8(dst + i, k, product32(m, x, lomask));
  }
}

void region_add_gfni_u16(std::uint16_t* dst, const std::uint16_t* src,
                         std::size_t n) {
  region_add_gfni(reinterpret_cast<std::uint8_t*>(dst),
                  reinterpret_cast<const std::uint8_t*>(src), 2 * n);
}

// ncast:hot-end

}  // namespace ncast::gf::detail
