#pragma once
// In-network recoder: buffers received packets (as a reduced basis, which is
// information-equivalent to the raw buffer and memory-bounded by the
// generation size) and emits fresh random linear combinations. This is the
// "mixing at each clip" of the curtain model.
//
// Emitting is zero-copy: coefficients are drawn into a preallocated scratch
// vector and the mix reads straight from the decoder's arena rows into the
// caller's packet buffers. emit_into() reuses whatever capacity the caller's
// packet already has, so a simulator that recycles packets allocates nothing
// per emission in steady state.

#include <cstdint>
#include <optional>

#include "coding/decoder.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace ncast::coding {

/// Recoder for one generation. Absorbing and emitting are both O(g * width);
/// once the basis is complete, absorbing is O(1) and emitting O(g * symbols).
template <typename Field>
class Recoder {
 public:
  using value_type = typename Field::value_type;
  using Packet = CodedPacket<Field>;

  Recoder(std::uint32_t generation, std::size_t generation_size, std::size_t symbols)
      : basis_(generation, generation_size, symbols) {
    mix_.reserve(generation_size);
  }

  /// Consumes a received packet; returns true iff innovative.
  bool absorb(const Packet& p) { return basis_.absorb(p); }

  std::size_t rank() const { return basis_.rank(); }
  bool complete() const { return basis_.complete(); }
  std::uint32_t generation() const { return basis_.generation(); }
  const Decoder<Field>& decoder() const { return basis_; }

  // ncast:hot-begin — per-emission mixing: reuses the caller's packet
  // capacity, zero heap allocations in steady state.

  /// Writes a random combination of everything received so far into `out`,
  /// reusing its buffers. Returns false (and leaves `out` unspecified) if
  /// nothing has been received — a node with an empty buffer stays silent.
  bool emit_into(Packet& out, Rng& rng) const {
    const std::size_t r = basis_.rank();
    if (r == 0) return false;
    static obs::Histogram& emit_ns = obs::metrics().histogram("recoder.emit_ns");
    obs::ScopeTimer timer(emit_ns);
    const std::size_t g = basis_.generation_size();
    const std::size_t symbols = basis_.symbols();

    // Draw the mixing coefficients first. A degenerate all-zero draw is not
    // retried against the basis: one uniformly random position is forced to a
    // uniformly random nonzero value instead, so the fix-up costs O(1) and
    // the emitted packet still carries information.
    mix_.resize(r);  // ncast:allow(hot_path.alloc): capacity reserved at construction (generation_size entries)
    bool nonzero = false;
    for (std::size_t i = 0; i < r; ++i) {
      mix_[i] = static_cast<value_type>(rng.below(Field::order));
      nonzero = nonzero || mix_[i] != value_type{0};
    }
    if (!nonzero) {
      mix_[rng.below(r)] = static_cast<value_type>(1 + rng.below(Field::order - 1));
    }

    out.generation = basis_.generation();
    out.band_offset = 0;  // dense emission; clears a recycled packet's strip
    out.class_id = 0;
    out.coeffs.assign(g, value_type{0});
    out.payload.assign(symbols, value_type{0});
    // At full rank the basis is the identity up to row order (row i's
    // coefficient part is e_pivot(i)), so the mixed coefficient vector is the
    // draw itself, placed at the pivots: only the payload needs madds.
    const bool full = r == g;
    for (std::size_t i = 0; i < r; ++i) {
      const value_type c = mix_[i];
      if (c == value_type{0}) continue;
      const value_type* row = basis_.basis_row(i);  // [coeffs | payload]
      if (full) {
        out.coeffs[basis_.pivot(i)] = c;
      } else {
        Field::region_madd(out.coeffs.data(), row, c, g);
      }
      Field::region_madd(out.payload.data(), row + g, c, symbols);
    }
    return true;
  }

  // ncast:hot-end

  /// Emits a random combination of everything received so far, or nullopt if
  /// nothing has been received. Allocates a fresh packet; loops that care
  /// about allocation churn use emit_into().
  std::optional<Packet> emit(Rng& rng) const {
    Packet out;
    if (!emit_into(out, rng)) return std::nullopt;
    return out;
  }

 private:
  Decoder<Field> basis_;
  mutable std::vector<value_type> mix_;  // reusable coefficient draw
};

}  // namespace ncast::coding
