#pragma once
// Generation decoder: incremental Gaussian elimination over the augmented
// matrix [coefficients | payload]. Maintains the basis in reduced form so
// that (a) innovation of an incoming packet is detected in O(rank * width)
// and (b) once the rank reaches g the original packets are read off directly.
//
// Hot-path memory discipline: the basis rows live in one contiguous arena
// (allocated at construction, one row per possible pivot plus a scratch row)
// and absorb() builds the candidate directly in the arena's next free slot,
// so absorbing a packet performs zero heap allocations and zero row copies —
// see linalg/reduced_basis.hpp for the elimination core and
// tests/test_codec_alloc.cpp for the enforcement.

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "coding/packet.hpp"
#include "linalg/reduced_basis.hpp"
#include "obs/metrics.hpp"

namespace ncast::coding {

/// Decoder (and basis store) for one generation.
template <typename Field>
class Decoder {
 public:
  using value_type = typename Field::value_type;
  using Packet = CodedPacket<Field>;

  Decoder(std::uint32_t generation, std::size_t generation_size, std::size_t symbols)
      : generation_(generation),
        g_(generation_size),
        symbols_(symbols),
        basis_(generation_size + symbols, generation_size),
        probe_(generation_size) {
    if (g_ == 0 || symbols_ == 0) {
      throw std::invalid_argument("Decoder: zero generation size or symbols");
    }
  }

  std::uint32_t generation() const { return generation_; }
  std::size_t generation_size() const { return g_; }
  std::size_t symbols() const { return symbols_; }
  std::size_t rank() const { return basis_.rank(); }
  bool complete() const { return rank() == g_; }

  /// Packets ever offered to absorb() on this decoder instance.
  std::uint64_t packets_received() const { return received_; }
  /// Packets that increased the rank. Always innovative + redundant ==
  /// received; the redundant count includes malformed/stray rejects.
  std::uint64_t packets_innovative() const { return innovative_; }
  std::uint64_t packets_redundant() const { return received_ - innovative_; }

  // ncast:hot-begin — per-packet absorb/innovation probes: no allocation, no
  // throw (stray packets are data, not errors).

  /// Consumes a packet; returns true iff it was innovative.
  /// Packets from other generations or with wrong shape are rejected
  /// (returns false) rather than throwing, since in a network simulation
  /// stray packets are data, not programming errors. A complete decoder
  /// rejects every packet without copying or eliminating it (nothing can be
  /// innovative at full rank); it still counts it as received and redundant.
  bool absorb(const Packet& p) {
    obs::ScopeTimer timer(reg().absorb_ns);
    ++received_;
    reg().received.inc();
    if (complete() || p.generation != generation_ || p.coeffs.size() != g_ ||
        p.payload.size() != symbols_) {
      reg().redundant.inc();
      return false;
    }
    // Working row: [coeffs | payload] concatenated into the basis's scratch
    // row — the arena slot the row will occupy if it proves innovative.
    value_type* r = basis_.scratch_row();
    std::copy(p.coeffs.begin(), p.coeffs.end(), r);
    std::copy(p.payload.begin(), p.payload.end(), r + g_);
    if (!basis_.absorb()) {
      reg().redundant.inc();
      return false;  // not innovative
    }
    ++innovative_;
    reg().innovative.inc();
    return true;
  }

  /// Absorbs a pre-validated raw row: `coeffs` (g entries) and `payload`
  /// (symbols entries) already laid out by the caller. Same counting and
  /// timing as absorb(); used by the structured decoders (band offset /
  /// class routing happens there, shape checks included).
  bool absorb_row(const value_type* coeffs, const value_type* payload) {
    obs::ScopeTimer timer(reg().absorb_ns);
    ++received_;
    reg().received.inc();
    if (complete()) {
      reg().redundant.inc();
      return false;
    }
    value_type* r = basis_.scratch_row();
    std::copy(coeffs, coeffs + g_, r);
    std::copy(payload, payload + symbols_, r + g_);
    if (!basis_.absorb()) {
      reg().redundant.inc();
      return false;
    }
    ++innovative_;
    reg().innovative.inc();
    return true;
  }

  /// Absorbs the unit row e_col with the given payload — a decoded source
  /// packet injected as side information (the overlap decoder hands decoded
  /// boundary packets to neighboring classes this way). Not counted as a
  /// received packet: it is internal propagation, not network traffic.
  bool absorb_unit(std::size_t col, const value_type* payload) {
    value_type* r = basis_.scratch_row();
    std::fill(r, r + g_, value_type{0});
    r[col] = value_type{1};
    std::copy(payload, payload + symbols_, r + g_);
    return basis_.absorb();
  }

  /// Would this packet be innovative? (No state change.)
  bool is_innovative(const Packet& p) const {
    if (complete() || p.generation != generation_ || p.coeffs.size() != g_ ||
        p.payload.size() != symbols_) {
      return false;
    }
    // Only the coefficient part matters for innovation; reduce a g-wide probe.
    std::copy(p.coeffs.begin(), p.coeffs.end(), probe_.begin());
    for (std::size_t i = 0; i < basis_.rank(); ++i) {
      const std::size_t piv = basis_.pivot(i);
      const value_type f = probe_[piv];
      if (f != value_type{0}) {
        Field::region_madd(probe_.data() + piv, basis_.row(i) + piv, f,
                           g_ - piv);
      }
    }
    for (std::size_t j = 0; j < g_; ++j) {
      if (probe_[j] != value_type{0}) return true;
    }
    return false;
  }

  // ncast:hot-end

  /// True iff source packet `index` is already individually recoverable,
  /// i.e. the unit vector e_index lies in the received row space. Because
  /// the basis is kept fully reduced, that is the case exactly when the row
  /// pivoting on `index` has no other nonzero coefficient. This enables
  /// progressive delivery (e.g. starting playback) before full rank.
  bool recoverable(std::size_t index) const {
    if (index >= g_) throw std::out_of_range("Decoder::recoverable");
    const std::size_t i = basis_.row_of_pivot(index);
    return i != Basis::npos && row_is_unit(i);
  }

  /// Number of source packets already individually recoverable. One pass over
  /// the basis: a row contributes exactly when its coefficient part is a unit
  /// vector.
  std::size_t recoverable_count() const {
    std::size_t n = 0;
    for (std::size_t i = 0; i < basis_.rank(); ++i) n += row_is_unit(i) ? 1 : 0;
    return n;
  }

  /// Payload of the row pivoting on `index`, without copying; requires
  /// recoverable(index). The overlap decoder reads decoded boundary packets
  /// through this in its propagation loop (no per-symbol copies).
  const value_type* recovered_payload(std::size_t index) const {
    if (index >= g_) throw std::out_of_range("Decoder::recovered_payload");
    const std::size_t i = basis_.row_of_pivot(index);
    if (i == Basis::npos || !row_is_unit(i)) {
      throw std::logic_error("Decoder::recovered_payload: not yet recoverable");
    }
    return basis_.row(i) + g_;
  }

  /// Recovered source packet `index`; requires only recoverable(index), so
  /// it also works mid-decode on systematic or lucky packets.
  std::vector<value_type> recover_packet(std::size_t index) const {
    if (index >= g_) throw std::out_of_range("Decoder::recover_packet");
    const std::size_t i = basis_.row_of_pivot(index);
    if (i == Basis::npos || !row_is_unit(i)) {
      throw std::logic_error("Decoder::recover_packet: not yet recoverable");
    }
    const value_type* r = basis_.row(i);
    return {r + g_, r + g_ + symbols_};
  }

  /// Recovered source packet `index`; requires complete().
  std::vector<value_type> source_packet(std::size_t index) const {
    if (!complete()) throw std::logic_error("Decoder::source_packet: rank deficient");
    if (index >= g_) throw std::out_of_range("Decoder::source_packet");
    // Basis is in RREF with g pivots, so the row whose pivot is `index` holds
    // exactly e_index in the coefficient part and the source payload beyond.
    const std::size_t i = basis_.row_of_pivot(index);
    if (i == Basis::npos) throw std::logic_error("Decoder::source_packet: pivot missing");
    const value_type* r = basis_.row(i);
    return {r + g_, r + g_ + symbols_};
  }

  /// All recovered source packets in order; requires complete().
  std::vector<std::vector<value_type>> source_packets() const {
    std::vector<std::vector<value_type>> out;
    out.reserve(g_);
    for (std::size_t i = 0; i < g_; ++i) out.push_back(source_packet(i));
    return out;
  }

  /// Basis row `i` as [coeffs | payload], without copying. Rows are in
  /// arrival order; the recoder mixes straight from these pointers.
  const value_type* basis_row(std::size_t i) const {
    if (i >= basis_.rank()) throw std::out_of_range("Decoder::basis_row");
    return basis_.row(i);
  }

  /// Pivot column of basis row `i` (< generation_size()). On a complete
  /// decoder the coefficient part of basis_row(i) is exactly e_pivot(i).
  std::size_t pivot(std::size_t i) const {
    if (i >= basis_.rank()) throw std::out_of_range("Decoder::pivot");
    return basis_.pivot(i);
  }

  /// Basis row i as a coded packet (allocating; kept for inspection and
  /// tests — the hot path uses basis_row()).
  Packet basis_packet(std::size_t i) const {
    const value_type* r = basis_row(i);
    Packet p;
    p.generation = generation_;
    p.coeffs.assign(r, r + g_);
    p.payload.assign(r + g_, r + g_ + symbols_);
    return p;
  }

 private:
  using Basis = linalg::ReducedBasis<Field>;

  /// True iff basis row `i`'s coefficient part is exactly e_pivot(i).
  bool row_is_unit(std::size_t i) const {
    const value_type* r = basis_.row(i);
    const std::size_t piv = basis_.pivot(i);
    for (std::size_t j = 0; j < g_; ++j) {
      if (j != piv && r[j] != value_type{0}) return false;
    }
    return true;
  }

  // Process-wide decode counters and the elimination-time probe, shared by
  // every Decoder instance (the registry guarantees stable references).
  struct Instrumentation {
    obs::Counter& received = obs::metrics().counter("decoder.packets_received");
    obs::Counter& innovative = obs::metrics().counter("decoder.packets_innovative");
    obs::Counter& redundant = obs::metrics().counter("decoder.packets_redundant");
    obs::Histogram& absorb_ns = obs::metrics().histogram("decoder.absorb_ns");
  };
  static Instrumentation& reg() {
    static Instrumentation instr;
    return instr;
  }

  std::uint32_t generation_;
  std::size_t g_;
  std::size_t symbols_;
  std::uint64_t received_ = 0;    // per-instance; backs packets_received()
  std::uint64_t innovative_ = 0;  // per-instance; backs packets_innovative()
  Basis basis_;                         // RREF of [coeffs | payload], arena-backed
  mutable std::vector<value_type> probe_;  // reusable is_innovative() row
};

}  // namespace ncast::coding
