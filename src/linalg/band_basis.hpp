#pragma once
// Arena-backed *banded* row basis — the elimination core beneath the band
// decoder (coding/band_decoder.hpp).
//
// For banded generation structures every coded packet mixes only a width-w
// contiguous run of source packets, so every row the decoder ever holds has
// coefficient support inside a width-w window. This basis exploits that:
//
//   - Rows are slot-addressed by pivot column (no pivot search, no arrival
//     order): slot p stores the row whose pivot is p, as a *compact* strip of
//     at most `band` coefficients starting at column p, plus the payload.
//     A row costs O(band + symbols) storage instead of O(g + symbols).
//   - absorb() is forward-only elimination. With every stored row normalized
//     to a unit leading coefficient and supported on [p, p + band), a
//     candidate reduced to lead L keeps support inside [L, L + band) — the
//     window never widens (each elimination step moves the lead right by at
//     least one while extending the end by at most band past the old lead).
//     So elimination touches O(band) coefficients per step, not O(g).
//   - Full RREF back-substitution would fill the band above each pivot and
//     destroy exactly the sparsity we are exploiting, so it is deferred: one
//     O(g * band) payload-only back_substitute() pass once the basis is
//     complete, instead of O(g^2) eagerly.
//
// Innovation verdicts are exact linear algebra (a candidate is adopted iff it
// is independent of the stored rows), so a band decoder over this basis gives
// bit-identical innovative/redundant sequences to the dense decoder on the
// same packets. Like ReducedBasis, the whole thing is one allocation at
// construction and absorb() allocates nothing.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ncast::linalg {

/// Banded basis over `cols` pivot columns with `payload_cols` augmented
/// payload symbols per row; all absorbed rows must have coefficient support
/// of width <= `band` (the caller's generation structure guarantees this).
template <typename Field>
class BandBasis {
 public:
  using value_type = typename Field::value_type;

  BandBasis(std::size_t cols, std::size_t payload_cols, std::size_t band)
      : cols_(cols),
        payload_cols_(payload_cols),
        band_(band),
        coeff_stride_(round_up(band)),
        row_stride_(round_up(coeff_stride_ + payload_cols)),
        scratch_stride_(round_up(cols)),
        arena_(cols * row_stride_ + scratch_stride_ + round_up(payload_cols) +
                   kAlign,
               value_type{0}),
        occupied_(cols, 0),
        extents_(cols, 0) {
    const auto addr = reinterpret_cast<std::uintptr_t>(arena_.data());
    const std::uintptr_t misfit = addr % kAlignBytes;
    base_ = arena_.data() +
            (misfit ? (kAlignBytes - misfit) / sizeof(value_type) : 0);
    scratch_coeffs_ = base_ + cols_ * row_stride_;
    scratch_payload_ = scratch_coeffs_ + scratch_stride_;
  }

  BandBasis(const BandBasis&) = delete;
  BandBasis& operator=(const BandBasis&) = delete;
  BandBasis(BandBasis&&) = default;
  BandBasis& operator=(BandBasis&&) = default;

  std::size_t cols() const { return cols_; }
  std::size_t payload_cols() const { return payload_cols_; }
  std::size_t band() const { return band_; }
  std::size_t rank() const { return rank_; }
  bool complete() const { return rank_ == cols_; }

  /// True iff a stored row pivots on column p.
  bool has_pivot(std::size_t p) const { return occupied_[p] != 0; }

  /// Compact coefficient strip of the row pivoting on p: extent(p) entries
  /// covering columns [p, p + extent(p)), entry 0 always 1.
  const value_type* coeff_row(std::size_t p) const {
    return base_ + p * row_stride_;
  }
  /// Support length of the stored row at slot p (<= band).
  std::size_t extent(std::size_t p) const { return extents_[p]; }

  /// Payload of the row pivoting on p. After back_substitute() on a complete
  /// basis this is the decoded source packet p.
  const value_type* payload_row(std::size_t p) const {
    return base_ + p * row_stride_ + coeff_stride_;
  }

  // ncast:hot-begin — per-packet banded elimination; allocation-free by
  // contract, enforced by ncast_lint and tests/test_codec_alloc.cpp.

  /// Absorbs a candidate row with coefficients `coeffs[0..width)` covering
  /// columns [offset, offset + width) and payload `payload[0..payload_cols)`.
  /// Requires width <= band and offset + width <= cols (the decoder validates
  /// packets against the structure before calling). Returns true iff the row
  /// was innovative (and was adopted). A complete basis rejects at once,
  /// before the copy-in.
  bool absorb(std::size_t offset, const value_type* coeffs, std::size_t width,
              const value_type* payload) {
    if (complete()) return false;
    // Scratch coefficient row is all-zero outside [offset, end) by the
    // zero-on-exit discipline below, so a plain copy-in suffices.
    value_type* sc = scratch_coeffs_;
    value_type* sp = scratch_payload_;
    std::copy(coeffs, coeffs + width, sc + offset);
    std::copy(payload, payload + payload_cols_, sp);

    std::size_t lead = offset;
    std::size_t end = offset + width;
    while (true) {
      while (lead < end && sc[lead] == value_type{0}) ++lead;
      if (lead == end) return false;  // dependent; scratch already zero again
      if (!occupied_[lead]) {
        adopt(lead, end);
        return true;
      }
      // Eliminate the stored unit-lead row at slot `lead`. Its support ends
      // at lead + extents_[lead] <= lead + band, so the candidate's window
      // stays within band of its (advancing) lead.
      const value_type f = sc[lead];
      const value_type* rc = coeff_row(lead);
      const std::size_t ext = extents_[lead];
      Field::region_madd(sc + lead, rc, f, ext);
      Field::region_madd(sp, payload_row(lead), f, payload_cols_);
      if (lead + ext > end) end = lead + ext;
      ++lead;  // sc[lead] is now zero (unit leading coefficient times f)
    }
  }

  // ncast:hot-end

  /// Payload-only back-substitution: once complete(), rewrites every stored
  /// payload to the decoded source packet. One O(cols * band) pass, deferred
  /// here because doing it eagerly inside absorb() would densify the band.
  /// Idempotent.
  void back_substitute() {
    if (decoded_ || !complete()) return;
    for (std::size_t p = cols_; p-- > 0;) {
      value_type* rc = base_ + p * row_stride_;
      value_type* rp = rc + coeff_stride_;
      const std::size_t ext = extents_[p];
      // Rows right of p are already fully decoded (descending order), so
      // subtracting coeff-weighted decoded payloads isolates source packet p.
      for (std::size_t j = 1; j < ext; ++j) {
        const value_type f = rc[j];
        if (f != value_type{0}) {
          Field::region_madd(rp, payload_row(p + j), f, payload_cols_);
          rc[j] = value_type{0};
        }
      }
      extents_[p] = 1;
    }
    decoded_ = true;
  }

  bool decoded() const { return decoded_; }

 private:
  static constexpr std::size_t kAlignBytes = 64;
  static constexpr std::size_t kAlign = kAlignBytes / sizeof(value_type);
  static std::size_t round_up(std::size_t n) {
    return (n + kAlign - 1) / kAlign * kAlign;
  }

  // ncast:hot-begin — adoption path of absorb(), kept out-of-line for
  // readability; same no-allocation contract.

  /// Normalizes the scratch row (lead at `lead`, support ending at `end`) and
  /// stores it compactly in slot `lead`, then re-zeroes the scratch strip.
  void adopt(std::size_t lead, std::size_t end) {
    value_type* sc = scratch_coeffs_;
    value_type* sp = scratch_payload_;
    const std::size_t ext = end - lead;  // <= band by the window invariant
    const value_type f = sc[lead];
    if (f != value_type{1}) {
      const value_type finv = Field::inv(f);
      Field::region_mul(sc + lead, finv, ext);
      Field::region_mul(sp, finv, payload_cols_);
    }
    value_type* rc = base_ + lead * row_stride_;
    std::copy(sc + lead, sc + end, rc);
    std::copy(sp, sp + payload_cols_, rc + coeff_stride_);
    std::fill(sc + lead, sc + end, value_type{0});  // zero-on-exit
    occupied_[lead] = 1;
    extents_[lead] = ext;
    ++rank_;
  }

  // ncast:hot-end

  std::size_t cols_;
  std::size_t payload_cols_;
  std::size_t band_;
  std::size_t coeff_stride_;    // per-slot compact coeff capacity, 64B-rounded
  std::size_t row_stride_;      // coeff strip + payload, 64B-rounded
  std::size_t scratch_stride_;  // full-width scratch coeff row, 64B-rounded
  std::vector<value_type> arena_;
  std::vector<std::uint8_t> occupied_;  // slot p holds a row?
  std::vector<std::size_t> extents_;    // support length of slot p's row
  value_type* base_ = nullptr;
  value_type* scratch_coeffs_ = nullptr;   // cols_ wide, all-zero between calls
  value_type* scratch_payload_ = nullptr;  // payload_cols_ wide
  std::size_t rank_ = 0;
  bool decoded_ = false;
};

}  // namespace ncast::linalg
