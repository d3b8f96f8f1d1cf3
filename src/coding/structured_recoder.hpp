#pragma once
// Structure-aware in-network recoder.
//
// Recoding interacts differently with each generation structure:
//
//   dense       delegates to the original Recoder, draw-for-draw (the RNG
//               stream and emitted bytes are identical to pre-structure
//               code).
//   banded      received band strips are scattered into a dense basis and
//               re-emitted as *dense* packets. Mixing two bands with
//               different offsets widens the support, so recoding densifies
//               banded codes — a known property of sparse network codes, not
//               an implementation shortcut. Downstream nodes of a recoder
//               must therefore decode with the dense structure; banded
//               decoding pays off on encoder-direct traffic. The recoder
//               itself accepts both band strips and densified packets (it
//               may sit behind another recoder).
//   overlapped  recoding happens *within* a class (one Recoder per class),
//               which preserves the structure exactly: a recoded packet is a
//               valid class packet and downstream OverlapDecoders absorb it
//               unchanged. This is the structure whose sparsity survives
//               multi-hop mixing.

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "coding/packet.hpp"
#include "coding/recoder.hpp"
#include "coding/structure.hpp"
#include "util/rng.hpp"

namespace ncast::coding {

/// Recoder for one generation under any structure. Buffers are preallocated
/// at construction; absorbing and emitting allocate nothing in steady state.
template <typename Field>
class StructuredRecoder {
 public:
  using value_type = typename Field::value_type;
  using Packet = CodedPacket<Field>;

  StructuredRecoder(std::uint32_t generation,
                    const GenerationStructure& structure, std::size_t symbols)
      : structure_(structure), symbols_(symbols) {
    structure_.validate();
    if (structure_.kind == StructureKind::kOverlapped) {
      const std::size_t classes = structure_.num_classes();
      class_recoders_.reserve(classes);
      for (std::size_t c = 0; c < classes; ++c) {
        class_recoders_.emplace_back(generation, structure_.class_width(c),
                                     symbols);
      }
      nonempty_.reserve(classes);
    } else {
      dense_.emplace(generation, structure_.g, symbols);
    }
  }

  const GenerationStructure& structure() const { return structure_; }
  std::size_t symbols() const { return symbols_; }
  std::uint32_t generation() const {
    return dense_ ? dense_->generation() : class_recoders_.front().generation();
  }

  std::size_t rank() const {
    if (dense_) return dense_->rank();
    std::size_t sum = 0;
    for (const auto& r : class_recoders_) sum += r.rank();
    return sum < structure_.g ? sum : structure_.g;
  }
  bool complete() const {
    if (dense_) return dense_->complete();
    for (const auto& r : class_recoders_) {
      if (!r.complete()) return false;
    }
    return true;
  }

  // ncast:hot-begin — per-packet recode absorb/emit: preallocated buffers,
  // no allocation in steady state, stray packets rejected as data.

  /// Consumes a received packet; returns true iff innovative.
  bool absorb(const Packet& p) {
    switch (structure_.kind) {
      case StructureKind::kDense:
        return dense_->absorb(p);
      case StructureKind::kBanded: {
        const std::size_t g = structure_.g;
        const bool densified = p.band_offset == 0 && p.coeffs.size() == g &&
                               p.class_id == 0;
        if (!densified && !structure_.matches_packet(
                              p.band_offset, p.coeffs.size(), p.class_id)) {
          return false;
        }
        if (densified) return dense_->absorb(p);
        // Scatter the band strip into a reusable dense packet.
        scratch_.generation = p.generation;
        scratch_.band_offset = 0;
        scratch_.class_id = 0;
        scratch_.coeffs.assign(g, value_type{0});
        for (std::size_t j = 0; j < p.coeffs.size(); ++j) {
          const std::size_t i = p.band_offset + j < g
                                    ? p.band_offset + j
                                    : p.band_offset + j - g;
          scratch_.coeffs[i] = p.coeffs[j];
        }
        scratch_.payload.assign(p.payload.begin(), p.payload.end());
        return dense_->absorb(scratch_);
      }
      case StructureKind::kOverlapped: {
        if (!structure_.matches_packet(p.band_offset, p.coeffs.size(),
                                       p.class_id)) {
          return false;
        }
        // The compact strip IS the class-local dense coefficient vector, and
        // the class recoder reads neither band_offset nor class_id, so the
        // packet goes in as it is.
        return class_recoders_[p.class_id].absorb(p);
      }
    }
    return false;
  }

  /// Writes a random recombination into `out`, reusing its buffers. Returns
  /// false if nothing has been received. Dense/banded structures emit dense
  /// packets; overlapped structures emit a packet of one uniformly chosen
  /// nonempty class (no draw is spent when only one class has data, so the
  /// single-class case stays stream-identical to the dense recoder).
  bool emit_into(Packet& out, Rng& rng) const {
    if (dense_) return dense_->emit_into(out, rng);
    nonempty_.clear();
    for (std::size_t c = 0; c < class_recoders_.size(); ++c) {
      if (class_recoders_[c].rank() > 0) {
        nonempty_.push_back(c);  // ncast:allow(hot_path.alloc): capacity reserved at construction (num_classes entries)
      }
    }
    if (nonempty_.empty()) return false;
    const std::size_t pick =
        nonempty_.size() > 1 ? nonempty_[rng.below(nonempty_.size())]
                             : nonempty_.front();
    if (!class_recoders_[pick].emit_into(out, rng)) return false;
    out.band_offset = static_cast<std::uint16_t>(structure_.class_begin(pick));
    out.class_id = static_cast<std::uint16_t>(pick);
    return true;
  }

  // ncast:hot-end

  /// Emits a recombination as a fresh packet, or nullopt if empty.
  std::optional<Packet> emit(Rng& rng) const {
    Packet out;
    if (!emit_into(out, rng)) return std::nullopt;
    return out;
  }

 private:
  GenerationStructure structure_;
  std::size_t symbols_;
  std::optional<Recoder<Field>> dense_;      // dense and banded structures
  std::vector<Recoder<Field>> class_recoders_;  // overlapped structures
  mutable Packet scratch_;                   // reusable banded scatter packet
  mutable std::vector<std::size_t> nonempty_;  // reusable emit class list
};

}  // namespace ncast::coding
