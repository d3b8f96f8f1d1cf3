#pragma once
// The matrix M of Section 3: the server-side data structure that mirrors the
// curtain overlay. Rows are nodes in curtain (top-to-bottom) order; each row
// holds the set of thread columns the node clipped. Heterogeneous degrees are
// allowed (Section 5): a row may have any 1 <= d <= k threads.
//
// The matrix is the single source of truth for topology. Everything else —
// the flow graph, parent/child relations, hanging-thread ends — is derived.
//
// Representation (the million-node refactor, docs/architecture.md "sharded
// kernel & SoA overlay state"): flat structure-of-arrays instead of
// row-objects-with-vectors. Row column sets live as packed spans inside one
// CSR-style bump arena (`cols_`), with two parallel link planes (`up_`,
// `down_`) storing, for every (row, column) slot, the nearest rows above and
// below clipping the same column — so `parents()` / `children()` /
// `edges()` read compact spans instead of rescanning the curtain, and
// `hanging_ends()` reads the per-column tail array. Curtain order is an
// order-statistic treap over node ids (order_index.hpp) that tags each row
// with its column set (bit c & 63 per column) and keeps per-subtree ORs of
// the tags, so the nearest row above or below that clips a column is an
// O(log n) tree query, not a curtain walk. Bits alias when k > 64; a hit on
// an aliased bit is confirmed against the row's span and the query resumes
// past it. `append_row` / `insert_row` are therefore O(d log n) (one
// clipper query per column of the row, plus the treap insert), `erase_row`
// O(log n + d), `position` O(log n), and `add_thread` / `drop_thread`
// O(log n + d). The public surface is unchanged from the AoS days except
// that `row()` returns a value whose `threads` is a borrowed span
// (invalidated by the next mutation), not an owned vector.

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "overlay/order_index.hpp"

namespace ncast::overlay {

using NodeId = std::uint32_t;
using ColumnId = std::uint32_t;

inline constexpr NodeId kServerNode = static_cast<NodeId>(-1);
/// Sentinel for "no row" in downward links and column tails. Shares the
/// server's id: a column whose tail is kServerNode hangs from the server,
/// and a slot whose down-link is kNoNode has no child below.
inline constexpr NodeId kNoNode = kServerNode;

/// Borrowed view of one row's sorted, distinct column set. Points into the
/// matrix's column arena: valid until the next mutating call on the matrix.
/// Callers that hold columns across mutations must copy (`to_vector()`).
class ThreadSpan {
 public:
  using value_type = ColumnId;
  using const_iterator = const ColumnId*;

  ThreadSpan() = default;
  ThreadSpan(const ColumnId* data, std::size_t size) : data_(data), size_(size) {}
  /// Implicit view of an owned vector (the reverse of to_vector()).
  ThreadSpan(const std::vector<ColumnId>& v) : data_(v.data()), size_(v.size()) {}

  const ColumnId* begin() const { return data_; }
  const ColumnId* end() const { return data_ + size_; }
  const ColumnId* data() const { return data_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  ColumnId operator[](std::size_t i) const { return data_[i]; }
  ColumnId front() const { return data_[0]; }
  ColumnId back() const { return data_[size_ - 1]; }

  std::vector<ColumnId> to_vector() const {
    return std::vector<ColumnId>(begin(), end());
  }

  friend bool operator==(const ThreadSpan& a, const ThreadSpan& b) {
    if (a.size_ != b.size_) return false;
    for (std::size_t i = 0; i < a.size_; ++i) {
      if (a.data_[i] != b.data_[i]) return false;
    }
    return true;
  }
  friend bool operator==(const ThreadSpan& a, const std::vector<ColumnId>& b) {
    return a == ThreadSpan(b.data(), b.size());
  }
  friend bool operator==(const std::vector<ColumnId>& a, const ThreadSpan& b) {
    return ThreadSpan(a.data(), a.size()) == b;
  }

 private:
  const ColumnId* data_ = nullptr;
  std::size_t size_ = 0;
};

/// One row of M, as a view: a node and the columns it clipped. `threads`
/// borrows from the matrix and is invalidated by the next mutation.
struct Row {
  NodeId node = 0;
  ThreadSpan threads;   // sorted, distinct
  bool failed = false;  // failure tag (Section 4)
};

/// A directed overlay edge derived from M: `from` feeds `to` on `column`.
struct ThreadEdge {
  NodeId from = 0;  // kServerNode means the server
  NodeId to = 0;
  ColumnId column = 0;
};

/// The hanging (unserved) end of a column: the last row clipping it, or the
/// server if none.
struct HangingEnd {
  ColumnId column = 0;
  NodeId owner = kServerNode;  // kServerNode = thread hangs from the server
  bool owner_failed = false;   // a dead end: delivers nothing until repaired
};

/// Matrix M. Node ids are stable handles assigned by the caller (the server);
/// row order is the curtain order.
class ThreadMatrix {
 public:
  explicit ThreadMatrix(std::uint32_t k);

  std::uint32_t k() const { return k_; }
  std::size_t row_count() const { return order_.size(); }

  /// Number of rows that are not tagged failed.
  std::size_t working_count() const { return row_count() - failed_count_; }
  std::size_t failed_count() const { return failed_count_; }

  bool contains(NodeId node) const {
    return node < meta_.size() && meta_[node].present;
  }

  /// Appends a row at the bottom of the curtain. `threads` must be distinct
  /// columns in [0, k). Throws if the node is already present.
  void append_row(NodeId node, std::vector<ColumnId> threads);

  /// Inserts a row at curtain position `pos` (0 = top). Section 5's defense
  /// against coordinated adversaries inserts at a uniformly random position.
  void insert_row(std::size_t pos, NodeId node, std::vector<ColumnId> threads);

  /// Span-based insert for allocation-averse callers: `threads` must already
  /// be sorted and distinct; the contents are copied into the arena.
  void insert_row(std::size_t pos, NodeId node, const ColumnId* threads,
                  std::size_t count);

  /// Removes a row entirely (graceful leave, or completion of a repair).
  /// The node's parents implicitly reconnect to its children — in M this is
  /// exactly row deletion (Lemma 1).
  void erase_row(NodeId node);

  /// Tags a row failed (non-ergodic failure awaiting repair).
  void mark_failed(NodeId node);

  /// Clears the failure tag (used by ergodic-failure recovery experiments).
  void mark_working(NodeId node);

  /// Row view; `row(n).threads` borrows from the arena (valid until the next
  /// mutating call).
  Row row(NodeId node) const;

  /// Curtain position of a node's row (0 = just below the server). O(log n).
  std::size_t position(NodeId node) const;

  /// Iteration over rows in curtain order without materializing a vector:
  /// `for (NodeId n : m.order()) ...`. Amortized O(1) per step.
  const OrderIndex& order() const { return order_; }

  /// Rows in curtain order, materialized (compat; prefer order()).
  std::vector<NodeId> nodes_in_order() const;

  /// All overlay edges implied by M: for each column, consecutive rows
  /// clipping it (server feeding the first). Includes edges touching failed
  /// rows; callers decide how to treat them.
  std::vector<ThreadEdge> edges() const;

  /// The k hanging ends in column order. O(k).
  std::vector<HangingEnd> hanging_ends() const;

  /// Parents of a node (deduplicated; a parent feeding two threads appears
  /// once in the result but contributes two edges in edges()). O(d) link
  /// reads plus dedup.
  std::vector<NodeId> parents(NodeId node) const;

  /// Children of a node (deduplicated). O(d) link reads plus dedup.
  std::vector<NodeId> children(NodeId node) const;

  /// Nearest row above `node` clipping `column` (kServerNode if the thread
  /// comes straight from the server). O(log d) when `node` clips the column
  /// (one link read); a tagged order-index query, O(log n), when it does not
  /// (more only when k > 64 and rows clipping aliased columns sit between).
  NodeId parent_on_column(NodeId node, ColumnId column) const;

  /// Nearest row below `node` clipping `column` (kNoNode if none). O(log d)
  /// when `node` clips the column; a tagged query, O(log n), otherwise.
  NodeId child_on_column(NodeId node, ColumnId column) const;

  /// Last row clipping `column` (kServerNode if the column is unclipped).
  NodeId tail_of_column(ColumnId column) const;

  /// Adds a thread to an existing row (congestion recovery, Section 5:
  /// "makes one of the zeroes ... into a one at random"). The column must not
  /// already be present in the row.
  void add_thread(NodeId node, ColumnId column);

  /// Drops a thread from an existing row (congestion offload: the node joins
  /// its parent and child on that column directly). The row must keep at
  /// least one thread.
  void drop_thread(NodeId node, ColumnId column);

  /// Internal-consistency check (sorted distinct threads, valid columns,
  /// order index audited — counts, tag summaries, ends — with every row's
  /// tag matching its columns, link planes matching a from-scratch
  /// rebuild); used by tests and debug assertions. O(n * (d + log n)).
  bool check_invariants() const;

 private:
  struct RowMeta {
    std::uint32_t off = 0;       // span offset into the arena
    std::uint32_t len = 0;       // columns clipped
    std::uint8_t cap_log2 = 0;   // span capacity = 1 << cap_log2
    bool present = false;
    bool failed = false;
  };

  void check_known(NodeId node) const;
  void verify_threads(const ColumnId* threads, std::size_t count) const;
  std::uint32_t alloc_span(std::uint8_t cap_log2);
  void free_span(std::uint32_t off, std::uint8_t cap_log2);
  static std::uint8_t cap_log2_for(std::size_t len);
  /// Arena index of `column` within `node`'s span (binary search).
  std::uint32_t slot_of(NodeId node, ColumnId column) const;
  /// Order-index tag bit of a column; distinct columns share one when k > 64.
  static std::uint64_t column_bit(ColumnId column) {
    return std::uint64_t{1} << (column & 63);
  }
  /// OR of column_bit over the row's columns.
  std::uint64_t row_tag(NodeId node) const;
  /// Whether the row's span holds `column` (binary search).
  bool clips(NodeId node, ColumnId column) const;
  /// Nearest row strictly below / above `node` that clips `column`
  /// (kNoNode / kServerNode if none): a tagged order-index query, confirmed
  /// against the row's span because bits alias when k > 64.
  NodeId clipper_below(NodeId node, ColumnId column) const;
  NodeId clipper_above(NodeId node, ColumnId column) const;
  /// Splices the row's column at arena `slot` into that column's link list
  /// between its nearest clippers above and below.
  void link_slot(NodeId node, std::uint32_t slot);
  /// Removes the occupant from the link list of the column at arena slot.
  void unlink_slot(std::uint32_t slot);

  std::uint32_t k_;
  OrderIndex order_;              // curtain order, top to bottom
  std::vector<RowMeta> meta_;     // indexed by NodeId
  // The CSR-style arena: three parallel planes sharing slot indexing. For a
  // row with meta (off, len): cols_[off..off+len) are its sorted columns,
  // up_[off+i] / down_[off+i] the nearest rows above/below clipping
  // cols_[off+i] (kServerNode = fed by the server, kNoNode = hanging end).
  std::vector<ColumnId> cols_;
  std::vector<NodeId> up_;
  std::vector<NodeId> down_;
  /// Freed spans by capacity class (index = cap_log2), reused before bumping.
  std::vector<std::vector<std::uint32_t>> free_;
  std::vector<NodeId> tail_;      // per-column last clipper (kServerNode = none)
  std::size_t failed_count_ = 0;
};

}  // namespace ncast::overlay
