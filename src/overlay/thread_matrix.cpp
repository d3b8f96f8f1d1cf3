#include "overlay/thread_matrix.hpp"

#include <algorithm>

namespace ncast::overlay {

ThreadMatrix::ThreadMatrix(std::uint32_t k) : k_(k) {
  if (k == 0) throw std::invalid_argument("ThreadMatrix: k must be positive");
  tail_.assign(k_, kServerNode);
  free_.resize(33);  // capacity classes 2^0 .. 2^32
}

void ThreadMatrix::check_known(NodeId node) const {
  if (!contains(node)) throw std::out_of_range("ThreadMatrix: unknown node");
}

void ThreadMatrix::verify_threads(const ColumnId* threads,
                                  std::size_t count) const {
  if (count == 0) throw std::invalid_argument("ThreadMatrix: row needs >= 1 thread");
  for (std::size_t i = 0; i < count; ++i) {
    if (threads[i] >= k_) throw std::invalid_argument("ThreadMatrix: column out of range");
    if (i > 0 && threads[i] <= threads[i - 1]) {
      throw std::invalid_argument("ThreadMatrix: threads must be sorted and distinct");
    }
  }
}

std::uint8_t ThreadMatrix::cap_log2_for(std::size_t len) {
  std::uint8_t p = 0;
  while ((std::size_t{1} << p) < len) ++p;
  return p;
}

std::uint32_t ThreadMatrix::alloc_span(std::uint8_t cap_log2) {
  auto& fl = free_[cap_log2];
  if (!fl.empty()) {
    const std::uint32_t off = fl.back();
    fl.pop_back();
    return off;
  }
  const std::size_t cap = std::size_t{1} << cap_log2;
  const std::uint32_t off = static_cast<std::uint32_t>(cols_.size());
  cols_.resize(cols_.size() + cap);
  up_.resize(up_.size() + cap);
  down_.resize(down_.size() + cap);
  return off;
}

void ThreadMatrix::free_span(std::uint32_t off, std::uint8_t cap_log2) {
  free_[cap_log2].push_back(off);
}

std::uint32_t ThreadMatrix::slot_of(NodeId node, ColumnId column) const {
  const RowMeta& m = meta_[node];
  const ColumnId* first = cols_.data() + m.off;
  const ColumnId* it = std::lower_bound(first, first + m.len, column);
  return m.off + static_cast<std::uint32_t>(it - first);
}

void ThreadMatrix::append_row(NodeId node, std::vector<ColumnId> threads) {
  insert_row(order_.size(), node, std::move(threads));
}

void ThreadMatrix::insert_row(std::size_t pos, NodeId node,
                              std::vector<ColumnId> threads) {
  if (pos > order_.size()) throw std::out_of_range("ThreadMatrix::insert_row: pos");
  if (node == kServerNode) throw std::invalid_argument("ThreadMatrix: reserved node id");
  std::sort(threads.begin(), threads.end());
  insert_row(pos, node, threads.data(), threads.size());
}

void ThreadMatrix::insert_row(std::size_t pos, NodeId node,
                              const ColumnId* threads, std::size_t count) {
  if (pos > order_.size()) throw std::out_of_range("ThreadMatrix::insert_row: pos");
  if (node == kServerNode) throw std::invalid_argument("ThreadMatrix: reserved node id");
  verify_threads(threads, count);
  if (contains(node)) throw std::invalid_argument("ThreadMatrix: node already present");
  if (node >= meta_.size()) meta_.resize(node + 1);

  RowMeta& m = meta_[node];
  m.cap_log2 = cap_log2_for(count);
  m.off = alloc_span(m.cap_log2);
  m.len = static_cast<std::uint32_t>(count);
  m.present = true;
  m.failed = false;
  std::copy(threads, threads + count, cols_.begin() + m.off);

  order_.insert_at(pos, node, row_tag(node));
  for (std::uint32_t i = 0; i < m.len; ++i) link_slot(node, m.off + i);
}

std::uint64_t ThreadMatrix::row_tag(NodeId node) const {
  const RowMeta& m = meta_[node];
  std::uint64_t tag = 0;
  for (std::uint32_t i = 0; i < m.len; ++i) tag |= column_bit(cols_[m.off + i]);
  return tag;
}

bool ThreadMatrix::clips(NodeId node, ColumnId column) const {
  const RowMeta& m = meta_[node];
  const ColumnId* first = cols_.data() + m.off;
  return std::binary_search(first, first + m.len, column);
}

NodeId ThreadMatrix::clipper_below(NodeId node, ColumnId column) const {
  const std::uint64_t bit = column_bit(column);
  for (NodeId r = order_.next_tagged(node, bit); r != OrderIndex::kNil;
       r = order_.next_tagged(r, bit)) {
    if (clips(r, column)) return r;  // else an aliased column (k > 64)
  }
  return kNoNode;
}

NodeId ThreadMatrix::clipper_above(NodeId node, ColumnId column) const {
  const std::uint64_t bit = column_bit(column);
  for (NodeId r = order_.prev_tagged(node, bit); r != OrderIndex::kNil;
       r = order_.prev_tagged(r, bit)) {
    if (clips(r, column)) return r;
  }
  return kServerNode;
}

void ThreadMatrix::link_slot(NodeId node, std::uint32_t slot) {
  // The slot's parent is its child's previous upward link, or the column
  // tail when the slot becomes the hanging end.
  const ColumnId c = cols_[slot];
  const NodeId child = clipper_below(node, c);
  NodeId parent;
  if (child != kNoNode) {
    const std::uint32_t child_slot = slot_of(child, c);
    parent = up_[child_slot];
    up_[child_slot] = node;
  } else {
    parent = tail_[c];
    tail_[c] = node;
  }
  up_[slot] = parent;
  down_[slot] = child;
  if (parent != kServerNode) down_[slot_of(parent, c)] = node;
}

void ThreadMatrix::unlink_slot(std::uint32_t slot) {
  const ColumnId c = cols_[slot];
  const NodeId u = up_[slot];
  const NodeId d = down_[slot];
  if (u != kServerNode) down_[slot_of(u, c)] = d;
  if (d != kNoNode) {
    up_[slot_of(d, c)] = u;
  } else {
    tail_[c] = u;
  }
}

void ThreadMatrix::erase_row(NodeId node) {
  check_known(node);
  RowMeta& m = meta_[node];
  if (m.failed) --failed_count_;
  for (std::uint32_t i = 0; i < m.len; ++i) unlink_slot(m.off + i);
  free_span(m.off, m.cap_log2);
  m.present = false;
  m.failed = false;
  m.len = 0;
  order_.erase(node);
}

void ThreadMatrix::mark_failed(NodeId node) {
  check_known(node);
  RowMeta& m = meta_[node];
  if (!m.failed) {
    m.failed = true;
    ++failed_count_;
  }
}

void ThreadMatrix::mark_working(NodeId node) {
  check_known(node);
  RowMeta& m = meta_[node];
  if (m.failed) {
    m.failed = false;
    --failed_count_;
  }
}

Row ThreadMatrix::row(NodeId node) const {
  check_known(node);
  const RowMeta& m = meta_[node];
  return Row{node, ThreadSpan(cols_.data() + m.off, m.len), m.failed};
}

std::size_t ThreadMatrix::position(NodeId node) const {
  if (!contains(node)) throw std::out_of_range("ThreadMatrix::position");
  return order_.position(node);
}

std::vector<NodeId> ThreadMatrix::nodes_in_order() const {
  std::vector<NodeId> out;
  out.reserve(order_.size());
  for (NodeId n : order_) out.push_back(n);
  return out;
}

std::vector<ThreadEdge> ThreadMatrix::edges() const {
  std::vector<ThreadEdge> out;
  out.reserve(order_.size() * 2);
  for (NodeId node : order_) {
    const RowMeta& m = meta_[node];
    for (std::uint32_t i = 0; i < m.len; ++i) {
      out.push_back(ThreadEdge{up_[m.off + i], node, cols_[m.off + i]});
    }
  }
  return out;
}

std::vector<HangingEnd> ThreadMatrix::hanging_ends() const {
  std::vector<HangingEnd> ends(k_);
  for (ColumnId c = 0; c < k_; ++c) {
    ends[c].column = c;
    const NodeId owner = tail_[c];
    ends[c].owner = owner;
    ends[c].owner_failed = owner != kServerNode && meta_[owner].failed;
  }
  return ends;
}

std::vector<NodeId> ThreadMatrix::parents(NodeId node) const {
  check_known(node);
  const RowMeta& m = meta_[node];
  std::vector<NodeId> result;
  for (std::uint32_t i = 0; i < m.len; ++i) {
    const NodeId parent = up_[m.off + i];
    if (std::find(result.begin(), result.end(), parent) == result.end()) {
      result.push_back(parent);
    }
  }
  return result;
}

std::vector<NodeId> ThreadMatrix::children(NodeId node) const {
  check_known(node);
  const RowMeta& m = meta_[node];
  std::vector<NodeId> result;
  for (std::uint32_t i = 0; i < m.len; ++i) {
    const NodeId child = down_[m.off + i];
    if (child == kNoNode) continue;
    if (std::find(result.begin(), result.end(), child) == result.end()) {
      result.push_back(child);
    }
  }
  return result;
}

NodeId ThreadMatrix::parent_on_column(NodeId node, ColumnId column) const {
  check_known(node);
  if (column >= k_) throw std::invalid_argument("ThreadMatrix::parent_on_column: column");
  const std::uint32_t slot = slot_of(node, column);
  const RowMeta& m = meta_[node];
  if (slot < m.off + m.len && cols_[slot] == column) return up_[slot];
  // Not clipped by this row (e.g. a complaint racing an offload): ask the
  // order index for the nearest clipper above.
  return clipper_above(node, column);
}

NodeId ThreadMatrix::child_on_column(NodeId node, ColumnId column) const {
  check_known(node);
  if (column >= k_) throw std::invalid_argument("ThreadMatrix::child_on_column: column");
  const std::uint32_t slot = slot_of(node, column);
  const RowMeta& m = meta_[node];
  if (slot < m.off + m.len && cols_[slot] == column) return down_[slot];
  return clipper_below(node, column);
}

NodeId ThreadMatrix::tail_of_column(ColumnId column) const {
  if (column >= k_) throw std::invalid_argument("ThreadMatrix::tail_of_column: column");
  return tail_[column];
}

void ThreadMatrix::add_thread(NodeId node, ColumnId column) {
  if (column >= k_) throw std::invalid_argument("ThreadMatrix::add_thread: column");
  check_known(node);
  if (clips(node, column)) {
    throw std::invalid_argument("ThreadMatrix::add_thread: already clipped");
  }
  RowMeta& m = meta_[node];
  // Grow the span if at capacity (new slot from the next size class; links
  // reference rows by id, not arena offsets, so neighbors are unaffected).
  if (m.len == (std::uint32_t{1} << m.cap_log2)) {
    const std::uint8_t new_cap = static_cast<std::uint8_t>(m.cap_log2 + 1);
    const std::uint32_t new_off = alloc_span(new_cap);
    std::copy(cols_.begin() + m.off, cols_.begin() + m.off + m.len,
              cols_.begin() + new_off);
    std::copy(up_.begin() + m.off, up_.begin() + m.off + m.len,
              up_.begin() + new_off);
    std::copy(down_.begin() + m.off, down_.begin() + m.off + m.len,
              down_.begin() + new_off);
    free_span(m.off, m.cap_log2);
    m.off = new_off;
    m.cap_log2 = new_cap;
  }
  // Shift the tail of the span right to open the insertion point.
  const std::uint32_t ins = slot_of(node, column);
  for (std::uint32_t j = m.off + m.len; j > ins; --j) {
    cols_[j] = cols_[j - 1];
    up_[j] = up_[j - 1];
    down_[j] = down_[j - 1];
  }
  cols_[ins] = column;
  ++m.len;

  link_slot(node, ins);
  order_.set_tag(node, order_.tag(node) | column_bit(column));
}

void ThreadMatrix::drop_thread(NodeId node, ColumnId column) {
  check_known(node);
  RowMeta& m = meta_[node];
  const std::uint32_t slot = slot_of(node, column);
  if (slot >= m.off + m.len || cols_[slot] != column) {
    throw std::invalid_argument("ThreadMatrix::drop_thread: column not clipped");
  }
  if (m.len <= 1) {
    throw std::logic_error("ThreadMatrix::drop_thread: row would become empty");
  }
  unlink_slot(slot);
  for (std::uint32_t j = slot; j + 1 < m.off + m.len; ++j) {
    cols_[j] = cols_[j + 1];
    up_[j] = up_[j + 1];
    down_[j] = down_[j + 1];
  }
  --m.len;
  // Recomputed, not cleared: another column may share the dropped one's bit.
  order_.set_tag(node, row_tag(node));
}

bool ThreadMatrix::check_invariants() const {
  if (!order_.audit()) return false;
  // Span hygiene + failed census, walking the order index.
  std::size_t failed = 0;
  std::size_t seen = 0;
  std::size_t pos = 0;
  for (NodeId node : order_) {
    if (node >= meta_.size() || !meta_[node].present) return false;
    const RowMeta& m = meta_[node];
    if (m.len == 0) return false;
    if (m.len > (std::uint32_t{1} << m.cap_log2)) return false;
    for (std::uint32_t i = 0; i < m.len; ++i) {
      if (cols_[m.off + i] >= k_) return false;
      if (i > 0 && cols_[m.off + i] <= cols_[m.off + i - 1]) return false;
    }
    if (m.failed) ++failed;
    if (order_.position(node) != pos) return false;  // order index coherent
    if (order_.tag(node) != row_tag(node)) return false;  // tag = column set
    ++pos;
    ++seen;
  }
  if (failed != failed_count_) return false;
  // Every present slot must be in the order index exactly once.
  std::size_t present = 0;
  for (const RowMeta& m : meta_) {
    if (m.present) ++present;
  }
  if (present != seen) return false;

  // Link planes and tails must match a from-scratch top-to-bottom rebuild.
  std::vector<NodeId> last(k_, kServerNode);
  for (NodeId node : order_) {
    const RowMeta& m = meta_[node];
    for (std::uint32_t i = 0; i < m.len; ++i) {
      const ColumnId c = cols_[m.off + i];
      if (up_[m.off + i] != last[c]) return false;
      if (last[c] != kServerNode) {
        const RowMeta& pm = meta_[last[c]];
        const ColumnId* first = cols_.data() + pm.off;
        const ColumnId* it = std::lower_bound(first, first + pm.len, c);
        if (down_[pm.off + (it - first)] != node) return false;
      }
      last[c] = node;
    }
  }
  for (ColumnId c = 0; c < k_; ++c) {
    if (tail_[c] != last[c]) return false;
    if (last[c] != kServerNode) {
      const RowMeta& tm = meta_[last[c]];
      const ColumnId* first = cols_.data() + tm.off;
      const ColumnId* it = std::lower_bound(first, first + tm.len, c);
      if (down_[tm.off + (it - first)] != kNoNode) return false;
    }
  }
  return true;
}

}  // namespace ncast::overlay
