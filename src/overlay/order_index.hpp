#pragma once
// Order-statistic index over dense uint32 ids: the "curtain index" behind the
// SoA ThreadMatrix (docs/architecture.md, "sharded kernel & SoA overlay
// state"). A treap keyed by implicit position, stored as one 32-byte record
// per id, indexed by the id itself — no per-node heap allocation and one
// record (half a cache line) per visited node. Priorities are derived
// deterministically from the id (splitmix64 finalizer, recomputed on demand
// rather than stored), so the tree shape — and therefore every operation's
// cost — is a pure function of the id set and insertion positions: identical
// across runs, platforms, and shard counts.
//
// Each id also carries a caller-owned 64-bit tag, and every node keeps the OR
// of the tags in its subtree. That turns "the nearest id after/before `v`
// whose tag meets `bits`" into a root-ward climb plus one descent, O(log n),
// instead of a walk over every id in between (next_tagged / prev_tagged;
// ThreadMatrix tags each row with its column set to find a column's nearest
// clipper).
//
// Complexities (n = current size, expected over the deterministic-but-mixed
// priorities): insert_at / erase / set_tag / position / at / next_tagged /
// prev_tagged are O(log n); front / back are O(1); prev / next are tree
// predecessor / successor, O(log n) worst case per call but amortized O(1)
// over a full in-order iteration, which therefore stays O(n) with no
// materialized vector (see OrderIndex::begin/end).

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <stdexcept>
#include <vector>

namespace ncast::overlay {

class OrderIndex {
 public:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  bool contains(std::uint32_t v) const {
    return (v >> kPageBits) < pages_.size() && node(v).cnt != 0;
  }

  /// First id in order (kNil when empty).
  std::uint32_t front() const { return head_; }
  /// Last id in order (kNil when empty).
  std::uint32_t back() const { return tail_; }

  /// Predecessor in order (kNil at the front). `v` must be contained.
  std::uint32_t prev(std::uint32_t v) const {
    const Node& n = node(v);
    if (n.left != kNil) return rightmost(n.left);
    std::uint32_t u = v;
    std::uint32_t p = n.parent;
    while (p != kNil && node(p).left == u) {
      u = p;
      p = node(p).parent;
    }
    return p;
  }

  /// Successor in order (kNil at the back). `v` must be contained.
  std::uint32_t next(std::uint32_t v) const {
    const Node& n = node(v);
    if (n.right != kNil) return leftmost(n.right);
    std::uint32_t u = v;
    std::uint32_t p = n.parent;
    while (p != kNil && node(p).right == u) {
      u = p;
      p = node(p).parent;
    }
    return p;
  }

  /// Nearest id after `v` whose tag shares a bit with `bits` (kNil if none).
  /// `v` must be contained.
  std::uint32_t next_tagged(std::uint32_t v, std::uint64_t bits) const {
    const Node& n = node(v);
    if (n.right != kNil && (node(n.right).sum & bits) != 0) {
      return first_tagged(n.right, bits);
    }
    std::uint32_t u = v;
    for (std::uint32_t p = n.parent; p != kNil; u = p, p = node(p).parent) {
      const Node& pn = node(p);
      if (pn.left != u) continue;  // came up from the right: p precedes u
      if ((pn.tag & bits) != 0) return p;
      if (pn.right != kNil && (node(pn.right).sum & bits) != 0) {
        return first_tagged(pn.right, bits);
      }
    }
    return kNil;
  }

  /// Nearest id before `v` whose tag shares a bit with `bits` (kNil if
  /// none). `v` must be contained.
  std::uint32_t prev_tagged(std::uint32_t v, std::uint64_t bits) const {
    const Node& n = node(v);
    if (n.left != kNil && (node(n.left).sum & bits) != 0) {
      return last_tagged(n.left, bits);
    }
    std::uint32_t u = v;
    for (std::uint32_t p = n.parent; p != kNil; u = p, p = node(p).parent) {
      const Node& pn = node(p);
      if (pn.right != u) continue;  // came up from the left: p follows u
      if ((pn.tag & bits) != 0) return p;
      if (pn.left != kNil && (node(pn.left).sum & bits) != 0) {
        return last_tagged(pn.left, bits);
      }
    }
    return kNil;
  }

  /// The tag `v` was inserted with or last set to. `v` must be contained.
  std::uint64_t tag(std::uint32_t v) const { return node(v).tag; }

  /// Replaces `v`'s tag. `v` must be contained.
  void set_tag(std::uint32_t v, std::uint64_t tag) {
    if (!contains(v)) throw std::out_of_range("OrderIndex::set_tag: unknown id");
    node(v).tag = tag;
    refresh_sums(v);
  }

  /// Inserts `v` with `tag` so that it ends up at position `pos` (0 =
  /// front). `v` must not be contained; pos must be <= size().
  void insert_at(std::size_t pos, std::uint32_t v, std::uint64_t tag) {
    if (pos > count_) throw std::out_of_range("OrderIndex::insert_at: pos");
    if (contains(v)) throw std::invalid_argument("OrderIndex: duplicate id");
    ensure_capacity(v);

    // Descend by implicit index to the attach point.
    std::uint32_t cur = root_;
    std::uint32_t parent = kNil;
    bool went_left = false;
    std::size_t p = pos;
    while (cur != kNil) {
      const Node& c = node(cur);
      parent = cur;
      if (p < c.cnt) {  // p <= size of c's left subtree
        went_left = true;
        cur = c.left;
      } else {
        went_left = false;
        p -= c.cnt;
        cur = c.right;
      }
    }
    node(v) = Node{tag, tag, kNil, kNil, parent, 1};
    if (parent == kNil) {
      root_ = v;
    } else {
      (went_left ? node(parent).left : node(parent).right) = v;
      // Fix ranks (where v went left) and summaries on the descent path,
      // then restore the heap property by rotating v up while its priority
      // beats its parent's.
      for (std::uint32_t u = v, a = parent; a != kNil; u = a, a = node(a).parent) {
        Node& na = node(a);
        if (na.left == u) ++na.cnt;
        na.sum |= tag;
      }
      const std::uint32_t pv = mix_priority(v);
      while (node(v).parent != kNil && pv < mix_priority(node(v).parent)) {
        rotate_up(v);
      }
    }
    if (pos == 0) head_ = v;
    if (pos == count_) tail_ = v;
    ++count_;
  }

  /// Removes `v`. `v` must be contained.
  void erase(std::uint32_t v) {
    if (!contains(v)) throw std::out_of_range("OrderIndex::erase: unknown id");
    if (v == head_) head_ = next(v);
    if (v == tail_) tail_ = prev(v);
    // Rotate v down (promoting the smaller-priority child) until it's a leaf.
    while (node(v).left != kNil || node(v).right != kNil) {
      const Node& n = node(v);
      std::uint32_t child;
      if (n.left == kNil) {
        child = n.right;
      } else if (n.right == kNil) {
        child = n.left;
      } else {
        child = mix_priority(n.left) < mix_priority(n.right) ? n.left : n.right;
      }
      rotate_up(child);
    }
    const std::uint32_t parent = node(v).parent;
    if (parent == kNil) {
      root_ = kNil;
    } else {
      // Every ancestor holding v in its left subtree drops one rank.
      for (std::uint32_t u = v, a = parent; a != kNil; u = a, a = node(a).parent) {
        if (node(a).left == u) --node(a).cnt;
      }
      (node(parent).left == v ? node(parent).left : node(parent).right) = kNil;
      refresh_sums(parent);
    }
    node(v) = Node{};
    --count_;
  }

  /// Position of `v` in order (0 = front).
  std::size_t position(std::uint32_t v) const {
    if (!contains(v)) throw std::out_of_range("OrderIndex::position");
    std::size_t pos = node(v).cnt - 1;
    std::uint32_t cur = v;
    for (std::uint32_t p = node(cur).parent; p != kNil; p = node(cur).parent) {
      if (node(p).right == cur) pos += node(p).cnt;
      cur = p;
    }
    return pos;
  }

  /// Id at position `pos` (0 = front).
  std::uint32_t at(std::size_t pos) const {
    if (pos >= count_) throw std::out_of_range("OrderIndex::at");
    std::uint32_t cur = root_;
    while (true) {
      const Node& n = node(cur);
      if (pos + 1 < n.cnt) {
        cur = n.left;
      } else if (pos + 1 == n.cnt) {
        return cur;
      } else {
        pos -= n.cnt;
        cur = n.right;
      }
    }
  }

  /// Full structural audit, O(n log n): parent/child links agree, the heap
  /// property holds, every rank and tag summary equals its recomputation
  /// from the subtrees below it, the root covers every contained id, and
  /// front / back are the in-order ends.
  bool audit() const {
    const std::size_t ids = pages_.size() * kPageSize;
    std::vector<std::uint32_t> size(ids, 0);  // subtree sizes, recounted
    std::size_t present = 0;
    for (std::uint32_t v = 0; v < ids; ++v) {
      const Node& n = node(v);
      if (n.cnt == 0) continue;
      ++present;
      for (const std::uint32_t c : {n.left, n.right}) {
        if (c == kNil) continue;
        if (!contains(c) || node(c).parent != v) return false;
        if (mix_priority(c) < mix_priority(v)) return false;
      }
      if (n.parent == kNil ? root_ != v
                           : !contains(n.parent) ||
                                 (node(n.parent).left != v &&
                                  node(n.parent).right != v)) {
        return false;
      }
      if (n.sum != recomputed_sum(v)) return false;
      // Count v in every ancestor's subtree; a parent cycle would never
      // reach the root.
      std::size_t steps = 0;
      for (std::uint32_t a = v; a != kNil; a = node(a).parent) {
        if (++steps > count_) return false;
        ++size[a];
      }
    }
    if (present != count_) return false;
    for (std::uint32_t v = 0; v < ids; ++v) {
      const Node& n = node(v);
      if (n.cnt != 0 && n.cnt != 1 + (n.left == kNil ? 0 : size[n.left])) return false;
    }
    if (root_ == kNil) return count_ == 0 && head_ == kNil && tail_ == kNil;
    return size[root_] == count_ && head_ == leftmost(root_) &&
           tail_ == rightmost(root_);
  }

  /// Forward iteration over ids in order, amortized O(1) per step, nothing
  /// materialized: `for (auto id : index) ...`.
  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = std::uint32_t;
    using difference_type = std::ptrdiff_t;
    using pointer = const std::uint32_t*;
    using reference = std::uint32_t;

    iterator() = default;
    iterator(const OrderIndex* idx, std::uint32_t cur) : idx_(idx), cur_(cur) {}
    std::uint32_t operator*() const { return cur_; }
    iterator& operator++() {
      cur_ = idx_->next(cur_);
      return *this;
    }
    iterator operator++(int) {
      iterator t = *this;
      ++*this;
      return t;
    }
    friend bool operator==(const iterator& a, const iterator& b) {
      return a.cur_ == b.cur_;
    }

   private:
    const OrderIndex* idx_ = nullptr;
    std::uint32_t cur_ = kNil;
  };

  iterator begin() const { return iterator(this, head_); }
  iterator end() const { return iterator(this, kNil); }

 private:
  /// One id's treap node. cnt == 0 means the id is absent.
  struct Node {
    std::uint64_t tag = 0;   // caller's bits for this id
    std::uint64_t sum = 0;   // OR of tag over the subtree
    std::uint32_t left = kNil, right = kNil, parent = kNil;
    std::uint32_t cnt = 0;   // 1 + size of the left subtree: the id's rank
                             // within its own subtree (order statistics)
  };
  static_assert(sizeof(Node) == 32, "one node per half cache line");

  static std::uint32_t mix_priority(std::uint32_t v) {
    // splitmix64 finalizer over the id: deterministic, well mixed, so even
    // sequential ids produce a balanced treap in expectation.
    std::uint64_t z = static_cast<std::uint64_t>(v) + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<std::uint32_t>((z ^ (z >> 31)) >> 16);
  }

  std::uint64_t summary(std::uint32_t v) const { return v == kNil ? 0 : node(v).sum; }
  std::uint64_t recomputed_sum(std::uint32_t v) const {
    const Node& n = node(v);
    return n.tag | summary(n.left) | summary(n.right);
  }
  /// Recomputes summaries from `v` toward the root. An ancestor's summary
  /// depends only on its children's, so the walk stops at the first one
  /// that comes out unchanged.
  void refresh_sums(std::uint32_t v) {
    for (std::uint32_t a = v; a != kNil; a = node(a).parent) {
      const std::uint64_t s = recomputed_sum(a);
      if (s == node(a).sum) break;
      node(a).sum = s;
    }
  }

  std::uint32_t leftmost(std::uint32_t v) const {
    while (node(v).left != kNil) v = node(v).left;
    return v;
  }
  std::uint32_t rightmost(std::uint32_t v) const {
    while (node(v).right != kNil) v = node(v).right;
    return v;
  }

  /// First id in order within the subtree at `v` whose tag meets `bits`;
  /// the subtree's summary must meet `bits`.
  std::uint32_t first_tagged(std::uint32_t v, std::uint64_t bits) const {
    while (true) {
      const Node& n = node(v);
      if (n.left != kNil && (node(n.left).sum & bits) != 0) {
        v = n.left;
      } else if ((n.tag & bits) != 0) {
        return v;
      } else {
        v = n.right;
      }
    }
  }

  /// Last id in order within the subtree at `v` whose tag meets `bits`; the
  /// subtree's summary must meet `bits`.
  std::uint32_t last_tagged(std::uint32_t v, std::uint64_t bits) const {
    while (true) {
      const Node& n = node(v);
      if (n.right != kNil && (node(n.right).sum & bits) != 0) {
        v = n.right;
      } else if ((n.tag & bits) != 0) {
        return v;
      } else {
        v = n.left;
      }
    }
  }

  void ensure_capacity(std::uint32_t v) {
    while ((v >> kPageBits) >= pages_.size()) pages_.emplace_back(kPageSize);
  }

  /// Rotates `v` one level up (v must have a parent). In-order sequence is
  /// unchanged; ranks and summaries are patched locally.
  void rotate_up(std::uint32_t v) {
    Node& nv = node(v);
    const std::uint32_t p = nv.parent;
    Node& np = node(p);
    const std::uint32_t g = np.parent;
    if (np.left == v) {
      np.left = nv.right;
      if (nv.right != kNil) node(nv.right).parent = p;
      nv.right = p;
      np.cnt -= nv.cnt;  // p loses v and v's left subtree
    } else {
      np.right = nv.left;
      if (nv.left != kNil) node(nv.left).parent = p;
      nv.left = p;
      nv.cnt += np.cnt;  // v gains p and p's left subtree
    }
    np.parent = v;
    nv.parent = g;
    if (g == kNil) {
      root_ = v;
    } else if (node(g).left == p) {
      node(g).left = v;
    } else {
      node(g).right = v;
    }
    // v now roots exactly the set p rooted before.
    nv.sum = np.sum;
    np.sum = recomputed_sum(p);
  }

  // Nodes live in fixed pages of 4096 ids (128 KiB). Growing never copies
  // or frees a large block: a flat array's doubling holds old and new
  // copies at once, and glibc then raises its mmap threshold past the freed
  // block, which kept later large allocations of a 1M-client run on the
  // heap (+12% peak RSS, measured).
  static constexpr unsigned kPageBits = 12;
  static constexpr std::uint32_t kPageSize = std::uint32_t{1} << kPageBits;
  const Node& node(std::uint32_t v) const {
    return pages_[v >> kPageBits][v & (kPageSize - 1)];
  }
  Node& node(std::uint32_t v) { return pages_[v >> kPageBits][v & (kPageSize - 1)]; }

  std::vector<std::vector<Node>> pages_;  // indexed by id >> kPageBits
  std::uint32_t root_ = kNil;
  std::uint32_t head_ = kNil;
  std::uint32_t tail_ = kNil;
  std::size_t count_ = 0;
};

}  // namespace ncast::overlay
