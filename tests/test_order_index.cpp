// OrderIndex tests: the curtain index behind ThreadMatrix. Directed cases
// pin the edges (empty, ends, errors); the randomized history checks every
// query — including the tagged nearest-match searches — against a naive
// vector after every edit.

#include "overlay/order_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace ncast {
namespace {

using overlay::OrderIndex;
constexpr std::uint32_t kNil = OrderIndex::kNil;

TEST(OrderIndex, EmptyIndex) {
  OrderIndex idx;
  EXPECT_TRUE(idx.empty());
  EXPECT_EQ(idx.size(), 0u);
  EXPECT_EQ(idx.front(), kNil);
  EXPECT_EQ(idx.back(), kNil);
  EXPECT_FALSE(idx.contains(0));
  EXPECT_TRUE(idx.begin() == idx.end());
  EXPECT_THROW(idx.at(0), std::out_of_range);
  EXPECT_THROW(idx.position(3), std::out_of_range);
  EXPECT_THROW(idx.erase(3), std::out_of_range);
  EXPECT_THROW(idx.set_tag(3, 1), std::out_of_range);
  EXPECT_THROW(idx.insert_at(1, 3, 0), std::out_of_range);
  EXPECT_TRUE(idx.audit());
}

TEST(OrderIndex, InsertEraseKeepsEndsAndOrder) {
  OrderIndex idx;
  idx.insert_at(0, 5, 0);     // 5
  idx.insert_at(0, 9, 0);     // 9 5
  idx.insert_at(2, 1, 0);     // 9 5 1
  idx.insert_at(1, 7000, 0);  // 9 7000 5 1 (a second storage page)
  EXPECT_THROW(idx.insert_at(0, 5, 0), std::invalid_argument);
  EXPECT_EQ(idx.front(), 9u);
  EXPECT_EQ(idx.back(), 1u);
  std::vector<std::uint32_t> got(idx.begin(), idx.end());
  EXPECT_EQ(got, (std::vector<std::uint32_t>{9, 7000, 5, 1}));
  EXPECT_EQ(idx.prev(9), kNil);
  EXPECT_EQ(idx.next(1), kNil);
  idx.erase(9);
  idx.erase(1);
  EXPECT_EQ(idx.front(), 7000u);
  EXPECT_EQ(idx.back(), 5u);
  EXPECT_TRUE(idx.audit());
  idx.erase(7000);
  idx.erase(5);
  EXPECT_TRUE(idx.empty());
  EXPECT_EQ(idx.front(), kNil);
  EXPECT_EQ(idx.back(), kNil);
  EXPECT_TRUE(idx.audit());
}

TEST(OrderIndex, TaggedSearchSkipsUntaggedAndIsStrict) {
  OrderIndex idx;
  for (std::uint32_t v = 0; v < 6; ++v) idx.insert_at(v, v, v % 2 ? 0b10 : 0b01);
  // Order 0..5; tags 01 10 01 10 01 10.
  EXPECT_EQ(idx.next_tagged(0, 0b01), 2u);
  EXPECT_EQ(idx.next_tagged(0, 0b10), 1u);
  EXPECT_EQ(idx.next_tagged(4, 0b01), kNil);
  EXPECT_EQ(idx.prev_tagged(5, 0b10), 3u);
  EXPECT_EQ(idx.prev_tagged(1, 0b10), kNil);
  EXPECT_EQ(idx.next_tagged(0, 0b100), kNil);
  idx.set_tag(3, 0b110);
  EXPECT_EQ(idx.next_tagged(0, 0b100), 3u);
  EXPECT_EQ(idx.prev_tagged(5, 0b100), 3u);
  idx.set_tag(3, 0);
  EXPECT_EQ(idx.next_tagged(0, 0b100), kNil);
  EXPECT_EQ(idx.next_tagged(2, 0b10), 5u);
  EXPECT_TRUE(idx.audit());
}

// The obvious model: ids with their tags in order.
struct NaiveOrder {
  std::vector<std::pair<std::uint32_t, std::uint64_t>> items;

  std::size_t position(std::uint32_t v) const {
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (items[i].first == v) return i;
    }
    return items.size();
  }
  std::uint32_t next_tagged(std::uint32_t v, std::uint64_t bits) const {
    for (std::size_t i = position(v) + 1; i < items.size(); ++i) {
      if ((items[i].second & bits) != 0) return items[i].first;
    }
    return kNil;
  }
  std::uint32_t prev_tagged(std::uint32_t v, std::uint64_t bits) const {
    for (std::size_t i = position(v); i-- > 0;) {
      if ((items[i].second & bits) != 0) return items[i].first;
    }
    return kNil;
  }
};

// A tag with a few bits set, sometimes none: sparse enough that tagged
// searches have to skip over runs of non-matching ids.
std::uint64_t random_tag(Rng& rng) {
  std::uint64_t tag = 0;
  const std::uint64_t bits = rng.below(4);
  for (std::uint64_t b = 0; b < bits; ++b) tag |= std::uint64_t{1} << rng.below(64);
  return tag;
}

void check_against_model(const OrderIndex& idx, const NaiveOrder& ref, Rng& rng) {
  ASSERT_EQ(idx.size(), ref.items.size());
  ASSERT_TRUE(idx.audit());
  if (ref.items.empty()) {
    ASSERT_EQ(idx.front(), kNil);
    ASSERT_EQ(idx.back(), kNil);
    return;
  }
  ASSERT_EQ(idx.front(), ref.items.front().first);
  ASSERT_EQ(idx.back(), ref.items.back().first);
  std::size_t i = 0;
  for (std::uint32_t v : idx) {
    ASSERT_LT(i, ref.items.size());
    ASSERT_EQ(v, ref.items[i].first) << "position " << i;
    ++i;
  }
  ASSERT_EQ(i, ref.items.size());
  for (i = 0; i < ref.items.size(); ++i) {
    const auto [v, tag] = ref.items[i];
    ASSERT_EQ(idx.at(i), v);
    ASSERT_EQ(idx.position(v), i);
    ASSERT_EQ(idx.tag(v), tag);
    ASSERT_EQ(idx.prev(v), i == 0 ? kNil : ref.items[i - 1].first);
    ASSERT_EQ(idx.next(v), i + 1 == ref.items.size() ? kNil : ref.items[i + 1].first);
    // One single-bit query and one random mask per id.
    const std::uint64_t one = std::uint64_t{1} << rng.below(64);
    const std::uint64_t mask = rng();
    for (const std::uint64_t bits : {one, mask}) {
      ASSERT_EQ(idx.next_tagged(v, bits), ref.next_tagged(v, bits))
          << "id " << v << " bits " << bits;
      ASSERT_EQ(idx.prev_tagged(v, bits), ref.prev_tagged(v, bits))
          << "id " << v << " bits " << bits;
    }
  }
}

TEST(OrderIndex, RandomHistoryMatchesNaiveVector) {
  Rng rng(9001);
  OrderIndex idx;
  NaiveOrder ref;
  std::vector<std::uint32_t> absent;
  // Ids span several storage pages, and are reused after erase.
  for (std::uint32_t v = 0; v < 12000; v += 7) absent.push_back(v);

  for (int op = 0; op < 3000; ++op) {
    const std::uint64_t dice = rng.below(100);
    if (ref.items.empty() || (dice < 45 && !absent.empty())) {
      const std::size_t pick = rng.below(absent.size());
      const std::uint32_t v = absent[pick];
      absent[pick] = absent.back();
      absent.pop_back();
      const std::size_t pos = rng.below(ref.items.size() + 1);
      const std::uint64_t tag = random_tag(rng);
      ref.items.insert(ref.items.begin() + static_cast<std::ptrdiff_t>(pos), {v, tag});
      idx.insert_at(pos, v, tag);
    } else if (dice < 75) {
      const std::size_t pos = rng.below(ref.items.size());
      const std::uint32_t v = ref.items[pos].first;
      ref.items.erase(ref.items.begin() + static_cast<std::ptrdiff_t>(pos));
      idx.erase(v);
      absent.push_back(v);
    } else {
      auto& item = ref.items[rng.below(ref.items.size())];
      item.second = random_tag(rng);
      idx.set_tag(item.first, item.second);
    }
    if (op % 100 == 0) check_against_model(idx, ref, rng);
  }
  check_against_model(idx, ref, rng);
}

}  // namespace
}  // namespace ncast
