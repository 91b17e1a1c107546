// Copyright 2026 The obtree Authors.
//
// Unit tests of the on-page node layout and the restructuring primitives:
// leaf insert/remove, child-split posting (including the overtaking case),
// splits, merges, and redistributions, and the head-offset live range
// (slots[first, first + count)) that the in-place primitives maintain.

#include "obtree/node/node.h"

#include <map>
#include <vector>

#include <gtest/gtest.h>

namespace obtree {
namespace {

Node MakeLeaf(Key low, Key high, PageId link) {
  Node n;
  n.Init(0, low, high, link);
  return n;
}

Node MakeInternal(Key low, std::initializer_list<Entry> entries,
                  PageId link = kInvalidPageId) {
  Node n;
  n.Init(1, low, 0, link);
  for (const Entry& e : entries) {
    n.AppendEntry(e);
  }
  n.high = n.entry(n.count - 1).key;  // internal invariant
  return n;
}

TEST(NodeLayoutTest, SizesAndCapacity) {
  EXPECT_LE(sizeof(Node), kPageSize);
  EXPECT_EQ(Node::kMaxEntries, 254u);
  EXPECT_EQ(offsetof(Node, slots), Node::kHeaderSize);
}

TEST(NodeLayoutTest, FlagsRoundTrip) {
  Node n = MakeLeaf(0, kPlusInfinity, kInvalidPageId);
  EXPECT_TRUE(n.is_leaf());
  EXPECT_FALSE(n.is_root());
  EXPECT_FALSE(n.is_deleted());
  n.set_root(true);
  EXPECT_TRUE(n.is_root());
  n.set_root(false);
  EXPECT_FALSE(n.is_root());
  n.set_deleted(42);
  EXPECT_TRUE(n.is_deleted());
  EXPECT_EQ(n.merge_target, 42u);
}

TEST(NodeSearchTest, LowerBound) {
  Node n = MakeLeaf(0, kPlusInfinity, kInvalidPageId);
  for (Key k : {10, 20, 30, 40}) n.InsertLeafEntry(k, k);
  EXPECT_EQ(n.LowerBound(5), 0u);
  EXPECT_EQ(n.LowerBound(10), 0u);
  EXPECT_EQ(n.LowerBound(11), 1u);
  EXPECT_EQ(n.LowerBound(40), 3u);
  EXPECT_EQ(n.LowerBound(41), 4u);
}

TEST(NodeSearchTest, FindLeafValue) {
  Node n = MakeLeaf(0, kPlusInfinity, kInvalidPageId);
  n.InsertLeafEntry(10, 100);
  n.InsertLeafEntry(20, 200);
  EXPECT_EQ(n.FindLeafValue(10), 100u);
  EXPECT_EQ(n.FindLeafValue(20), 200u);
  EXPECT_FALSE(n.FindLeafValue(15).has_value());
  EXPECT_FALSE(n.FindLeafValue(30).has_value());
}

TEST(NodeSearchTest, ChildForPicksCoveringRange) {
  // Children: c1 covers (0,10], c2 covers (10,20], c3 covers (20,+inf].
  Node n = MakeInternal(0, {{10, 1}, {20, 2}, {kPlusInfinity, 3}});
  EXPECT_EQ(n.ChildFor(1), 1u);
  EXPECT_EQ(n.ChildFor(10), 1u);
  EXPECT_EQ(n.ChildFor(11), 2u);
  EXPECT_EQ(n.ChildFor(20), 2u);
  EXPECT_EQ(n.ChildFor(21), 3u);
  EXPECT_EQ(n.ChildFor(kMaxUserKey), 3u);
}

TEST(NodeSearchTest, NextFollowsLinkAboveHigh) {
  Node n = MakeInternal(0, {{10, 1}, {20, 2}}, /*link=*/99);
  Node::NextStep s = n.Next(25);
  EXPECT_TRUE(s.is_link);
  EXPECT_EQ(s.page, 99u);
  s = n.Next(15);
  EXPECT_FALSE(s.is_link);
  EXPECT_EQ(s.page, 2u);
}

TEST(NodeLeafTest, InsertKeepsOrder) {
  Node n = MakeLeaf(0, kPlusInfinity, kInvalidPageId);
  for (Key k : {30, 10, 20, 40, 5}) n.InsertLeafEntry(k, k * 2);
  ASSERT_EQ(n.count, 5u);
  Key prev = 0;
  for (uint32_t i = 0; i < n.count; ++i) {
    EXPECT_GT(n.entry(i).key, prev);
    EXPECT_EQ(n.entry(i).value, n.entry(i).key * 2);
    prev = n.entry(i).key;
  }
}

TEST(NodeLeafTest, RemovePresentAndAbsent) {
  Node n = MakeLeaf(0, kPlusInfinity, kInvalidPageId);
  for (Key k : {10, 20, 30}) n.InsertLeafEntry(k, k);
  EXPECT_TRUE(n.RemoveLeafEntry(20));
  EXPECT_EQ(n.count, 2u);
  EXPECT_FALSE(n.RemoveLeafEntry(20));
  EXPECT_FALSE(n.RemoveLeafEntry(99));
  EXPECT_EQ(n.entry(0).key, 10u);
  EXPECT_EQ(n.entry(1).key, 30u);
}

TEST(NodeInternalTest, InsertChildSplitNormalCase) {
  // Child 1 (covering (0,10]) split at 5; keys > 5 went to page 7.
  Node n = MakeInternal(0, {{10, 1}, {20, 2}});
  ASSERT_TRUE(n.InsertChildSplit(5, 7));
  ASSERT_EQ(n.count, 3u);
  EXPECT_EQ(n.entry(0).key, 5u);
  EXPECT_EQ(n.entry(0).value, 1u);  // left part keeps the old child
  EXPECT_EQ(n.entry(1).key, 10u);
  EXPECT_EQ(n.entry(1).value, 7u);  // right part is the new node
  EXPECT_EQ(n.entry(2).key, 20u);
}

TEST(NodeInternalTest, InsertChildSplitWithOvertaking) {
  // Section 3.1: two splits below the same parent may post in any order.
  // Child A (page 1) covering (0,20] split at 10 -> B (page 7); B then
  // split at 15 -> C (page 8). B's post arrives FIRST.
  Node n = MakeInternal(0, {{20, 1}, {30, 2}});
  ASSERT_TRUE(n.InsertChildSplit(15, 8));  // B's split, overtaking
  // Now (15 -> 1), (20 -> 8): the 15-entry temporarily points left of the
  // true owner; links recover searches (Theorem 1's validity assertion).
  EXPECT_EQ(n.entry(0).key, 15u);
  EXPECT_EQ(n.entry(0).value, 1u);
  EXPECT_EQ(n.entry(1).value, 8u);
  ASSERT_TRUE(n.InsertChildSplit(10, 7));  // A's split arrives second
  ASSERT_EQ(n.count, 4u);
  // Final layout is exactly right: (10->1),(15->7),(20->8),(30->2).
  EXPECT_EQ(n.entry(0).key, 10u);
  EXPECT_EQ(n.entry(0).value, 1u);
  EXPECT_EQ(n.entry(1).key, 15u);
  EXPECT_EQ(n.entry(1).value, 7u);
  EXPECT_EQ(n.entry(2).key, 20u);
  EXPECT_EQ(n.entry(2).value, 8u);
  EXPECT_EQ(n.entry(3).key, 30u);
  EXPECT_EQ(n.entry(3).value, 2u);
}

TEST(NodeInternalTest, InsertChildSplitRejectsDuplicateSeparator) {
  Node n = MakeInternal(0, {{10, 1}, {20, 2}});
  EXPECT_FALSE(n.InsertChildSplit(10, 7));
  EXPECT_EQ(n.count, 2u);
}

TEST(NodeInternalTest, FindChildIndex) {
  Node n = MakeInternal(0, {{10, 1}, {20, 2}, {30, 3}});
  EXPECT_EQ(n.FindChildIndex(2), 1);
  EXPECT_EQ(n.FindChildIndex(3), 2);
  EXPECT_EQ(n.FindChildIndex(9), -1);
}

TEST(NodeInternalTest, ApplyChildMerge) {
  Node n = MakeInternal(0, {{10, 1}, {20, 2}, {30, 3}});
  // Child 2 merged into child 1: entry (10 -> 1) disappears, (20 -> 2)
  // becomes (20 -> 1).
  ASSERT_TRUE(n.ApplyChildMerge(10, 1, 2));
  ASSERT_EQ(n.count, 2u);
  EXPECT_EQ(n.entry(0).key, 20u);
  EXPECT_EQ(n.entry(0).value, 1u);
  EXPECT_EQ(n.entry(1).key, 30u);
  EXPECT_EQ(n.entry(1).value, 3u);
}

TEST(NodeInternalTest, ApplyChildMergeValidatesLayout) {
  Node n = MakeInternal(0, {{10, 1}, {20, 2}});
  EXPECT_FALSE(n.ApplyChildMerge(10, 9, 2));   // wrong left child
  EXPECT_FALSE(n.ApplyChildMerge(10, 1, 9));   // wrong right child
  EXPECT_FALSE(n.ApplyChildMerge(11, 1, 2));   // wrong separator
  EXPECT_FALSE(n.ApplyChildMerge(20, 2, 1));   // no successor entry
  EXPECT_EQ(n.count, 2u);
}

TEST(NodeInternalTest, ApplyChildSeparatorChange) {
  Node n = MakeInternal(0, {{10, 1}, {20, 2}});
  ASSERT_TRUE(n.ApplyChildSeparatorChange(10, 14, 1));
  EXPECT_EQ(n.entry(0).key, 14u);
  EXPECT_FALSE(n.ApplyChildSeparatorChange(14, 25, 1));  // would reorder
  EXPECT_FALSE(n.ApplyChildSeparatorChange(99, 5, 1));   // absent
  EXPECT_FALSE(n.ApplyChildSeparatorChange(20, 15, 9));  // wrong child
}

TEST(NodeSplitTest, LeafSplitBalancesAndChains) {
  Node a = MakeLeaf(0, kPlusInfinity, kInvalidPageId);
  for (Key k = 1; k <= 9; ++k) a.InsertLeafEntry(k * 10, k);
  Node b;
  a.SplitInto(&b, /*right_page=*/55);
  EXPECT_EQ(a.count, 5u);             // left keeps the ceiling half
  EXPECT_EQ(b.count, 4u);
  EXPECT_EQ(a.high, 50u);             // largest remaining key
  EXPECT_EQ(a.link, 55u);             // A links to B
  EXPECT_EQ(b.low, 50u);              // B.low == A.high
  EXPECT_EQ(b.high, kPlusInfinity);   // B inherits A's old high
  EXPECT_EQ(b.link, kInvalidPageId);  // and A's old link
  EXPECT_EQ(b.entry(0).key, 60u);
  EXPECT_EQ(b.level, a.level);
}

TEST(NodeSplitTest, InternalSplitKeepsHighInvariant) {
  Node a = MakeInternal(0, {{10, 1}, {20, 2}, {30, 3}, {kPlusInfinity, 4}});
  Node b;
  a.SplitInto(&b, 77);
  EXPECT_EQ(a.high, a.entry(a.count - 1).key);
  EXPECT_EQ(b.high, b.entry(b.count - 1).key);
  EXPECT_EQ(b.high, kPlusInfinity);
  EXPECT_EQ(a.count + b.count, 4u);
}

TEST(NodeMergeTest, MergeFromRightAppends) {
  Node a = MakeLeaf(0, 30, 2);
  a.InsertLeafEntry(10, 1);
  Node b = MakeLeaf(30, kPlusInfinity, kInvalidPageId);
  b.InsertLeafEntry(40, 4);
  b.InsertLeafEntry(50, 5);
  a.MergeFromRight(b);
  EXPECT_EQ(a.count, 3u);
  EXPECT_EQ(a.high, kPlusInfinity);
  EXPECT_EQ(a.link, kInvalidPageId);
  EXPECT_EQ(a.low, 0u);  // unchanged
  EXPECT_EQ(a.entry(2).key, 50u);
}

TEST(NodeRedistributeTest, RightToLeft) {
  Node a = MakeLeaf(0, 15, 2);
  a.InsertLeafEntry(10, 1);
  Node b = MakeLeaf(15, kPlusInfinity, kInvalidPageId);
  for (Key k : {20, 30, 40, 50, 60}) b.InsertLeafEntry(k, k);
  const Key sep = a.RedistributeWithRight(&b, 3);
  EXPECT_GE(a.count, 3u);
  EXPECT_GE(b.count, 3u);
  EXPECT_EQ(a.count + b.count, 6u);
  EXPECT_EQ(sep, a.entry(a.count - 1).key);
  EXPECT_EQ(a.high, sep);
  EXPECT_EQ(b.low, sep);
  EXPECT_LT(a.entry(a.count - 1).key, b.entry(0).key);
}

TEST(NodeRedistributeTest, LeftToRight) {
  Node a = MakeLeaf(0, 65, 2);
  for (Key k : {10, 20, 30, 40, 50, 60}) a.InsertLeafEntry(k, k);
  Node b = MakeLeaf(65, kPlusInfinity, kInvalidPageId);
  b.InsertLeafEntry(70, 7);
  const Key sep = a.RedistributeWithRight(&b, 3);
  EXPECT_GE(a.count, 3u);
  EXPECT_GE(b.count, 3u);
  EXPECT_EQ(sep, a.high);
  EXPECT_EQ(b.low, sep);
  // b's old entries stay at the tail, in order.
  EXPECT_EQ(b.entry(b.count - 1).key, 70u);
  Key prev = 0;
  for (uint32_t i = 0; i < b.count; ++i) {
    EXPECT_GT(b.entry(i).key, prev);
    prev = b.entry(i).key;
  }
}

TEST(NodeRedistributeTest, InternalEntriesCarryChildren) {
  Node a = MakeInternal(0, {{10, 1}});
  Node b = MakeInternal(10, {{20, 2}, {30, 3}, {40, 4}, {50, 5}});
  const Key sep = a.RedistributeWithRight(&b, 2);
  EXPECT_GE(a.count, 2u);
  EXPECT_GE(b.count, 2u);
  EXPECT_EQ(a.high, sep);
  EXPECT_EQ(a.entry(a.count - 1).key, sep);
  // Every (key, child) pair survived intact somewhere.
  std::map<Key, uint64_t> all;
  for (uint32_t i = 0; i < a.count; ++i) {
    all[a.entry(i).key] = a.entry(i).value;
  }
  for (uint32_t i = 0; i < b.count; ++i) {
    all[b.entry(i).key] = b.entry(i).value;
  }
  EXPECT_EQ(all.size(), 5u);
  EXPECT_EQ(all[10], 1u);
  EXPECT_EQ(all[50], 5u);
}

// A leaf holding keys 10, 20, ..., n*10 (value = key + 1), written with
// the in-place primitives a live page sees.
Node MakeInPlaceLeaf(uint32_t n) {
  Node node = MakeLeaf(0, kPlusInfinity, kInvalidPageId);
  for (uint32_t i = 1; i <= n; ++i) {
    node.AppendLeafEntryInPlace(i * 10, i * 10 + 1);
  }
  return node;
}

std::vector<Key> Keys(const Node& n) {
  std::vector<Key> keys;
  for (uint32_t i = 0; i < n.count; ++i) keys.push_back(n.entry(i).key);
  return keys;
}

std::vector<Key> Range(Key from, Key to, Key step = 10) {
  std::vector<Key> keys;
  for (Key k = from; k <= to; k += step) keys.push_back(k);
  return keys;
}

TEST(NodeHeadOffsetTest, HeadRemovalsStoreOnlyTheHeaderDownToEmpty) {
  Node n = MakeInPlaceLeaf(8);
  for (uint32_t removed = 1; removed <= 8; ++removed) {
    const size_t bytes = n.RemoveLeafEntryAtInPlace(0);
    EXPECT_EQ(n.count, 8u - removed);
    if (n.count > 0) {
      // O(1): the head offset and the count, no entry moved.
      EXPECT_EQ(bytes, sizeof(n.first) + sizeof(n.count));
      EXPECT_EQ(n.first, removed);
      EXPECT_EQ(Keys(n), Range(10 * (removed + 1), 80));
    }
    EXPECT_TRUE(n.live_range_ok());
  }
  EXPECT_EQ(n.LowerBound(5), 0u);
  EXPECT_FALSE(n.FindLeafValue(80).has_value());
}

TEST(NodeHeadOffsetTest, RemovalShiftsTheSmallerSide) {
  Node n = MakeInPlaceLeaf(10);
  // Index 1 of 10: one entry before it, eight after: the head side moves.
  EXPECT_EQ(n.RemoveLeafEntryAtInPlace(1), sizeof(Entry) + 4u);
  EXPECT_EQ(n.first, 1u);
  // Index 7 of 9: one entry after it: the tail side moves, first stays.
  EXPECT_EQ(n.RemoveLeafEntryAtInPlace(7), sizeof(Entry) + sizeof(n.count));
  EXPECT_EQ(n.first, 1u);
  EXPECT_EQ(Keys(n), (std::vector<Key>{10, 30, 40, 50, 60, 70, 80, 100}));
  EXPECT_EQ(n.FindLeafValue(100), 101u);
}

TEST(NodeHeadOffsetTest, InsertAndAppendAfterHeadRemovals) {
  Node n = MakeInPlaceLeaf(10);
  for (int i = 0; i < 4; ++i) n.RemoveLeafEntryAtInPlace(0);  // 50..100
  ASSERT_EQ(n.first, 4u);
  // Near the head, with free slots below it: the head side moves down.
  n.InsertLeafEntryInPlace(55, 56);
  EXPECT_EQ(n.first, 3u);
  // Near the tail: the tail side moves up.
  n.InsertLeafEntryInPlace(95, 96);
  EXPECT_EQ(n.first, 3u);
  n.AppendLeafEntryInPlace(110, 111);
  EXPECT_EQ(Keys(n),
            (std::vector<Key>{50, 55, 60, 70, 80, 90, 95, 100, 110}));
  EXPECT_EQ(n.FindLeafValue(55), 56u);
  EXPECT_EQ(n.FindLeafValue(95), 96u);
  EXPECT_EQ(n.FindLeafValue(110), 111u);
}

TEST(NodeHeadOffsetTest, AppendCompactsAtTheArrayEnd) {
  // A sliding window: remove the head, append past the tail. The range
  // walks to the end of the slot array, then one append compacts it.
  Node n = MakeInPlaceLeaf(100);
  Key next = 1010;
  bool compacted = false;
  for (int step = 0; step < 300; ++step) {
    n.RemoveLeafEntryAtInPlace(0);
    const uint32_t before = n.first;
    n.AppendLeafEntryInPlace(next, next + 1);
    next += 10;
    if (n.first < before) {
      compacted = true;
      EXPECT_EQ(before + n.count - 1, Node::kMaxEntries);
      EXPECT_EQ(n.first, 0u);
    }
    ASSERT_TRUE(n.live_range_ok());
    ASSERT_EQ(n.count, 100u);
    ASSERT_EQ(n.entry(99).key, next - 10);
  }
  EXPECT_TRUE(compacted);
  EXPECT_EQ(Keys(n), Range(next - 1000, next - 10));
}

TEST(NodeHeadOffsetTest, InsertCompactsAtTheArrayEnd) {
  // Keys 10..2000: the live range reaches the last slot with first > 0.
  Node n = MakeInPlaceLeaf(200);
  for (int i = 0; i < 54; ++i) n.RemoveLeafEntryAtInPlace(0);
  for (Key k = 2010; k <= 2540; k += 10) n.AppendLeafEntryInPlace(k, k + 1);
  ASSERT_EQ(n.first + n.count, Node::kMaxEntries);
  ASSERT_EQ(n.first, 54u);
  n.InsertLeafEntryInPlace(1505, 1506);  // in the upper half
  EXPECT_EQ(n.first, 0u);
  EXPECT_EQ(n.count, 201u);
  std::vector<Key> want = Range(550, 1500);
  want.push_back(1505);
  for (Key k : Range(1510, 2540)) want.push_back(k);
  EXPECT_EQ(Keys(n), want);
  // Internal nodes share the same slot opening.
  Node p = MakeInternal(0, {{10, 1}, {20, 2}, {30, 3}, {40, 4}});
  p.first = static_cast<uint16_t>(Node::kMaxEntries - 4);
  for (uint32_t i = 0; i < 4; ++i) {
    p.slots[p.first + i] = Entry{(i + 1) * 10u, i + 1};
  }
  ASSERT_GT(p.InsertChildSplitInPlace(35, 9), 0u);
  EXPECT_EQ(p.first, 0u);
  EXPECT_EQ(Keys(p), (std::vector<Key>{10, 20, 30, 35, 40}));
  EXPECT_EQ(p.entry(3).value, 4u);  // left part keeps the old child
  EXPECT_EQ(p.entry(4).value, 9u);  // right part is the new node
}

TEST(NodeHeadOffsetTest, CopyPathRestructuresWriteCompactImages) {
  // Split: the left half comes out compacted too.
  Node a = MakeInPlaceLeaf(12);
  for (int i = 0; i < 3; ++i) a.RemoveLeafEntryAtInPlace(0);  // 40..120
  Node b;
  a.SplitInto(&b, 55);
  EXPECT_EQ(a.first, 0u);
  EXPECT_EQ(b.first, 0u);
  EXPECT_EQ(Keys(a), Range(40, 80));
  EXPECT_EQ(Keys(b), Range(90, 120));
  EXPECT_EQ(a.high, 80u);
  EXPECT_EQ(b.low, 80u);

  // Merge: both sides offset.
  Node l = MakeLeaf(0, 50, 2);
  for (Key k : {10, 20, 30, 40, 50}) l.AppendLeafEntryInPlace(k, k + 1);
  l.RemoveLeafEntryAtInPlace(0);
  Node r = MakeLeaf(50, kPlusInfinity, kInvalidPageId);
  for (Key k : {60, 70, 80, 90}) r.AppendLeafEntryInPlace(k, k + 1);
  r.RemoveLeafEntryAtInPlace(0);
  ASSERT_GT(l.first, 0u);
  ASSERT_GT(r.first, 0u);
  l.MergeFromRight(r);
  EXPECT_EQ(l.first, 0u);
  EXPECT_EQ(Keys(l), (std::vector<Key>{20, 30, 40, 50, 70, 80, 90}));
  EXPECT_EQ(l.high, kPlusInfinity);

  // Redistribute in both directions.
  for (bool right_to_left : {true, false}) {
    Node x = MakeLeaf(0, 0, 2);
    Node y = MakeLeaf(0, kPlusInfinity, kInvalidPageId);
    const int nx = right_to_left ? 3 : 9;
    for (int i = 1; i <= nx + 1; ++i) x.AppendLeafEntryInPlace(i * 10, i);
    x.RemoveLeafEntryAtInPlace(0);  // x: 20 .. (nx+1)*10
    x.high = x.entry(x.count - 1).key;
    y.low = x.high;
    const int ny = right_to_left ? 9 : 3;
    for (int i = 1; i <= ny + 1; ++i) y.AppendLeafEntryInPlace(1000 + i, i);
    y.RemoveLeafEntryAtInPlace(0);
    ASSERT_GT(x.first, 0u);
    ASSERT_GT(y.first, 0u);
    const Key sep = x.RedistributeWithRight(&y, 3);
    EXPECT_EQ(x.first, 0u);
    EXPECT_EQ(y.first, 0u);
    EXPECT_EQ(x.count + y.count, 12u);
    EXPECT_EQ(x.count, 6u);
    EXPECT_EQ(sep, x.entry(x.count - 1).key);
    std::vector<Key> all = Keys(x);
    for (Key k : Keys(y)) all.push_back(k);
    std::vector<Key> want = Range(20, (nx + 1) * 10);
    for (Key k = 1002; k <= static_cast<Key>(1001 + ny); ++k) want.push_back(k);
    EXPECT_EQ(all, want);
  }
}

TEST(NodeHeadOffsetTest, TornViewStaysInsideTheSlotArray) {
  Node n = MakeInPlaceLeaf(Node::kMaxEntries);  // every slot written
  // A torn header: the live range claims slots past the array.
  n.first = 250;
  n.count = 100;
  EXPECT_FALSE(n.live_range_ok());
  {
    const NodeView view(&n);
    EXPECT_EQ(view.count(), Node::kMaxEntries - 250u);
    for (uint32_t i = 0; i < view.count(); ++i) (void)view.entry_value(i);
    EXPECT_LE(view.LowerBound(kMaxUserKey), view.count());
    (void)view.FindLeafValue(5);
  }
  // A head offset past the array leaves nothing live.
  n.first = 60000;
  {
    const NodeView view(&n);
    EXPECT_EQ(view.count(), 0u);
    EXPECT_EQ(view.LowerBound(5), 0u);
    EXPECT_FALSE(view.FindLeafValue(10).has_value());
  }
  // The view keeps the head offset it read: a later torn count is still
  // clamped against it.
  n.first = 200;
  n.count = 10;
  const NodeView view(&n);
  n.count = 200;
  EXPECT_EQ(view.count(), Node::kMaxEntries - 200u);
  EXPECT_EQ(view.LowerBound(kMaxUserKey), view.count());
}

TEST(NodeDebugTest, DebugStringMentionsState) {
  Node n = MakeLeaf(0, kPlusInfinity, kInvalidPageId);
  n.set_root(true);
  const std::string s = n.DebugString();
  EXPECT_NE(s.find("root"), std::string::npos);
  EXPECT_NE(s.find("leaf"), std::string::npos);
}

}  // namespace
}  // namespace obtree
