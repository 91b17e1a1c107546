// Copyright 2026 The obtree Authors.

#include "obtree/node/node.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace obtree {

uint32_t Node::LowerBound(Key k) const {
  // Branchless binary search over the sorted live entries.
  const Entry* live = slots + first;
  uint32_t lo = 0;
  uint32_t hi = count;
  while (lo < hi) {
    const uint32_t mid = lo + (hi - lo) / 2;
    if (live[mid].key < k) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

std::optional<Value> Node::FindLeafValue(Key k) const {
  assert(is_leaf());
  const uint32_t i = LowerBound(k);
  if (i < count && entry(i).key == k) return entry(i).value;
  return std::nullopt;
}

PageId Node::ChildFor(Key k) const {
  assert(!is_leaf());
  assert(count > 0);
  const uint32_t i = LowerBound(k);
  assert(i < count);  // guaranteed by k <= high == entry(count-1).key
  return static_cast<PageId>(entry(i).value);
}

Node::NextStep Node::Next(Key k) const {
  if (k > high) return NextStep{true, link};
  if (is_leaf()) return NextStep{false, kInvalidPageId};
  return NextStep{false, ChildFor(k)};
}

void Node::Compact() {
  if (first == 0) return;
  std::memmove(slots, &slots[first], count * sizeof(Entry));
  first = 0;
}

Entry* Node::OpenSlot(uint32_t i) {
  assert(count < kMaxEntries);
  if (first + count == kMaxEntries) Compact();
  Entry* live = slots + first;
  std::memmove(&live[i + 1], &live[i], (count - i) * sizeof(Entry));
  return &live[i];
}

void Node::InsertLeafEntry(Key k, Value v) {
  assert(is_leaf());
  const uint32_t i = LowerBound(k);
  assert(i == count || entry(i).key != k);
  *OpenSlot(i) = Entry{k, v};
  count++;
}

bool Node::RemoveLeafEntry(Key k) {
  assert(is_leaf());
  const uint32_t i = LowerBound(k);
  if (i >= count || entry(i).key != k) return false;
  Entry* live = slots + first;
  std::memmove(&live[i], &live[i + 1], (count - i - 1) * sizeof(Entry));
  count--;
  return true;
}

namespace {

// Copy slot `from` over slot `to` of a live image (write holder only).
void MoveSlotInPlace(Entry* slots, uint32_t to, uint32_t from) {
  SeqLock::Store(&slots[to].key, slots[from].key);
  SeqLock::Store(&slots[to].value, slots[from].value);
}

}  // namespace

size_t Node::CompactInPlace() {
  const uint32_t f = first;
  const uint32_t n = count;
  // Front to back: every destination lies below its source.
  for (uint32_t j = 0; j < n; ++j) MoveSlotInPlace(slots, j, f + j);
  SeqLock::Store(&first, 0);
  return n * sizeof(Entry) + sizeof(first);
}

size_t Node::OpenSlotInPlace(uint32_t i, uint32_t* slot) {
  assert(count < kMaxEntries);
  size_t bytes = 0;
  if (first + count == kMaxEntries) bytes += CompactInPlace();
  const uint32_t f = first;
  const uint32_t n = count;
  assert(i <= n);
  if (f > 0 && i < n - i) {
    // Head side: entries [0, i) move down one slot, `first` with them.
    for (uint32_t j = 0; j < i; ++j) MoveSlotInPlace(slots, f - 1 + j, f + j);
    SeqLock::Store(&first, f - 1);
    *slot = f - 1 + i;
    return bytes + i * sizeof(Entry) + sizeof(first);
  }
  // Tail side: entries [i, n) move up one slot, back to front.
  for (uint32_t j = n; j > i; --j) MoveSlotInPlace(slots, f + j, f + j - 1);
  *slot = f + i;
  return bytes + (n - i) * sizeof(Entry);
}

size_t Node::InsertLeafEntryInPlace(Key k, Value v) {
  assert(is_leaf());
  const uint32_t n = count;
  const uint32_t i = LowerBound(k);
  assert(i == n || entry(i).key != k);
  uint32_t s;
  size_t bytes = OpenSlotInPlace(i, &s);
  SeqLock::Store(&slots[s].key, k);
  SeqLock::Store(&slots[s].value, v);
  SeqLock::Store(&count, n + 1);
  return bytes + sizeof(Entry) + sizeof(count);
}

size_t Node::AppendLeafEntryInPlace(Key k, Value v) {
  assert(is_leaf());
  assert(count < kMaxEntries);
  const uint32_t n = count;
  assert(n == 0 || entry(n - 1).key < k);
  size_t bytes = 0;
  if (first + n == kMaxEntries) bytes += CompactInPlace();
  const uint32_t s = first + n;
  SeqLock::Store(&slots[s].key, k);
  SeqLock::Store(&slots[s].value, v);
  SeqLock::Store(&count, n + 1);
  return bytes + sizeof(Entry) + sizeof(count);
}

size_t Node::RemoveLeafEntryAtInPlace(uint32_t i) {
  assert(is_leaf());
  const uint32_t f = first;
  const uint32_t n = count;
  assert(i < n);
  size_t bytes;
  if (i < n - 1 - i) {
    // Head side: entries [0, i) move up one slot, back to front, and
    // `first` follows them. For i == 0 nothing moves.
    for (uint32_t j = i; j > 0; --j) {
      MoveSlotInPlace(slots, f + j, f + j - 1);
    }
    SeqLock::Store(&first, f + 1);
    bytes = i * sizeof(Entry) + sizeof(first);
  } else {
    // Tail side: entries (i, n) move down one slot, front to back.
    for (uint32_t j = i; j + 1 < n; ++j) {
      MoveSlotInPlace(slots, f + j, f + j + 1);
    }
    bytes = (n - i - 1) * sizeof(Entry);
  }
  SeqLock::Store(&count, n - 1);
  return bytes + sizeof(count);
}

size_t Node::SetLeafValueAtInPlace(uint32_t i, Value v) {
  assert(is_leaf());
  SeqLock::Store(&entry(i).value, v);
  return sizeof(uint64_t);
}

size_t Node::InsertChildSplitInPlace(Key sep, PageId new_child) {
  assert(!is_leaf());
  assert(count > 0);
  assert(sep > low && sep <= high);
  const uint32_t n = count;
  const uint32_t i = LowerBound(sep);
  assert(i < n);  // sep <= high == entry(count-1).key
  if (entry(i).key == sep) return 0;
  const uint64_t left_child = entry(i).value;
  // The hole opens at live index i; the old entry i ends one slot above.
  uint32_t s;
  size_t bytes = OpenSlotInPlace(i, &s);
  SeqLock::Store(&slots[s].key, sep);
  SeqLock::Store(&slots[s].value, left_child);
  SeqLock::Store(&slots[s + 1].value, new_child);
  SeqLock::Store(&count, n + 1);
  return bytes + sizeof(Entry) + sizeof(uint64_t) + sizeof(count);
}

bool Node::InsertChildSplit(Key sep, PageId new_child) {
  assert(!is_leaf());
  assert(count > 0);
  assert(sep > low && sep <= high);
  const uint32_t i = LowerBound(sep);
  assert(i < count);  // sep <= high == entry(count-1).key
  if (entry(i).key == sep) return false;
  const uint64_t left_child = entry(i).value;
  Entry* hole = OpenSlot(i);
  hole[0] = Entry{sep, left_child};
  hole[1].value = new_child;
  count++;
  return true;
}

int Node::FindChildIndex(PageId child) const {
  assert(!is_leaf());
  for (uint32_t i = 0; i < count; ++i) {
    if (static_cast<PageId>(entry(i).value) == child) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

bool Node::ApplyChildMerge(Key old_sep, PageId left_child,
                           PageId right_child) {
  assert(!is_leaf());
  const uint32_t i = LowerBound(old_sep);
  if (i + 1 >= count) return false;
  if (entry(i).key != old_sep ||
      static_cast<PageId>(entry(i).value) != left_child ||
      static_cast<PageId>(entry(i + 1).value) != right_child) {
    return false;
  }
  // Delete (old_sep -> left) and let the successor (right_high -> right)
  // become (right_high -> left): left now covers the union range.
  entry(i + 1).value = left_child;
  Entry* live = slots + first;
  std::memmove(&live[i], &live[i + 1], (count - i - 1) * sizeof(Entry));
  count--;
  return true;
}

bool Node::ApplyChildSeparatorChange(Key old_sep, Key new_sep, PageId child) {
  assert(!is_leaf());
  const uint32_t i = LowerBound(old_sep);
  if (i >= count || entry(i).key != old_sep ||
      static_cast<PageId>(entry(i).value) != child) {
    return false;
  }
  // Order must be preserved: new_sep stays between the neighbors.
  if (i > 0 && entry(i - 1).key >= new_sep) return false;
  if (i + 1 < count && entry(i + 1).key <= new_sep) return false;
  entry(i).key = new_sep;
  return true;
}

void Node::SplitInto(Node* right, PageId right_page, uint32_t keep) {
  assert(count >= 2);
  Compact();
  if (keep == 0) {
    // Keep the ceiling half on the left: splitting 2k+1 entries must leave
    // BOTH halves strictly below capacity, or ascending insertions at k=1
    // re-split the (full) right node on every insert and the tree grows one
    // level per insertion.
    keep = count - count / 2;
  }
  assert(keep >= 1 && keep < count);
  const uint32_t move = count - keep;

  right->Init(level, /*low=*/slots[keep - 1].key, /*high=*/high, link);
  std::memcpy(right->slots, &slots[keep], move * sizeof(Entry));
  right->count = move;

  count = keep;
  high = slots[keep - 1].key;
  link = right_page;
}

void Node::MergeFromRight(const Node& right) {
  assert(level == right.level);
  assert(count + right.count <= kMaxEntries);
  Compact();
  std::memcpy(&slots[count], right.live_begin(), right.count * sizeof(Entry));
  count += right.count;
  high = right.high;
  link = right.link;
}

Key Node::RedistributeWithRight(Node* right, uint32_t min_entries) {
  assert(level == right->level);
  const uint32_t total = count + right->count;
  assert(total >= 2 * min_entries);
  (void)min_entries;
  Compact();
  right->Compact();
  // Split the combined run as evenly as possible.
  const uint32_t new_left = total / 2;
  if (new_left > count) {
    // Shift the head of right into this node.
    const uint32_t move = new_left - count;
    std::memcpy(&slots[count], right->slots, move * sizeof(Entry));
    std::memmove(right->slots, &right->slots[move],
                 (right->count - move) * sizeof(Entry));
    count = new_left;
    right->count -= move;
  } else if (new_left < count) {
    // Shift the tail of this node into right.
    const uint32_t move = count - new_left;
    std::memmove(&right->slots[move], right->slots,
                 right->count * sizeof(Entry));
    std::memcpy(right->slots, &slots[new_left], move * sizeof(Entry));
    right->count += move;
    count = new_left;
  }
  const Key sep = slots[count - 1].key;
  high = sep;
  right->low = sep;
  return sep;
}

uint32_t NodeView::LowerBound(Key k) const {
  uint32_t lo = 0;
  uint32_t hi = count();  // clamped: the search stays inside the array
  while (lo < hi) {
    const uint32_t mid = lo + (hi - lo) / 2;
    if (entry_key(mid) < k) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

std::optional<Value> NodeView::FindLeafValue(Key k) const {
  const uint32_t i = LowerBound(k);
  if (i < count() && entry_key(i) == k) return entry_value(i);
  return std::nullopt;
}

PageId NodeView::ChildFor(Key k) const {
  const uint32_t i = LowerBound(k);
  // On a consistent internal image k <= high == entry(count-1).key
  // guarantees i < count; a torn image may violate that, so report the
  // inconsistency instead of reading past the live entries.
  if (i >= count()) return kInvalidPageId;
  return static_cast<PageId>(entry_value(i));
}

std::string Node::DebugString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "[L%u n=%u first=%u low=%llu high=%llu link=%u%s%s%s]", level,
                count, first,
                static_cast<unsigned long long>(low),
                static_cast<unsigned long long>(high), link,
                is_root() ? " root" : "", is_deleted() ? " deleted" : "",
                is_leaf() ? " leaf" : "");
  return buf;
}

}  // namespace obtree
