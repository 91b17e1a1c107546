// Copyright 2026 The obtree Authors.

#include "obtree/core/bulk_loader.h"

#include <cmath>
#include <istream>
#include <ostream>

#include "obtree/node/node.h"
#include "obtree/storage/page_manager.h"
#include "obtree/storage/prime_block.h"
#include "obtree/util/fault_injector.h"

namespace obtree {

namespace {

constexpr char kMagic[4] = {'O', 'B', 'T', '1'};

struct Built {
  PageId page;
  Key high;
};

// Split `n` entries into chunks of ~`per`, each within [k, cap]. If the
// trailing remainder is shorter than k, the last two chunks are either
// merged (when their union fits one node) or split evenly (their union
// then exceeds 2k, so both halves are >= k).
std::vector<uint32_t> ChunkSizes(uint64_t n, uint32_t per, uint32_t k,
                                 uint32_t cap) {
  std::vector<uint32_t> sizes;
  uint64_t left = n;
  while (left > 0) {
    if (left <= per) {
      sizes.push_back(static_cast<uint32_t>(left));
      break;
    }
    sizes.push_back(per);
    left -= per;
  }
  if (sizes.size() >= 2 && sizes.back() < k) {
    const uint32_t total = sizes[sizes.size() - 2] + sizes.back();
    sizes.pop_back();
    if (total <= cap) {
      sizes.back() = total;
    } else {
      sizes.back() = total - total / 2;
      sizes.push_back(total / 2);
    }
  }
  return sizes;
}

// Materialize one level of nodes from its entry sequence. For leaves the
// entries are (key, value); for internal levels they are (child high,
// child page). Returns (page, high) per node, left to right.
std::vector<Built> BuildLevel(PageManager* pager, uint16_t level,
                              const std::vector<Entry>& entries,
                              uint32_t per, uint32_t k, uint32_t cap) {
  const std::vector<uint32_t> sizes =
      ChunkSizes(entries.size(), per, k, cap);
  std::vector<Built> built(sizes.size());
  for (size_t i = 0; i < sizes.size(); ++i) {
    built[i].page = *pager->Allocate();
  }
  size_t cursor = 0;
  Key low = kMinusInfinity;
  for (size_t i = 0; i < sizes.size(); ++i) {
    const bool last = i + 1 == sizes.size();
    Page page;
    page.Clear();
    Node* node = page.As<Node>();
    node->Init(level, low, /*high=*/0,
               last ? kInvalidPageId : built[i + 1].page);
    for (uint32_t j = 0; j < sizes[i]; ++j) {
      node->AppendEntry(entries[cursor + j]);
    }
    cursor += sizes[i];
    // Leaf high: last key, +inf on the rightmost. Internal high: the last
    // upper bound (which already carries +inf on the rightmost).
    node->high = (level == 0 && last) ? kPlusInfinity
                                      : node->entry(node->count - 1).key;
    pager->Put(built[i].page, page);
    built[i].high = node->high;
    low = node->high;
  }
  return built;
}

}  // namespace

Status BulkLoad(SagivTree* tree,
                const std::vector<std::pair<Key, Value>>& pairs,
                double fill) {
  // Bulk construction is control-plane work: run it on ground truth.
  FaultInjector::ScopedExemption exempt;
  if (tree->Size() != 0 || tree->Height() != 1) {
    return Status::InvalidArgument("bulk load requires an empty tree");
  }
  if (!(fill > 0.5) || fill > 1.0) {
    return Status::InvalidArgument("fill must be in (0.5, 1.0]");
  }
  Key prev = 0;
  for (const auto& [key, value] : pairs) {
    if (key < 1 || key > kMaxUserKey) {
      return Status::InvalidArgument("key out of range");
    }
    if (key <= prev) {
      return Status::InvalidArgument("pairs must be sorted and distinct");
    }
    prev = key;
  }
  if (pairs.empty()) return Status::OK();

  const uint32_t k = tree->options().min_entries;
  const uint32_t cap = tree->options().capacity();
  const uint32_t per = std::min(
      cap, std::max(k, static_cast<uint32_t>(std::llround(fill * cap))));
  PageManager* pager = tree->internal_pager();

  std::vector<Entry> entries;
  entries.reserve(pairs.size());
  for (const auto& [key, value] : pairs) {
    entries.push_back(Entry{key, value});
  }

  PrimeBlockData pb;
  uint16_t level = 0;
  std::vector<Built> built;
  PageId rightmost_leaf = kInvalidPageId;
  for (;;) {
    built = BuildLevel(pager, level, entries, per, k, cap);
    if (level == 0) rightmost_leaf = built.back().page;
    pb.leftmost[level] = built[0].page;
    if (built.size() == 1) break;
    entries.clear();
    entries.reserve(built.size());
    for (const Built& b : built) {
      entries.push_back(Entry{b.high, b.page});
    }
    ++level;
    if (level >= kMaxLevels) {
      return Status::Internal("bulk load exceeded the height limit");
    }
  }
  pb.num_levels = level + 1u;

  // Promote the top node to root and swap the prime block over; the
  // constructor's empty root leaf is retired.
  {
    Page page;
    pager->Get(built[0].page, &page);
    page.As<Node>()->set_root(true);
    pager->Put(built[0].page, page);
  }
  const PageId old_root = tree->internal_prime()->Read().root();
  {
    Page page;
    pager->Get(old_root, &page);
    Node* node = page.As<Node>();
    node->set_root(false);
    node->set_deleted(pb.leftmost[0]);
    pager->Put(old_root, page);
  }
  tree->internal_prime()->Write(pb);
  pager->Retire(old_root);
  tree->internal_AdjustSize(static_cast<int64_t>(pairs.size()));
  // Arm the append fast path for the loaded state: without this the
  // watermark would sit at -inf, flagging every post-load insert as
  // max-extending even below the loaded max.
  tree->internal_NoteBulkLoad(pairs.back().first, rightmost_leaf);
  return Status::OK();
}

Status DumpTree(const SagivTree& tree, std::ostream* out) {
  // A backup must capture ground truth, never an injected fault's view.
  FaultInjector::ScopedExemption exempt;
  out->write(kMagic, sizeof(kMagic));
  const uint32_t k = tree.options().min_entries;
  out->write(reinterpret_cast<const char*>(&k), sizeof(k));
  const uint64_t count = tree.Size();
  out->write(reinterpret_cast<const char*>(&count), sizeof(count));
  uint64_t written = 0;
  tree.Scan(1, kMaxUserKey, [&](Key key, Value value) {
    out->write(reinterpret_cast<const char*>(&key), sizeof(key));
    out->write(reinterpret_cast<const char*>(&value), sizeof(value));
    ++written;
    return out->good();
  });
  if (!out->good()) return Status::Internal("stream write failed");
  if (written != count) {
    return Status::Aborted("tree changed during dump; retry quiescent");
  }
  return Status::OK();
}

Result<std::unique_ptr<SagivTree>> LoadTree(std::istream* in, double fill) {
  char magic[4];
  in->read(magic, sizeof(magic));
  if (!in->good() || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("bad dump header");
  }
  uint32_t k = 0;
  uint64_t count = 0;
  in->read(reinterpret_cast<char*>(&k), sizeof(k));
  in->read(reinterpret_cast<char*>(&count), sizeof(count));
  if (!in->good()) return Status::InvalidArgument("truncated dump header");

  TreeOptions options;
  options.min_entries = k;
  if (!options.Validate().ok()) {
    return Status::InvalidArgument("dump carries invalid options");
  }
  std::vector<std::pair<Key, Value>> pairs;
  pairs.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    Key key;
    Value value;
    in->read(reinterpret_cast<char*>(&key), sizeof(key));
    in->read(reinterpret_cast<char*>(&value), sizeof(value));
    if (!in->good()) return Status::InvalidArgument("truncated dump body");
    pairs.emplace_back(key, value);
  }
  auto tree = std::make_unique<SagivTree>(options);
  Status s = BulkLoad(tree.get(), pairs, fill);
  if (!s.ok()) return s;
  return tree;
}

}  // namespace obtree
