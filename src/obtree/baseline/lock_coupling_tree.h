// Copyright 2026 The obtree Authors.
//
// Baseline: a top-down lock-coupling B+-tree in the style of
// Bayer-Schkolnick (Acta Informatica 1977) with preventive splitting.
// Every process — including readers — latches hand-over-hand from the
// root: acquire the child's latch before releasing the parent's. Writers
// split any full node on the way down (so inserts never ascend), taking
// write latches pairwise; readers take shared latches. This represents the
// family of solutions Sagiv's introduction contrasts with: "each process
// (even a reader) must lock every node before accessing it, and only after
// obtaining the lock on the next node it can release the lock on the
// previous node."

#ifndef OBTREE_BASELINE_LOCK_COUPLING_TREE_H_
#define OBTREE_BASELINE_LOCK_COUPLING_TREE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "obtree/core/options.h"
#include "obtree/node/node.h"
#include "obtree/storage/page_manager.h"
#include "obtree/storage/prime_block.h"
#include "obtree/util/common.h"
#include "obtree/util/epoch.h"
#include "obtree/util/stats.h"
#include "obtree/util/status.h"

namespace obtree {

/// Growable table of per-page reader/writer latches (the multi-mode locks
/// this class of algorithms requires; Sagiv's protocol needs only the
/// single-mode paper lock).
class RwLatchTable {
 public:
  RwLatchTable();
  ~RwLatchTable();
  OBTREE_DISALLOW_COPY_AND_ASSIGN(RwLatchTable);

  /// Latch for page `id`; allocates backing chunks on demand.
  std::shared_mutex* Latch(PageId id);

 private:
  static constexpr size_t kChunkBits = 10;
  static constexpr size_t kChunkSize = 1ull << kChunkBits;
  static constexpr size_t kMaxChunks = 1ull << 14;

  struct Chunk {
    std::shared_mutex latches[kChunkSize];
  };
  std::vector<std::atomic<Chunk*>> chunks_;
};

/// Top-down preventive-split B+-tree with reader/writer lock coupling.
class LockCouplingTree {
 public:
  explicit LockCouplingTree(const TreeOptions& options = TreeOptions());
  ~LockCouplingTree();
  OBTREE_DISALLOW_COPY_AND_ASSIGN(LockCouplingTree);

  const Status& init_status() const { return init_status_; }

  Status Insert(Key key, Value value);
  Result<Value> Search(Key key) const;
  Status Delete(Key key);
  size_t Scan(Key lo, Key hi,
              const std::function<bool(Key, Value)>& visitor) const;

  uint64_t Size() const { return size_.load(std::memory_order_relaxed); }
  uint32_t Height() const { return prime_.Read().num_levels; }

  const TreeOptions& options() const { return options_; }
  StatsCollector* stats() const { return stats_.get(); }
  PageManager* internal_pager() const { return pager_.get(); }

 private:
  // Write-latch the root (retrying across concurrent root splits) and
  // split it if full. Returns the latched root's page id with its image in
  // *page.
  PageId AcquireRootForWrite(Page* page);

  // Split the full child at entry idx of the write-latched parent.
  // Both images are updated and written; the new sibling's page id is
  // returned. No latches change hands.
  PageId SplitChild(Page* parent, PageId parent_page, Page* child,
                    PageId child_page);

  void CountLatch() const;

  TreeOptions options_;
  Status init_status_;
  std::unique_ptr<StatsCollector> stats_;
  std::unique_ptr<EpochManager> epoch_;
  std::unique_ptr<PageManager> pager_;
  std::unique_ptr<RwLatchTable> latches_;
  PrimeBlock prime_;
  std::atomic<uint64_t> size_;
};

}  // namespace obtree

#endif  // OBTREE_BASELINE_LOCK_COUPLING_TREE_H_
