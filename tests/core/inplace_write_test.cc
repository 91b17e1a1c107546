// Copyright 2026 The obtree Authors.
//
// Tests of the in-place write path: Insert/Delete mutate the live page
// under the paper lock, bracketed by seqlock odd/even bumps
// (PageManager::BeginWrite), instead of copying the full page out and
// back. The invariant under test is the tentpole safety claim — no
// optimistic reader may ever VALIDATE a torn image produced by an
// in-place writer — hammered against concurrent inserts, deletes,
// splits, scans, and the compressors' merge/retire/reuse cycle. Every
// insert stores value = key + 1, so any torn or misrouted read is
// detectable.

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obtree/api/concurrent_map.h"
#include "obtree/core/compression_queue.h"
#include "obtree/core/sagiv_tree.h"
#include "obtree/core/tree_checker.h"
#include "obtree/node/node.h"
#include "obtree/storage/page_manager.h"
#include "obtree/util/random.h"

namespace obtree {
namespace {

TreeOptions SmallNodes(bool inplace) {
  TreeOptions options;
  options.min_entries = 4;  // deep trees: more splits, merges, stale routes
  options.inplace_writes = inplace;
  return options;
}

TEST(InplaceWriteTest, InplaceAndCopyModesAgree) {
  SagivTree inplace(SmallNodes(true));
  SagivTree copy(SmallNodes(false));
  for (Key k = 1; k <= 2000; ++k) {
    ASSERT_TRUE(inplace.Insert(k * 3, k * 3 + 1).ok());
    ASSERT_TRUE(copy.Insert(k * 3, k * 3 + 1).ok());
  }
  for (Key k = 1; k <= 2000; k += 2) {  // delete every other key
    ASSERT_TRUE(inplace.Delete(k * 3).ok());
    ASSERT_TRUE(copy.Delete(k * 3).ok());
  }
  EXPECT_EQ(inplace.Size(), copy.Size());
  for (Key k = 1; k <= 2000; ++k) {
    auto vi = inplace.Search(k * 3);
    auto vc = copy.Search(k * 3);
    ASSERT_EQ(vi.ok(), vc.ok()) << k;
    if (vi.ok()) {
      EXPECT_EQ(*vi, k * 3 + 1);
    }
    // Re-deleting / re-inserting behaves identically.
    EXPECT_EQ(inplace.Delete(k * 3).ok(), copy.Delete(k * 3).ok());
  }
  Status si = TreeChecker(&inplace).CheckStructure();
  EXPECT_TRUE(si.ok()) << si.ToString();
}

TEST(InplaceWriteTest, InplaceModeCountsStats) {
  SagivTree tree(SmallNodes(true));
  for (Key k = 1; k <= 500; ++k) ASSERT_TRUE(tree.Insert(k, k + 1).ok());
  for (Key k = 1; k <= 250; ++k) ASSERT_TRUE(tree.Delete(k).ok());
  const StatsSnapshot snap = tree.stats()->Snapshot();
  EXPECT_GT(snap.Get(StatId::kInplaceWrites), 0u);
  EXPECT_GT(snap.Get(StatId::kWriteBytesInplace), 0u);
  // Splits keep copy semantics, so some copied bytes still accrue...
  EXPECT_GT(snap.Get(StatId::kSplits), 0u);
  // ...but the no-split mutations dominate: far less copy traffic than
  // the 8 KB-per-mutation regime (750 mutations * 8 KB = 6 MB).
  EXPECT_LT(snap.Get(StatId::kWriteBytesCopied), 750u * 8192u / 2);
}

TEST(InplaceWriteTest, CopyModeNeverWritesInPlace) {
  SagivTree tree(SmallNodes(false));
  for (Key k = 1; k <= 500; ++k) ASSERT_TRUE(tree.Insert(k, k + 1).ok());
  for (Key k = 1; k <= 250; ++k) ASSERT_TRUE(tree.Delete(k).ok());
  EXPECT_EQ(tree.stats()->Get(StatId::kInplaceWrites), 0u);
  EXPECT_EQ(tree.stats()->Get(StatId::kWriteBytesInplace), 0u);
  EXPECT_GT(tree.stats()->Get(StatId::kWriteBytesCopied), 0u);
}

TEST(InplaceWriteTest, UnderfullLeafStillEnqueuedForCompression) {
  TreeOptions options = SmallNodes(true);
  SagivTree tree(options);
  CompressionQueue queue;
  tree.AttachCompressionQueue(&queue);
  for (Key k = 1; k <= 200; ++k) ASSERT_TRUE(tree.Insert(k, k + 1).ok());
  for (Key k = 1; k <= 180; ++k) ASSERT_TRUE(tree.Delete(k).ok());
  EXPECT_GT(tree.stats()->Get(StatId::kQueueEnqueues), 0u);
  EXPECT_GT(queue.Size(), 0u);
  tree.AttachCompressionQueue(nullptr);
}

// The tentpole safety property: optimistic readers racing IN-PLACE
// writers (plus the compressors' merge/retire/reuse churn) never
// validate a torn image — every hit is exactly key + 1, every miss a
// clean NotFound.
TEST(InplaceWriteTest, ConcurrentReadersNeverSeeTornInplaceWrites) {
  MapOptions options;
  options.tree = SmallNodes(true);
  options.compression = CompressionMode::kQueueWorkers;
  options.compression_threads = 1;
  ConcurrentMap map(options);
  constexpr Key kSpace = 20'000;
  for (Key k = 2; k <= kSpace; k += 2) {
    ASSERT_TRUE(map.Insert(k, k + 1).ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<bool> bad_value{false};
  // Three mutators churn odd keys so leaves shift in place constantly
  // AND split/underfill/merge/get-reused underneath the readers.
  std::vector<std::thread> mutators;
  for (int t = 0; t < 3; ++t) {
    mutators.emplace_back([&map, t, &stop]() {
      Random rng(29 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        const Key k = (rng.Uniform(kSpace / 2) * 2 + 1);  // odd keys
        if (rng.Uniform(2) == 0) {
          (void)map.Insert(k, k + 1);
        } else {
          (void)map.Erase(k);
        }
      }
    });
  }
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&map, t, &bad_value]() {
      Random rng(211 + t);
      for (int i = 0; i < 30'000; ++i) {
        const Key k = rng.Uniform(kSpace) + 1;
        Result<Value> v = map.Get(k);
        if (v.ok() && *v != k + 1) {
          bad_value.store(true);
          return;
        }
        if (!v.ok() && !v.status().IsNotFound()) {
          bad_value.store(true);
          return;
        }
      }
    });
  }
  // One scanner: pairs must arrive ascending, in range, untorn.
  std::thread scanner([&map, &bad_value, &stop, kSpace]() {
    Random rng(7);
    while (!stop.load(std::memory_order_relaxed)) {
      const Key lo = rng.Uniform(kSpace) + 1;
      const Key hi = std::min<Key>(lo + 400, kSpace);
      Key last = 0;
      map.Scan(lo, hi, [&](Key k, Value v) {
        if (k < lo || k > hi || k <= last || v != k + 1) {
          bad_value.store(true);
          return false;
        }
        last = k;
        return true;
      });
    }
  });
  for (auto& r : readers) r.join();
  stop.store(true);
  for (auto& m : mutators) m.join();
  scanner.join();
  EXPECT_FALSE(bad_value.load());
  // Even (untouched) keys must all still be present.
  for (Key k = 2; k <= kSpace; k += 2) {
    Result<Value> v = map.Get(k);
    ASSERT_TRUE(v.ok()) << "key " << k;
    ASSERT_EQ(*v, k + 1);
  }
  EXPECT_GT(map.Stats().Get(StatId::kInplaceWrites), 0u);
}

// Head removals move a leaf's head offset under optimistic readers. The
// writer slides a window of consecutive keys along one live leaf: remove
// the smallest key, append the next largest, and now and then remove the
// head and put it back in a second bracket (a head-side insert). The
// range crosses the end of the slot array and compacts every ~150 steps.
// A reader that validates must see one window: consecutive keys, each
// value key + 1, and a count the writer published.
TEST(InplaceWriteTest, HeadRemoverNeverShowsReadersATornWindow) {
  EpochManager epoch;
  StatsCollector stats;
  PageManager pm(&epoch, &stats);
  const PageId id = *pm.Allocate();
  constexpr uint32_t kWindow = 100;
  {
    Page w{};
    Node* n = w.As<Node>();
    n->Init(0, 0, kPlusInfinity, kInvalidPageId);
    for (Key k = 1; k <= kWindow; ++k) n->AppendEntry(Entry{k, k + 1});
    pm.Put(id, w);
  }
  std::atomic<bool> stop{false};
  std::atomic<bool> bad{false};
  std::atomic<uint64_t> validated{0};
  std::thread writer([&] {
    auto bracket = [&](auto edit) {
      pm.Lock(id);
      PageManager::WriteGuard wg = pm.BeginWrite(id);
      edit(wg.page()->As<Node>());
      wg.Release();
      pm.Unlock(id);
    };
    for (int step = 0; step < 20'000; ++step) {
      bracket([](Node* n) {
        const Key next = n->entry(n->count - 1u).key + 1;
        n->RemoveLeafEntryAtInPlace(0);
        n->AppendLeafEntryInPlace(next, next + 1);
      });
      if (step % 7 == 0) {
        Key head = 0;
        bracket([&head](Node* n) {
          head = n->entry(0).key;
          n->RemoveLeafEntryAtInPlace(0);
        });
        bracket([head](Node* n) { n->InsertLeafEntryInPlace(head, head + 1); });
      }
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const PageManager::ReadGuard g = pm.OptimisticRead(id);
        if (!g.stable()) continue;
        const NodeView view(g.page()->As<Node>());
        const uint32_t n = view.count();
        const Key k0 = n > 0 ? view.entry_key(0) : 0;
        bool window = n == kWindow || n == kWindow - 1;
        for (uint32_t i = 0; i < n; ++i) {
          window = window && view.entry_key(i) == k0 + i &&
                   view.entry_value(i) == k0 + i + 1;
        }
        const std::optional<Value> mid = view.FindLeafValue(k0 + n / 2);
        if (!g.Validate()) continue;
        validated.fetch_add(1, std::memory_order_relaxed);
        if (!window || mid != k0 + n / 2 + 1) bad.store(true);
      }
    });
  }
  writer.join();
  for (auto& r : readers) r.join();
  EXPECT_FALSE(bad.load());
  EXPECT_GT(validated.load(), 0u);
}

// The same at tree level: the oldest-key erases of a time-ordered window
// (head removals on the leftmost leaf) race appends at the right end,
// optimistic point reads and scans, and queue compression of the leaves
// the erases empty.
TEST(InplaceWriteTest, OldestKeyErasesRaceOptimisticReaders) {
  MapOptions options;
  options.tree = SmallNodes(true);
  options.tree.min_entries = 16;
  options.compression = CompressionMode::kQueueWorkers;
  options.compression_threads = 1;
  ConcurrentMap map(options);
  constexpr Key kPreload = 4'000;
  for (Key k = 1; k <= kPreload; ++k) ASSERT_TRUE(map.Insert(k, k + 1).ok());
  std::atomic<Key> oldest{1};
  std::atomic<Key> next{kPreload + 1};
  std::atomic<bool> stop{false};
  std::atomic<bool> bad{false};
  std::thread appender([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const Key k = next.load();
      if (!map.Insert(k, k + 1).ok()) bad.store(true);
      next.store(k + 1);
    }
  });
  std::thread eraser([&] {
    for (int i = 0; i < 30'000; ++i) {
      const Key k = oldest.load();
      if (k + 100 >= next.load()) continue;  // keep the window non-empty
      if (!map.Erase(k).ok()) bad.store(true);
      oldest.store(k + 1);
    }
    stop.store(true);
  });
  std::thread reader([&] {
    Random rng(17);
    while (!stop.load(std::memory_order_relaxed)) {
      const Key lo = oldest.load();
      const Key hi = next.load();
      const Key k = lo + rng.Uniform(hi - lo);
      const Result<Value> v = map.Get(k);
      if (v.ok() ? *v != k + 1 : !v.status().IsNotFound()) bad.store(true);
      Key last = 0;
      map.Scan(lo, lo + 200, [&](Key key, Value value) {
        if (key <= last || value != key + 1) bad.store(true);
        last = key;
        return true;
      });
    }
  });
  appender.join();
  eraser.join();
  reader.join();
  EXPECT_FALSE(bad.load());
  // Exactly the window survives.
  const Key lo = oldest.load();
  const Key hi = next.load();
  EXPECT_EQ(map.Size(), hi - lo);
  for (Key k = lo; k < hi; ++k) {
    const Result<Value> v = map.Get(k);
    ASSERT_TRUE(v.ok()) << k;
    ASSERT_EQ(*v, k + 1);
  }
}

// Writer-vs-writer: concurrent Inserts/Deletes on overlapping ranges with
// in-place mutations must serialize through the paper lock — the final
// tree is exactly the set both writers agreed on, structure valid.
TEST(InplaceWriteTest, ConcurrentWritersSerializeThroughPaperLock) {
  SagivTree tree(SmallNodes(true));
  constexpr Key kSpace = 8'000;
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&tree, t]() {
      // Each thread owns keys == t (mod 4): no logical conflicts, but
      // heavy physical conflicts on shared leaves.
      for (Key k = static_cast<Key>(t) + 1; k <= kSpace; k += 4) {
        ASSERT_TRUE(tree.Insert(k, k + 1).ok()) << k;
      }
      for (Key k = static_cast<Key>(t) + 1; k <= kSpace; k += 8) {
        ASSERT_TRUE(tree.Delete(k).ok()) << k;
      }
    });
  }
  for (auto& w : writers) w.join();
  uint64_t expected = 0;
  for (Key k = 1; k <= kSpace; ++k) {
    const bool deleted = ((k - 1) % 8) < 4;  // first of each pair of strides
    if (!deleted) {
      ++expected;
      auto v = tree.Search(k);
      ASSERT_TRUE(v.ok()) << k;
      EXPECT_EQ(*v, k + 1);
    } else {
      EXPECT_TRUE(tree.Search(k).status().IsNotFound()) << k;
    }
  }
  EXPECT_EQ(tree.Size(), expected);
  Status s = TreeChecker(&tree).CheckStructure();
  EXPECT_TRUE(s.ok()) << s.ToString();
}

}  // namespace
}  // namespace obtree
