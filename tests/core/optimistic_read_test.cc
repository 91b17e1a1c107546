// Copyright 2026 The obtree Authors.
//
// Tests of the optimistic in-place read path: Search/Scan descend without
// copying pages, validating seqlock versions instead. The invariant under
// test is the tentpole safety claim — a VALIDATED read never surfaces a
// torn value — hammered against concurrent inserts, deletes, splits, and
// the compressors' merge/retire/reuse cycle. Every insert stores
// value = key + 1, so any torn or misrouted read is detectable.

#include <atomic>
#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "obtree/api/concurrent_map.h"
#include "obtree/core/compression_queue.h"
#include "obtree/core/queue_compressor.h"
#include "obtree/core/sagiv_tree.h"
#include "obtree/storage/page_manager.h"
#include "obtree/util/random.h"

namespace obtree {
namespace {

TreeOptions SmallNodes(bool optimistic) {
  TreeOptions options;
  options.min_entries = 4;  // deep trees: more splits, merges, stale routes
  options.optimistic_reads = optimistic;
  return options;
}

TEST(OptimisticReadTest, OptimisticAndCopyModesAgree) {
  // Both trees feed a compression queue so the delete phase below can
  // shrink them back through merges.
  SagivTree optimistic(SmallNodes(true));
  SagivTree copy(SmallNodes(false));
  CompressionQueue optimistic_queue;
  CompressionQueue copy_queue;
  for (auto [tree, queue] : {std::pair(&optimistic, &optimistic_queue),
                             std::pair(&copy, &copy_queue)}) {
    tree->AttachCompressionQueue(queue);
  }
  // Point lookups, range scans and batched lookups must return exactly the
  // keys `present` admits, each with value key + 1, over either page-access
  // policy — and the two policies must agree with each other.
  auto expect_agree = [&](const char* phase, auto present) {
    SCOPED_TRACE(phase);
    std::vector<Key> probes;
    for (Key k = 1; k <= 6002; ++k) {
      auto vo = optimistic.Search(k);
      auto vc = copy.Search(k);
      ASSERT_EQ(vo.ok(), present(k)) << "optimistic " << k;
      ASSERT_EQ(vc.ok(), present(k)) << "copy " << k;
      if (vo.ok()) {
        EXPECT_EQ(*vo, k + 1);
        EXPECT_EQ(*vc, k + 1);
      } else {
        EXPECT_TRUE(vo.status().IsNotFound()) << k;
        EXPECT_TRUE(vc.status().IsNotFound()) << k;
      }
      if (k % 5 == 0) probes.push_back(k);
    }
    for (auto [lo, hi] : {std::pair<Key, Key>(1, 6002), {1, 1}, {100, 400},
                          {2999, 3301}, {5990, 9000}, {4000, 3000}}) {
      std::vector<std::pair<Key, Value>> expected, so, sc;
      for (Key k = lo; k <= hi; ++k) {
        if (present(k)) expected.emplace_back(k, k + 1);
      }
      optimistic.Scan(lo, hi, [&](Key k, Value v) {
        so.emplace_back(k, v);
        return true;
      });
      copy.Scan(lo, hi, [&](Key k, Value v) {
        sc.emplace_back(k, v);
        return true;
      });
      EXPECT_EQ(so, expected) << "optimistic [" << lo << ", " << hi << "]";
      EXPECT_EQ(sc, expected) << "copy [" << lo << ", " << hi << "]";
      EXPECT_EQ(so, sc) << "[" << lo << ", " << hi << "]";
    }
    std::vector<Result<Value>> mo(probes.size(), Status());
    std::vector<Result<Value>> mc(probes.size(), Status());
    optimistic.MultiSearch(probes.data(), probes.size(), mo.data());
    copy.MultiSearch(probes.data(), probes.size(), mc.data());
    for (size_t i = 0; i < probes.size(); ++i) {
      const Key k = probes[i];
      ASSERT_EQ(mo[i].ok(), present(k)) << "optimistic " << k;
      ASSERT_EQ(mc[i].ok(), present(k)) << "copy " << k;
      if (mo[i].ok()) {
        EXPECT_EQ(*mo[i], k + 1);
        EXPECT_EQ(*mc[i], k + 1);
      } else {
        EXPECT_TRUE(mo[i].status().IsNotFound()) << k;
        EXPECT_TRUE(mc[i].status().IsNotFound()) << k;
      }
    }
  };

  for (Key k = 1; k <= 2000; ++k) {
    ASSERT_TRUE(optimistic.Insert(k * 3, k * 3 + 1).ok());
    ASSERT_TRUE(copy.Insert(k * 3, k * 3 + 1).ok());
  }
  expect_agree("after inserts",
               [](Key k) { return k % 3 == 0 && k <= 6000; });

  // Delete most keys and drain the queues: the merges rewrite the link
  // chains and separators that both policies route through.
  for (Key k = 1; k <= 2000; ++k) {
    if (k % 7 == 0) continue;
    ASSERT_TRUE(optimistic.Delete(k * 3).ok());
    ASSERT_TRUE(copy.Delete(k * 3).ok());
  }
  QueueCompressor(&optimistic, &optimistic_queue).Drain();
  QueueCompressor(&copy, &copy_queue).Drain();
  EXPECT_GT(optimistic.stats()->Get(StatId::kMerges), 0u);
  EXPECT_GT(copy.stats()->Get(StatId::kMerges), 0u);
  expect_agree("after deletes and compression", [](Key k) {
    return k % 3 == 0 && k <= 6000 && (k / 3) % 7 == 0;
  });
}

TEST(OptimisticReadTest, OptimisticModeCountsValidations) {
  SagivTree tree(SmallNodes(true));
  for (Key k = 1; k <= 500; ++k) ASSERT_TRUE(tree.Insert(k, k + 1).ok());
  for (Key k = 1; k <= 500; ++k) ASSERT_TRUE(tree.Search(k).ok());
  EXPECT_GT(tree.stats()->Get(StatId::kOptimisticValidations), 0u);
}

TEST(OptimisticReadTest, CopyModeNeverValidates) {
  SagivTree tree(SmallNodes(false));
  for (Key k = 1; k <= 500; ++k) ASSERT_TRUE(tree.Insert(k, k + 1).ok());
  for (Key k = 1; k <= 500; ++k) ASSERT_TRUE(tree.Search(k).ok());
  size_t n = 0;
  tree.Scan(1, 500, [&n](Key, Value) {
    ++n;
    return true;
  });
  EXPECT_EQ(n, 500u);
  EXPECT_EQ(tree.stats()->Get(StatId::kOptimisticValidations), 0u);
  EXPECT_EQ(tree.stats()->Get(StatId::kOptimisticRetries), 0u);
  EXPECT_EQ(tree.stats()->Get(StatId::kOptimisticFallbacks), 0u);
}

TEST(OptimisticReadTest, RejectsNonPositiveRetryLimit) {
  TreeOptions options;
  options.optimistic_retry_limit = 0;
  EXPECT_FALSE(options.Validate().ok());
  SagivTree tree(options);  // falls back to defaults
  EXPECT_FALSE(tree.init_status().ok());
  EXPECT_TRUE(tree.Insert(1, 2).ok());
  EXPECT_TRUE(tree.Search(1).ok());
}

// The tentpole safety property: searches running against concurrent
// inserts, deletes, splits, merges and page reuse never return a torn
// value — every hit is exactly key + 1, every miss a clean NotFound.
TEST(OptimisticReadTest, ConcurrentSearchNeverReturnsTornValue) {
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
  // Two mutators churn odd keys (insert/delete cycles) so leaves split,
  // underfill, merge, and get retired/reused while readers descend.
  std::vector<std::thread> mutators;
  for (int t = 0; t < 2; ++t) {
    mutators.emplace_back([&map, t, &stop]() {
      Random rng(17 + t);
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
      Random rng(101 + t);
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
  for (auto& r : readers) r.join();
  stop.store(true);
  for (auto& m : mutators) m.join();
  EXPECT_FALSE(bad_value.load());
  // Even (untouched) keys must all still be present.
  for (Key k = 2; k <= kSpace; k += 2) {
    Result<Value> v = map.Get(k);
    ASSERT_TRUE(v.ok()) << "key " << k;
    ASSERT_EQ(*v, k + 1);
  }
  EXPECT_GT(map.Stats().Get(StatId::kOptimisticValidations), 0u);
}

// Scans under churn: pairs arrive strictly ascending, inside the range,
// and with untorn values.
TEST(OptimisticReadTest, ConcurrentScanStaysSortedAndUntorn) {
  MapOptions options;
  options.tree = SmallNodes(true);
  options.compression = CompressionMode::kQueueWorkers;
  options.compression_threads = 1;
  ConcurrentMap map(options);
  constexpr Key kSpace = 10'000;
  for (Key k = 2; k <= kSpace; k += 2) {
    ASSERT_TRUE(map.Insert(k, k + 1).ok());
  }

  std::atomic<bool> stop{false};
  std::thread mutator([&map, &stop]() {
    Random rng(23);
    while (!stop.load(std::memory_order_relaxed)) {
      const Key k = (rng.Uniform(kSpace / 2) * 2 + 1);
      if (rng.Uniform(2) == 0) {
        (void)map.Insert(k, k + 1);
      } else {
        (void)map.Erase(k);
      }
    }
  });

  Random rng(7);
  bool ok = true;
  for (int i = 0; i < 300 && ok; ++i) {
    const Key lo = rng.Uniform(kSpace) + 1;
    const Key hi = std::min<Key>(lo + 500, kSpace);
    Key last = 0;
    map.Scan(lo, hi, [&](Key k, Value v) {
      if (k < lo || k > hi || k <= last || v != k + 1) ok = false;
      last = k;
      return ok;
    });
  }
  stop.store(true);
  mutator.join();
  EXPECT_TRUE(ok);
}

// A retry budget of 1 under heavy single-node churn exercises the
// copy-read fallback; results must be identical either way.
TEST(OptimisticReadTest, FallbackPathServesCorrectResults) {
  TreeOptions options = SmallNodes(true);
  options.optimistic_retry_limit = 1;
  SagivTree tree(options);
  constexpr Key kSpace = 4'000;
  for (Key k = 2; k <= kSpace; k += 2) {
    ASSERT_TRUE(tree.Insert(k, k + 1).ok());
  }
  std::atomic<bool> stop{false};
  std::thread mutator([&tree, &stop]() {
    Random rng(5);
    while (!stop.load(std::memory_order_relaxed)) {
      const Key k = (rng.Uniform(kSpace / 2) * 2 + 1);
      if (rng.Uniform(2) == 0) {
        (void)tree.Insert(k, k + 1);
      } else {
        (void)tree.Delete(k);
      }
    }
  });
  Random rng(3);
  bool ok = true;
  for (int i = 0; i < 20'000 && ok; ++i) {
    const Key k = rng.Uniform(kSpace) + 1;
    Result<Value> v = tree.Search(k);
    if (v.ok()) {
      ok = (*v == k + 1);
    } else {
      ok = v.status().IsNotFound();
    }
  }
  stop.store(true);
  mutator.join();
  EXPECT_TRUE(ok);
}

// A reader that reaches a leaf while an in-place write bracket is open
// waits the bracket out instead of burning its retry budget on an odd
// version: once the writer releases, it gets a stable guard that
// validates, and a search completes with no retry and no copy fallback.
//
// The wait is bounded (a few hundred pauses), so an attempt says
// something only when the bracket closed soon after the reader started:
// attempts where a thread was descheduled in between are not counted.
TEST(OptimisticReadTest, ReaderWaitsOutAShortWriteBracket) {
  SagivTree tree(SmallNodes(true));
  for (Key k = 1; k <= 200; ++k) ASSERT_TRUE(tree.Insert(k, k + 1).ok());
  constexpr Key kKey = 100;
  const Result<PageId> leaf = tree.internal_FindNodeAtLevel(kKey, 0, nullptr);
  ASSERT_TRUE(leaf.ok());
  PageManager* pager = tree.internal_pager();
  using Clock = std::chrono::steady_clock;

  int conclusive = 0;
  for (int attempt = 0; attempt < 200 && conclusive < 20; ++attempt) {
    const bool through_tree = attempt % 2 == 1;
    const uint64_t retries = tree.stats()->Get(StatId::kOptimisticRetries);
    const uint64_t fallbacks =
        tree.stats()->Get(StatId::kOptimisticFallbacks);
    std::atomic<bool> reading{false};
    Clock::time_point started;
    bool stable = false;
    Result<Value> value = Status::Internal("reader did not run");
    pager->Lock(*leaf);
    PageManager::WriteGuard wg = pager->BeginWrite(*leaf);  // version odd
    std::thread reader([&] {
      started = Clock::now();
      reading.store(true);
      if (through_tree) {
        value = tree.Search(kKey);
      } else {
        const PageManager::ReadGuard g = pager->OptimisticRead(*leaf);
        stable = g.stable() && g.Validate();
      }
    });
    while (!reading.load()) PaperLock::CpuRelax();
    for (int i = 0; i < 4; ++i) PaperLock::CpuRelax();  // let it arrive
    wg.Release();
    const Clock::duration held = Clock::now() - started;
    pager->Unlock(*leaf);
    reader.join();
    if (held > std::chrono::microseconds(1)) continue;
    ++conclusive;
    SCOPED_TRACE(through_tree ? "Search" : "OptimisticRead");
    if (through_tree) {
      ASSERT_TRUE(value.ok()) << value.status().ToString();
      EXPECT_EQ(*value, kKey + 1);
      EXPECT_EQ(tree.stats()->Get(StatId::kOptimisticRetries), retries);
      EXPECT_EQ(tree.stats()->Get(StatId::kOptimisticFallbacks), fallbacks);
    } else {
      EXPECT_TRUE(stable);
    }
  }
  if (conclusive == 0) {
    GTEST_SKIP() << "no write bracket closed within 1 us of a reader's start";
  }
}

// Reentrancy: a visitor that scans the same tree from inside a scan (the
// thread-local harvest buffer must not be clobbered by the inner call).
TEST(OptimisticReadTest, ReentrantScanFromVisitor) {
  SagivTree tree(SmallNodes(true));
  for (Key k = 1; k <= 1000; ++k) ASSERT_TRUE(tree.Insert(k, k + 1).ok());
  size_t outer = 0;
  size_t inner_total = 0;
  tree.Scan(1, 500, [&](Key k, Value v) {
    EXPECT_EQ(v, k + 1);
    ++outer;
    size_t inner = 0;
    tree.Scan(600, 700, [&inner](Key, Value) {
      ++inner;
      return true;
    });
    inner_total += inner;
    return outer < 10;
  });
  EXPECT_EQ(outer, 10u);
  EXPECT_EQ(inner_total, 10u * 101u);
}

}  // namespace
}  // namespace obtree
