// Copyright 2026 The obtree Authors.
//
// Multi-threaded integration tests: Theorem 1 (searches, insertions,
// deletions are correct and deadlock free) and Theorem 2 (adding any
// number of compression processes stays correct). Each test hammers the
// tree from several threads and then validates structure and data at
// quiescence; several also validate *during* execution (acked inserts must
// be visible to readers).

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obtree/core/compression_queue.h"
#include "obtree/core/queue_compressor.h"
#include "obtree/core/sagiv_tree.h"
#include "obtree/core/scan_compressor.h"
#include "obtree/core/tree_checker.h"
#include "obtree/util/random.h"

namespace obtree {
namespace {

TreeOptions SmallNodes(uint32_t k = 2) {
  TreeOptions opt;
  opt.min_entries = k;
  return opt;
}

int HardwareThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 4 : static_cast<int>(n);
}

TEST(ConcurrentInsertTest, DisjointRangesAllLand) {
  SagivTree tree(SmallNodes(4));
  const int threads = std::min(8, HardwareThreads());
  constexpr Key kPerThread = 5000;
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&tree, t]() {
      const Key base = static_cast<Key>(t) * kPerThread + 1;
      for (Key k = base; k < base + kPerThread; ++k) {
        ASSERT_TRUE(tree.Insert(k, k * 2).ok()) << k;
      }
    });
  }
  for (auto& w : workers) w.join();

  EXPECT_EQ(tree.Size(), static_cast<uint64_t>(threads) * kPerThread);
  Status s = TreeChecker(&tree).CheckStructure();
  EXPECT_TRUE(s.ok()) << s.ToString();
  for (Key k = 1; k <= threads * kPerThread; ++k) {
    ASSERT_TRUE(tree.Search(k).ok()) << k;
  }
  // The headline claim under real concurrency: one lock at a time.
  EXPECT_EQ(tree.stats()->max_locks_held(), 1u);
}

TEST(ConcurrentInsertTest, OverlappingKeysExactlyOneWins) {
  SagivTree tree(SmallNodes(4));
  const int threads = std::min(8, HardwareThreads());
  constexpr Key kKeys = 20000;
  std::atomic<uint64_t> wins{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t]() {
      Random rng(1000 + static_cast<uint64_t>(t));
      std::vector<Key> keys;
      keys.reserve(kKeys);
      for (Key k = 1; k <= kKeys; ++k) keys.push_back(k);
      rng.Shuffle(&keys);
      uint64_t local = 0;
      for (Key k : keys) {
        Status s = tree.Insert(k, static_cast<Value>(t));
        if (s.ok()) {
          ++local;
        } else {
          ASSERT_TRUE(s.IsAlreadyExists()) << s.ToString();
        }
      }
      wins.fetch_add(local);
    });
  }
  for (auto& w : workers) w.join();
  // Every key inserted exactly once across all threads.
  EXPECT_EQ(wins.load(), kKeys);
  EXPECT_EQ(tree.Size(), kKeys);
  Status s = TreeChecker(&tree).CheckStructure();
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(ConcurrentReadWriteTest, AckedInsertsAreImmediatelyVisible) {
  SagivTree tree(SmallNodes(4));
  constexpr Key kN = 30000;
  std::atomic<Key> high_water{0};
  std::atomic<bool> failed{false};

  std::thread writer([&]() {
    for (Key k = 1; k <= kN; ++k) {
      ASSERT_TRUE(tree.Insert(k, k + 1).ok());
      high_water.store(k, std::memory_order_release);
    }
  });
  const int readers = std::min(4, HardwareThreads() - 1);
  std::vector<std::thread> reader_threads;
  for (int t = 0; t < readers; ++t) {
    reader_threads.emplace_back([&, t]() {
      Random rng(static_cast<uint64_t>(t) + 55);
      while (high_water.load(std::memory_order_acquire) < kN) {
        const Key hw = high_water.load(std::memory_order_acquire);
        if (hw == 0) continue;
        const Key k = rng.UniformRange(1, hw);
        Result<Value> r = tree.Search(k);
        if (!r.ok() || *r != k + 1) {
          failed.store(true);
          return;
        }
      }
    });
  }
  writer.join();
  for (auto& r : reader_threads) r.join();
  EXPECT_FALSE(failed.load()) << "an acked insert was invisible";
}

TEST(ConcurrentMixedTest, InsertDeleteSearchStress) {
  SagivTree tree(SmallNodes(3));
  const int threads = std::min(8, HardwareThreads());
  constexpr int kOpsPerThread = 30000;
  constexpr Key kKeySpace = 4000;
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t]() {
      Random rng(777 + static_cast<uint64_t>(t));
      for (int i = 0; i < kOpsPerThread; ++i) {
        const Key k = rng.UniformRange(1, kKeySpace);
        const double p = rng.NextDouble();
        if (p < 0.4) {
          (void)tree.Insert(k, k);
        } else if (p < 0.7) {
          (void)tree.Delete(k);
        } else {
          Result<Value> r = tree.Search(k);
          if (r.ok()) {
            ASSERT_EQ(*r, k);
          }
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  Status s = TreeChecker(&tree).CheckStructure();
  EXPECT_TRUE(s.ok()) << s.ToString();
  // Size must equal the number of reachable keys (internal consistency).
  uint64_t counted = 0;
  tree.Scan(1, kMaxUserKey, [&](Key, Value) {
    ++counted;
    return true;
  });
  EXPECT_EQ(counted, tree.Size());
}

TEST(ConcurrentCompressionTest, ScanCompressorRunsAlongsideUpdaters) {
  SagivTree tree(SmallNodes(3));
  std::atomic<bool> stop{false};
  ScanCompressor compressor(&tree);
  std::thread compressor_thread([&]() {
    while (!stop.load()) {
      if (compressor.FullPass() == 0) std::this_thread::yield();
    }
  });

  const int threads = std::min(6, HardwareThreads());
  constexpr int kOpsPerThread = 20000;
  constexpr Key kKeySpace = 3000;
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t]() {
      Random rng(31 + static_cast<uint64_t>(t));
      for (int i = 0; i < kOpsPerThread; ++i) {
        const Key k = rng.UniformRange(1, kKeySpace);
        const double p = rng.NextDouble();
        if (p < 0.35) {
          (void)tree.Insert(k, k * 5);
        } else if (p < 0.75) {
          (void)tree.Delete(k);  // delete-heavy: feed the compressor
        } else {
          Result<Value> r = tree.Search(k);
          if (r.ok()) {
            ASSERT_EQ(*r, k * 5);
          }
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  stop.store(true);
  compressor_thread.join();

  Status s = TreeChecker(&tree).CheckStructure();
  EXPECT_TRUE(s.ok()) << s.ToString();
  // The compressor did real work concurrently.
  EXPECT_GT(tree.stats()->Get(StatId::kMerges) +
                tree.stats()->Get(StatId::kRedistributions),
            0u);
}

TEST(ConcurrentCompressionTest, MultipleQueueCompressorsSharedQueue) {
  // Deployment (2) of Section 5.4: several compression processes share one
  // queue, running with several updater threads.
  TreeOptions opt = SmallNodes(3);
  SagivTree tree(opt);
  CompressionQueue queue;
  tree.AttachCompressionQueue(&queue);

  std::atomic<bool> stop{false};
  constexpr int kCompressors = 3;
  std::vector<std::thread> compressors;
  std::vector<std::unique_ptr<QueueCompressor>> workers_c;
  for (int c = 0; c < kCompressors; ++c) {
    workers_c.push_back(std::make_unique<QueueCompressor>(&tree, &queue));
    compressors.emplace_back([&stop, qc = workers_c.back().get()]() {
      while (!stop.load()) {
        if (qc->CompressOne() == QueueCompressor::Outcome::kQueueEmpty) {
          std::this_thread::yield();
        }
      }
    });
  }

  const int threads = std::min(6, HardwareThreads());
  constexpr int kOpsPerThread = 20000;
  constexpr Key kKeySpace = 2500;
  std::vector<std::thread> updaters;
  for (int t = 0; t < threads; ++t) {
    updaters.emplace_back([&, t]() {
      Random rng(91 + static_cast<uint64_t>(t));
      for (int i = 0; i < kOpsPerThread; ++i) {
        const Key k = rng.UniformRange(1, kKeySpace);
        const double p = rng.NextDouble();
        if (p < 0.35) {
          (void)tree.Insert(k, k);
        } else if (p < 0.75) {
          (void)tree.Delete(k);
        } else {
          Result<Value> r = tree.Search(k);
          if (r.ok()) {
            ASSERT_EQ(*r, k);
          }
        }
      }
    });
  }
  for (auto& w : updaters) w.join();
  stop.store(true);
  for (auto& c : compressors) c.join();
  // Settle leftovers single-threadedly so the strict invariant can hold.
  QueueCompressor(&tree, &queue).Drain();

  Status s = TreeChecker(&tree).CheckStructure();
  EXPECT_TRUE(s.ok()) << s.ToString();
  uint64_t counted = 0;
  tree.Scan(1, kMaxUserKey, [&](Key, Value) {
    ++counted;
    return true;
  });
  EXPECT_EQ(counted, tree.Size());
}

TEST(ConcurrentCompressionTest, ScansSurviveCompression) {
  TreeOptions opt = SmallNodes(2);
  SagivTree tree(opt);
  CompressionQueue queue;
  tree.AttachCompressionQueue(&queue);
  for (Key k = 1; k <= 5000; ++k) ASSERT_TRUE(tree.Insert(k, k).ok());

  std::atomic<bool> stop{false};
  QueueCompressor qc(&tree, &queue);
  std::thread compressor([&]() {
    while (!stop.load()) {
      if (qc.CompressOne() == QueueCompressor::Outcome::kQueueEmpty) {
        std::this_thread::yield();
      }
    }
  });
  std::thread deleter([&]() {
    // Delete even keys while scanners run.
    for (Key k = 2; k <= 5000; k += 2) ASSERT_TRUE(tree.Delete(k).ok());
  });
  std::atomic<bool> scan_failed{false};
  std::thread scanner([&]() {
    for (int round = 0; round < 50; ++round) {
      Key prev = 0;
      tree.Scan(1, 5000, [&](Key k, Value v) {
        // Keys must come back strictly increasing with correct values;
        // odd keys are never deleted so they must all be present.
        if (k <= prev || v != k) scan_failed.store(true);
        prev = k;
        return true;
      });
    }
  });
  deleter.join();
  scanner.join();
  stop.store(true);
  compressor.join();

  EXPECT_FALSE(scan_failed.load());
  // All odd keys survive.
  for (Key k = 1; k <= 4999; k += 2) ASSERT_TRUE(tree.Search(k).ok()) << k;
  Status s = TreeChecker(&tree).CheckStructure();
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(DeadlockTest, TinyNodesMaximumContention) {
  // Adversarial configuration: capacity-4 nodes (the smallest legal k) so
  // splits are constant, deep tree, all threads in the same tiny key
  // range, a scan compressor AND two queue compressors running.
  // Completion within the test timeout demonstrates deadlock freedom
  // (Theorem 2).
  TreeOptions opt = SmallNodes(2);
  SagivTree tree(opt);
  CompressionQueue queue;
  tree.AttachCompressionQueue(&queue);

  std::atomic<bool> stop{false};
  ScanCompressor sc(&tree);
  QueueCompressor qc1(&tree, &queue);
  QueueCompressor qc2(&tree, &queue);
  std::thread t1([&]() {
    while (!stop.load()) {
      if (sc.FullPass() == 0) std::this_thread::yield();
    }
  });
  std::thread t2([&]() {
    while (!stop.load()) {
      if (qc1.CompressOne() == QueueCompressor::Outcome::kQueueEmpty) {
        std::this_thread::yield();
      }
    }
  });
  std::thread t3([&]() {
    while (!stop.load()) {
      if (qc2.CompressOne() == QueueCompressor::Outcome::kQueueEmpty) {
        std::this_thread::yield();
      }
    }
  });

  const int threads = std::min(8, HardwareThreads());
  std::vector<std::thread> updaters;
  for (int t = 0; t < threads; ++t) {
    updaters.emplace_back([&, t]() {
      Random rng(5 + static_cast<uint64_t>(t));
      for (int i = 0; i < 8000; ++i) {
        const Key k = rng.UniformRange(1, 150);  // hot key range
        if (rng.Bernoulli(0.5)) {
          (void)tree.Insert(k, k);
        } else {
          (void)tree.Delete(k);
        }
      }
    });
  }
  for (auto& w : updaters) w.join();
  stop.store(true);
  t1.join();
  t2.join();
  t3.join();
  QueueCompressor(&tree, &queue).Drain();

  Status s = TreeChecker(&tree).CheckStructure();
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(ReclamationTest, NoPageReusedUnderActiveGuards) {
  // Torture the §5.3 rule: readers continuously traverse while compression
  // deletes and reclaims pages. Any premature reuse shows up as a checker
  // or search failure (reused pages would contain foreign nodes).
  TreeOptions opt = SmallNodes(2);
  SagivTree tree(opt);
  CompressionQueue queue;
  tree.AttachCompressionQueue(&queue);

  std::atomic<bool> stop{false};
  QueueCompressor qc(&tree, &queue);
  std::thread compressor([&]() {
    while (!stop.load()) {
      if (qc.CompressOne() == QueueCompressor::Outcome::kQueueEmpty) {
        std::this_thread::yield();
      }
    }
  });

  std::atomic<bool> failed{false};
  std::thread churner([&]() {
    for (int round = 0; round < 60; ++round) {
      for (Key k = 1; k <= 400; ++k) {
        if (!tree.Insert(k, k + 9).ok()) failed.store(true);
      }
      for (Key k = 1; k <= 400; ++k) {
        if (!tree.Delete(k).ok()) failed.store(true);
      }
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t]() {
      Random rng(static_cast<uint64_t>(t) * 3 + 1);
      while (!stop.load(std::memory_order_acquire)) {
        const Key k = rng.UniformRange(1, 400);
        Result<Value> r = tree.Search(k);
        if (r.ok() && *r != k + 9) failed.store(true);
      }
    });
  }
  churner.join();
  stop.store(true);
  compressor.join();
  for (auto& r : readers) r.join();

  EXPECT_FALSE(failed.load());
  EXPECT_GT(tree.stats()->Get(StatId::kNodesReclaimed), 0u);
  Status s = TreeChecker(&tree).CheckStructure();
  EXPECT_TRUE(s.ok()) << s.ToString();
}

}  // namespace
}  // namespace obtree
