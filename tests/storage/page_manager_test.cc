// Copyright 2026 The obtree Authors.
//
// Tests of the §2.2 storage model: indivisible get/put (readers never see a
// torn page), paper locks that exclude lockers but not readers, and the
// §5.3 retire/reclaim cycle.

#include "obtree/storage/page_manager.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obtree/storage/file_store.h"

namespace obtree {
namespace {

class PageManagerTest : public ::testing::Test {
 protected:
  EpochManager epoch_;
  StatsCollector stats_;
  PageManager pm_{&epoch_, &stats_};
};

TEST_F(PageManagerTest, AllocateDistinctIds) {
  auto a = pm_.Allocate();
  auto b = pm_.Allocate();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(*a, *b);
  EXPECT_EQ(pm_.live_pages(), 2u);
}

TEST_F(PageManagerTest, PutThenGetRoundTrips) {
  auto id = pm_.Allocate();
  ASSERT_TRUE(id.ok());
  Page w;
  for (size_t i = 0; i < kPageSize; ++i) w.bytes[i] = static_cast<uint8_t>(i);
  pm_.Put(*id, w);
  Page r;
  pm_.Get(*id, &r);
  EXPECT_EQ(std::memcmp(w.bytes, r.bytes, kPageSize), 0);
}

TEST_F(PageManagerTest, FreshAllocationIsZeroed) {
  auto id = pm_.Allocate();
  ASSERT_TRUE(id.ok());
  Page r;
  pm_.Get(*id, &r);
  for (size_t i = 0; i < kPageSize; ++i) ASSERT_EQ(r.bytes[i], 0u) << i;
}

TEST_F(PageManagerTest, GetPutCountStats) {
  auto id = pm_.Allocate();
  Page p{};
  pm_.Put(*id, p);
  pm_.Get(*id, &p);
  pm_.Get(*id, &p);
  EXPECT_EQ(stats_.Get(StatId::kPuts), 1u);
  EXPECT_EQ(stats_.Get(StatId::kGets), 2u);
}

TEST_F(PageManagerTest, LockExcludesOtherLockers) {
  auto id = pm_.Allocate();
  pm_.Lock(*id);
  std::atomic<bool> acquired{false};
  std::thread t([&]() {
    pm_.Lock(*id);
    acquired.store(true);
    pm_.Unlock(*id);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(acquired.load());
  pm_.Unlock(*id);
  t.join();
  EXPECT_TRUE(acquired.load());
}

TEST_F(PageManagerTest, LockDoesNotBlockReaders) {
  auto id = pm_.Allocate();
  Page w{};
  w.bytes[0] = 42;
  pm_.Put(*id, w);
  pm_.Lock(*id);
  // The paper: "a lock on a node does not prevent other processes from
  // reading the locked node."
  std::atomic<bool> read_ok{false};
  std::thread t([&]() {
    Page r;
    pm_.Get(*id, &r);
    read_ok.store(r.bytes[0] == 42);
  });
  t.join();
  pm_.Unlock(*id);
  EXPECT_TRUE(read_ok.load());
}

TEST_F(PageManagerTest, TryLockReportsContention) {
  auto id = pm_.Allocate();
  EXPECT_TRUE(pm_.TryLock(*id));
  std::thread t([&]() { EXPECT_FALSE(pm_.TryLock(*id)); });
  t.join();
  pm_.Unlock(*id);
  EXPECT_TRUE(pm_.TryLock(*id));
  pm_.Unlock(*id);
}

TEST_F(PageManagerTest, LockDepthTracked) {
  auto a = pm_.Allocate();
  auto b = pm_.Allocate();
  EXPECT_EQ(PageManager::LocksHeldByThisThread(), 0);
  pm_.Lock(*a);
  EXPECT_EQ(PageManager::LocksHeldByThisThread(), 1);
  pm_.Lock(*b);
  EXPECT_EQ(PageManager::LocksHeldByThisThread(), 2);
  EXPECT_EQ(stats_.max_locks_held(), 2u);
  pm_.Unlock(*b);
  pm_.Unlock(*a);
  EXPECT_EQ(PageManager::LocksHeldByThisThread(), 0);
}

TEST_F(PageManagerTest, RetiredPageNotReusedWhileGuardActive) {
  auto id = pm_.Allocate();
  auto guard = std::make_unique<EpochManager::Guard>(&epoch_);
  pm_.Retire(*id);  // retired AFTER the guard started -> protected
  EXPECT_EQ(pm_.Reclaim(), 0u);
  EXPECT_EQ(pm_.retired_pages(), 1u);
  guard.reset();
  EXPECT_EQ(pm_.Reclaim(), 1u);
  EXPECT_EQ(pm_.free_pages(), 1u);
}

TEST_F(PageManagerTest, RetireBeforeGuardIsReclaimable) {
  auto id = pm_.Allocate();
  pm_.Retire(*id);
  EpochManager::Guard guard(&epoch_);  // started after the retirement
  EXPECT_EQ(pm_.Reclaim(), 1u);
}

TEST_F(PageManagerTest, ReusedPageIsZeroed) {
  auto id = pm_.Allocate();
  Page w;
  std::memset(w.bytes, 0xAB, kPageSize);
  pm_.Put(*id, w);
  pm_.Retire(*id);
  ASSERT_EQ(pm_.Reclaim(), 1u);
  auto id2 = pm_.Allocate();
  ASSERT_TRUE(id2.ok());
  EXPECT_EQ(*id2, *id);  // the page was recycled
  Page r;
  pm_.Get(*id2, &r);
  for (size_t i = 0; i < kPageSize; ++i) ASSERT_EQ(r.bytes[i], 0u) << i;
}

TEST_F(PageManagerTest, AllocateHarvestsRetiredWithoutExplicitReclaim) {
  auto id = pm_.Allocate();
  pm_.Retire(*id);
  // No Reclaim() call: Allocate must harvest on its own.
  auto id2 = pm_.Allocate();
  ASSERT_TRUE(id2.ok());
  EXPECT_EQ(*id2, *id);
}

TEST_F(PageManagerTest, StatsCountRetireAndReclaim) {
  auto id = pm_.Allocate();
  pm_.Retire(*id);
  pm_.Reclaim();
  EXPECT_EQ(stats_.Get(StatId::kNodesRetired), 1u);
  EXPECT_EQ(stats_.Get(StatId::kNodesReclaimed), 1u);
}

TEST_F(PageManagerTest, ManyPagesAcrossChunks) {
  // Cross the 1024-page chunk boundary.
  std::vector<PageId> ids;
  for (int i = 0; i < 3000; ++i) {
    auto id = pm_.Allocate();
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  Page w{};
  w.bytes[7] = 9;
  pm_.Put(ids.back(), w);
  Page r;
  pm_.Get(ids.back(), &r);
  EXPECT_EQ(r.bytes[7], 9u);
  EXPECT_EQ(pm_.allocated_pages(), 3000u);
}

TEST_F(PageManagerTest, OptimisticReadValidatesWhenUnchanged) {
  auto id = pm_.Allocate();
  ASSERT_TRUE(id.ok());
  Page w{};
  w.bytes[0] = 7;
  pm_.Put(*id, w);
  PageManager::ReadGuard g = pm_.OptimisticRead(*id);
  ASSERT_TRUE(g.stable());
  EXPECT_EQ(
      SeqLock::Load(reinterpret_cast<const uint64_t*>(g.page()->bytes)), 7u);
  EXPECT_TRUE(g.Validate());
  EXPECT_TRUE(g.Validate());  // validation is repeatable
}

TEST_F(PageManagerTest, DefaultReadGuardNeverValidates) {
  PageManager::ReadGuard g;
  EXPECT_FALSE(g.stable());
  EXPECT_FALSE(g.Validate());
}

TEST_F(PageManagerTest, OptimisticReadInvalidatedByPut) {
  auto id = pm_.Allocate();
  PageManager::ReadGuard g = pm_.OptimisticRead(*id);
  ASSERT_TRUE(g.stable());
  Page w{};
  pm_.Put(*id, w);
  EXPECT_FALSE(g.Validate());
}

TEST_F(PageManagerTest, OptimisticReadInvalidatedByReuse) {
  auto id = pm_.Allocate();
  PageManager::ReadGuard g = pm_.OptimisticRead(*id);
  ASSERT_TRUE(g.stable());
  pm_.Retire(*id);
  ASSERT_EQ(pm_.Reclaim(), 1u);
  auto id2 = pm_.Allocate();  // recycles the page, zeroing it under the seq
  ASSERT_TRUE(id2.ok());
  ASSERT_EQ(*id2, *id);
  EXPECT_FALSE(g.Validate());
}

TEST_F(PageManagerTest, OptimisticReadCountsAsGet) {
  auto id = pm_.Allocate();
  const uint64_t before = stats_.Get(StatId::kGets);
  (void)pm_.OptimisticRead(*id);
  EXPECT_EQ(stats_.Get(StatId::kGets), before + 1);
}

// Optimistic torture: a writer alternates two full-page patterns while
// readers probe the live page in place. A read that VALIDATES must have
// observed exactly one pattern; reads that fail validation may be torn
// and are discarded, exactly like the tree's optimistic descents do.
TEST_F(PageManagerTest, ValidatedOptimisticReadsAreNeverTorn) {
  auto id = pm_.Allocate();
  ASSERT_TRUE(id.ok());
  Page a;
  Page b;
  std::memset(a.bytes, 0x11, kPageSize);
  std::memset(b.bytes, 0xEE, kPageSize);
  pm_.Put(*id, a);

  std::atomic<bool> stop{false};
  std::atomic<bool> torn{false};
  std::atomic<uint64_t> validated{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&]() {
      uint64_t ok = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        PageManager::ReadGuard g = pm_.OptimisticRead(*id);
        if (!g.stable()) continue;
        // Sample words across the page through SeqLock's word loads (the
        // only defined way to touch a concurrently-rewritten page).
        const auto* words =
            reinterpret_cast<const uint64_t*>(g.page()->bytes);
        uint64_t first = SeqLock::Load(&words[0]);
        uint64_t last = SeqLock::Load(&words[kPageSize / 8 - 1]);
        uint64_t mid = SeqLock::Load(&words[kPageSize / 16]);
        if (!g.Validate()) continue;  // discarded: may be torn
        ++ok;
        if (first != last || first != mid ||
            (first != 0x1111111111111111ull &&
             first != 0xEEEEEEEEEEEEEEEEull)) {
          torn.store(true);
          return;
        }
      }
      validated.fetch_add(ok);
    });
  }
  std::thread writer([&]() {
    for (int i = 0; i < 20000; ++i) pm_.Put(*id, (i & 1) ? b : a);
    stop.store(true);
  });
  writer.join();
  stop.store(true);
  for (auto& th : readers) th.join();
  EXPECT_FALSE(torn.load());
  EXPECT_GT(validated.load(), 0u);
}

TEST_F(PageManagerTest, WriteGuardPublishesInPlaceStores) {
  auto id = pm_.Allocate();
  ASSERT_TRUE(id.ok());
  pm_.Lock(*id);
  {
    PageManager::WriteGuard wg = pm_.BeginWrite(*id);
    ASSERT_TRUE(wg.held());
    auto* words = reinterpret_cast<uint64_t*>(wg.page()->bytes);
    SeqLock::Store(&words[0], 0x42);
    SeqLock::Store(&words[kPageSize / 8 - 1], 0x43);
    wg.Release();
    EXPECT_FALSE(wg.held());
  }
  pm_.Unlock(*id);
  Page r;
  pm_.Get(*id, &r);
  const auto* words = reinterpret_cast<const uint64_t*>(r.bytes);
  EXPECT_EQ(words[0], 0x42u);
  EXPECT_EQ(words[kPageSize / 8 - 1], 0x43u);
}

TEST_F(PageManagerTest, WriteGuardInvalidatesOptimisticReaders) {
  auto id = pm_.Allocate();
  ASSERT_TRUE(id.ok());
  PageManager::ReadGuard before = pm_.OptimisticRead(*id);
  ASSERT_TRUE(before.Validate());
  pm_.Lock(*id);
  PageManager::WriteGuard wg = pm_.BeginWrite(*id);
  // While the guard holds the seqlock odd, nothing can validate and new
  // optimistic reads are unstable.
  EXPECT_FALSE(before.Validate());
  EXPECT_FALSE(pm_.OptimisticRead(*id).stable());
  wg.Release();
  pm_.Unlock(*id);
  // Even after release the pre-write guard stays dead (version moved)...
  EXPECT_FALSE(before.Validate());
  // ...and a fresh read validates again.
  EXPECT_TRUE(pm_.OptimisticRead(*id).Validate());
}

TEST_F(PageManagerTest, WriteGuardDestructorReleases) {
  auto id = pm_.Allocate();
  pm_.Lock(*id);
  { PageManager::WriteGuard wg = pm_.BeginWrite(*id); }
  pm_.Unlock(*id);
  EXPECT_TRUE(pm_.OptimisticRead(*id).stable());
  // Move transfers ownership: releasing through the destination once.
  pm_.Lock(*id);
  {
    PageManager::WriteGuard a = pm_.BeginWrite(*id);
    PageManager::WriteGuard b = std::move(a);
    EXPECT_FALSE(a.held());
    EXPECT_TRUE(b.held());
  }
  pm_.Unlock(*id);
  EXPECT_TRUE(pm_.OptimisticRead(*id).Validate());
}

TEST_F(PageManagerTest, ReadModifyWriteChargesOneGetOnePut) {
  auto id = pm_.Allocate();
  pm_.Lock(*id);
  const uint64_t gets = stats_.Get(StatId::kGets);
  const uint64_t puts = stats_.Get(StatId::kPuts);
  // The locked peek is the node access (counts a get, pays the simulated
  // I/O); the BeginWrite completing the read-modify-write charges only
  // the put COUNTER — the whole RMW is one access, not get + put.
  PageManager::ReadGuard peek = pm_.PeekLocked(*id);
  EXPECT_TRUE(peek.Validate());
  EXPECT_EQ(stats_.Get(StatId::kGets), gets + 1);
  PageManager::WriteGuard wg = pm_.BeginWrite(*id);
  EXPECT_EQ(stats_.Get(StatId::kPuts), puts + 1);
  EXPECT_EQ(stats_.Get(StatId::kGets), gets + 1);
  wg.Release();
  pm_.Unlock(*id);
}

TEST_F(PageManagerTest, WriteGuardBlocksCopyReadersUntilRelease) {
  auto id = pm_.Allocate();
  Page w{};
  w.bytes[0] = 7;
  pm_.Put(*id, w);
  pm_.Lock(*id);
  PageManager::WriteGuard wg = pm_.BeginWrite(*id);
  std::atomic<bool> read_done{false};
  std::thread reader([&]() {
    Page r;
    pm_.Get(*id, &r);  // spins while the seqlock is odd
    read_done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(read_done.load());
  wg.Release();
  reader.join();
  EXPECT_TRUE(read_done.load());
  pm_.Unlock(*id);
}

// Every writer waits for an even version, Allocate's reuse of a page
// included. Reuse must not zero a page while another write on it is in
// flight, nor turn its version even in the middle of that write.
TEST_F(PageManagerTest, AllocateReuseWaitsForWriteInFlight) {
  auto id = pm_.Allocate();
  ASSERT_TRUE(id.ok());
  Page w;
  std::memset(w.bytes, 0xAB, kPageSize);
  pm_.Put(*id, w);
  const uint64_t before = pm_.OptimisticRead(*id).version();
  pm_.Lock(*id);
  PageManager::WriteGuard wg = pm_.BeginWrite(*id);
  const uint64_t during = pm_.OptimisticRead(*id).version();
  EXPECT_EQ(during % 2, 1u);
  pm_.Retire(*id);
  ASSERT_EQ(pm_.Reclaim(), 1u);

  std::atomic<bool> returned{false};
  PageId reused = kInvalidPageId;
  std::thread allocator([&]() {
    auto r = pm_.Allocate();
    if (r.ok()) reused = *r;
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(returned.load()) << "Allocate reused a page mid-write";
  EXPECT_FALSE(pm_.OptimisticRead(*id).stable());
  wg.Release();
  pm_.Unlock(*id);
  allocator.join();

  EXPECT_EQ(reused, *id);
  const uint64_t after = pm_.OptimisticRead(*id).version();
  EXPECT_EQ(after % 2, 0u);
  EXPECT_GT(after, during);
  EXPECT_GT(after, before);
  Page r;
  pm_.Get(*id, &r);
  for (size_t i = 0; i < kPageSize; ++i) ASSERT_EQ(r.bytes[i], 0u) << i;
}

// Seqlock torture: a writer alternates between two full-page patterns while
// readers verify they only ever observe one pattern or the other.
TEST_F(PageManagerTest, ReadersNeverSeeTornPages) {
  auto id = pm_.Allocate();
  ASSERT_TRUE(id.ok());
  Page a;
  Page b;
  std::memset(a.bytes, 0x11, kPageSize);
  std::memset(b.bytes, 0xEE, kPageSize);
  pm_.Put(*id, a);

  std::atomic<bool> stop{false};
  std::atomic<bool> torn{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&]() {
      Page r;
      while (!stop.load(std::memory_order_relaxed)) {
        pm_.Get(*id, &r);
        const uint8_t first = r.bytes[0];
        if (first != 0x11 && first != 0xEE) {
          torn.store(true);
          break;
        }
        for (size_t i = 0; i < kPageSize; ++i) {
          if (r.bytes[i] != first) {
            torn.store(true);
            return;
          }
        }
      }
    });
  }
  std::thread writer([&]() {
    for (int i = 0; i < 20000; ++i) pm_.Put(*id, (i & 1) ? b : a);
    stop.store(true);
  });
  writer.join();
  stop.store(true);
  for (auto& th : readers) th.join();
  EXPECT_FALSE(torn.load());
}

// Regression for a FileStore livelock: a fault-in (or in-place write) that
// met another thread's fault-in of the same page read the odd seqlock
// version once and then spun on that stale value forever. Four readers
// fault in the same evicted pages through a one-page pool, under a
// deadline.
TEST(PageManagerFileStoreTest, ConcurrentFaultInsOfSamePagesFinish) {
  const std::string dir = ::testing::TempDir() + "obtree_pm_fault_in";
  std::filesystem::remove_all(dir);
  auto store = FileStore::Open(dir);
  ASSERT_TRUE(store.ok());
  EpochManager epoch;
  StatsCollector stats;
  PageManager pm(&epoch, &stats, store->get(), /*buffer_pool_pages=*/1);
  constexpr int kPages = 4;
  std::vector<PageId> ids;
  for (int i = 0; i < kPages; ++i) {
    auto id = pm.Allocate();
    ASSERT_TRUE(id.ok());
    Page w;
    std::memset(w.bytes, i + 1, kPageSize);
    pm.Put(*id, w);
    ids.push_back(*id);
  }

  constexpr int kThreads = 4;
  constexpr int kRounds = 2000;
  std::atomic<int> finished{0};
  std::atomic<bool> wrong{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&]() {
      Page r;
      for (int round = 0; round < kRounds; ++round) {
        for (int i = 0; i < kPages; ++i) {
          const uint8_t want = static_cast<uint8_t>(i + 1);
          if (!pm.Get(ids[static_cast<size_t>(i)], &r).ok() ||
              r.bytes[0] != want || r.bytes[kPageSize - 1] != want) {
            wrong.store(true);
          }
        }
      }
      finished.fetch_add(1);
    });
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (finished.load() < kThreads &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (finished.load() < kThreads) {
    // The stuck readers cannot be joined: report and leave.
    ADD_FAILURE() << kThreads - finished.load()
                  << " readers still faulting in after 60 s (livelock)";
    std::fflush(stdout);
    std::_Exit(1);
  }
  for (auto& th : readers) th.join();
  EXPECT_FALSE(wrong.load());
  EXPECT_GT(stats.Get(StatId::kStoreReads), static_cast<uint64_t>(kPages));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace obtree
