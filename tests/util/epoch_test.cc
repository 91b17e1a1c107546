// Copyright 2026 The obtree Authors.
//
// Tests of the §5.3 reclamation rule: pages retired at time t are released
// only when every active operation started after t and every registered
// external structure (compression queues) holds only younger stamps.

#include "obtree/util/epoch.h"

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace obtree {
namespace {

TEST(EpochTest, ClockAdvances) {
  EpochManager mgr;
  const Timestamp a = mgr.Now();
  const Timestamp b = mgr.Advance();
  EXPECT_GT(b, a);
  EXPECT_GE(mgr.Now(), b);
}

TEST(EpochTest, NoActiveMeansMaxTimestamp) {
  EpochManager mgr;
  EXPECT_EQ(mgr.MinActive(), kMaxTimestamp);
  EXPECT_EQ(mgr.ActiveCount(), 0);
}

TEST(EpochTest, GuardPinsStartTime) {
  EpochManager mgr;
  {
    EpochManager::Guard g(&mgr);
    EXPECT_EQ(mgr.ActiveCount(), 1);
    EXPECT_LE(mgr.MinActive(), g.start_time());
    mgr.Advance();
    mgr.Advance();
    // The pin does not move forward with the clock.
    EXPECT_LE(mgr.MinActive(), g.start_time());
  }
  EXPECT_EQ(mgr.ActiveCount(), 0);
  EXPECT_EQ(mgr.MinActive(), kMaxTimestamp);
}

TEST(EpochTest, RefreshMovesPinForward) {
  EpochManager mgr;
  EpochManager::Guard g(&mgr);
  const Timestamp before = g.start_time();
  mgr.Advance();
  mgr.Advance();
  g.Refresh();
  EXPECT_GT(g.start_time(), before);
  EXPECT_GE(mgr.MinActive(), before);
}

TEST(EpochTest, MinOfSeveralGuards) {
  EpochManager mgr;
  // Start times are only as distinct as the clock: advance it (as a
  // retirement would) between the pins.
  auto g1 = std::make_unique<EpochManager::Guard>(&mgr);
  mgr.Advance();
  auto g2 = std::make_unique<EpochManager::Guard>(&mgr);
  mgr.Advance();
  auto g3 = std::make_unique<EpochManager::Guard>(&mgr);
  EXPECT_EQ(mgr.ActiveCount(), 3);
  const Timestamp oldest = g1->start_time();
  EXPECT_LE(mgr.MinActive(), oldest);
  g1.reset();
  EXPECT_GT(mgr.MinActive(), oldest);  // the floor advanced
  g2.reset();
  g3.reset();
  EXPECT_EQ(mgr.MinActive(), kMaxTimestamp);
}

TEST(EpochTest, ExternalProviderHoldsFloor) {
  EpochManager mgr;
  std::atomic<Timestamp> queue_min{kMaxTimestamp};
  mgr.RegisterExternalMinProvider([&]() { return queue_min.load(); });
  EXPECT_EQ(mgr.MinActive(), kMaxTimestamp);
  queue_min.store(5);
  EXPECT_EQ(mgr.MinActive(), 5u);
  queue_min.store(kMaxTimestamp);
  EXPECT_EQ(mgr.MinActive(), kMaxTimestamp);
}

TEST(EpochTest, ManyConcurrentGuards) {
  EpochManager mgr;
  constexpr int kThreads = 8;
  constexpr int kIters = 5000;
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&]() {
      for (int i = 0; i < kIters; ++i) {
        EpochManager::Guard g(&mgr);
        // While we are pinned, the floor can never exceed our start time.
        if (mgr.MinActive() > g.start_time()) failed.store(true);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(mgr.ActiveCount(), 0);
}

TEST(EpochTest, SlotReuseAcrossManyGuards) {
  EpochManager mgr;
  // Sequentially create far more guards than slots: slots must recycle.
  for (int i = 0; i < EpochManager::kMaxSlots * 3; ++i) {
    EpochManager::Guard g(&mgr);
    EXPECT_EQ(mgr.ActiveCount(), 1);
  }
  EXPECT_EQ(mgr.ActiveCount(), 0);
}

// Regression for the slot ABA of a shared free list: two live operations
// sharing one pin slot let the first release erase the other's pin. While
// 8 threads churn through guards and a retirer keeps advancing the clock,
// a long-lived pin (re-taken so that its slot keeps cycling) must hold
// MinActive() at or below its start.
TEST(EpochTest, LongLivedPinStaysFloorUnderGuardChurn) {
  EpochManager mgr;
  constexpr int kThreads = 8;
  constexpr int kGuardsPerThread = 1'000'000;
  std::atomic<int> running{kThreads};
  std::vector<std::thread> threads;
  threads.reserve(kThreads + 1);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&]() {
      for (int i = 0; i < kGuardsPerThread; ++i) EpochManager::Guard g(&mgr);
      running.fetch_sub(1);
    });
  }
  threads.emplace_back([&]() {  // the retirer
    while (running.load() > 0) mgr.Advance();
  });
  uint64_t violations = 0;
  uint64_t checks = 0;
  while (running.load() > 0) {
    EpochManager::Guard pin(&mgr);
    for (int k = 0; k < 64; ++k, ++checks) {
      if (mgr.MinActive() > pin.start_time()) ++violations;
    }
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(violations, 0u) << "of " << checks << " checks";
  EXPECT_EQ(mgr.ActiveCount(), 0);
}

// The ShardedMap shape: a table pin on one manager, a tree pin on another,
// nested on one thread and released out of order.
TEST(EpochTest, NestedGuardsOnTwoManagersReleasedOutOfOrder) {
  EpochManager table;
  EpochManager tree;
  tree.Advance();
  tree.Advance();  // the two clocks differ
  auto outer = std::make_unique<EpochManager::Guard>(&table);
  auto inner = std::make_unique<EpochManager::Guard>(&tree);
  EXPECT_EQ(table.ActiveCount(), 1);
  EXPECT_EQ(tree.ActiveCount(), 1);
  EXPECT_EQ(table.MinActive(), outer->start_time());
  EXPECT_EQ(tree.MinActive(), inner->start_time());

  table.Advance();
  tree.Advance();
  outer.reset();  // the outer pin leaves first
  EXPECT_EQ(table.ActiveCount(), 0);
  EXPECT_EQ(table.MinActive(), kMaxTimestamp);
  EXPECT_EQ(tree.ActiveCount(), 1);
  EXPECT_EQ(tree.MinActive(), inner->start_time());

  // The freed entry is reused for the other manager without disturbing
  // the live pin.
  EpochManager::Guard again(&table);
  EXPECT_EQ(table.ActiveCount(), 1);
  EXPECT_EQ(table.MinActive(), again.start_time());
  EXPECT_EQ(tree.ActiveCount(), 1);
  EXPECT_EQ(tree.MinActive(), inner->start_time());
  inner.reset();
  EXPECT_EQ(tree.ActiveCount(), 0);
  EXPECT_EQ(tree.MinActive(), kMaxTimestamp);
  EXPECT_EQ(table.ActiveCount(), 1);
}

// A thread's pin record returns to the registry when the thread exits.
// More threads than the registry holds run one after another, so a record
// that was never returned makes the last ones wait forever; each new owner
// must also start from a clean record.
TEST(EpochTest, RecordReusedAfterThreadExit) {
  EpochManager mgr;
  EpochManager::Guard main_pin(&mgr);
  mgr.Advance();
  std::atomic<bool> failed{false};
  for (int i = 0; i < EpochManager::kMaxSlots + 16; ++i) {
    std::thread([&]() {
      if (mgr.ActiveCount() != 1) failed.store(true);  // no stale entries
      EpochManager::Guard a(&mgr);
      EpochManager::Guard b(&mgr);
      if (mgr.ActiveCount() != 3) failed.store(true);
      if (a.start_time() <= main_pin.start_time()) failed.store(true);
    }).join();
  }
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(mgr.ActiveCount(), 1);
  EXPECT_EQ(mgr.MinActive(), main_pin.start_time());
}

}  // namespace
}  // namespace obtree
