// Copyright 2026 The obtree Authors.
//
// Deterministic interleaving tests: the PageManager test hook pauses a
// protocol thread at an exact step while lock-free readers observe the
// half-finished state. These verify, step by step, the windows Theorem 1
// and Section 5.2 argue about:
//
//   * after a split writes B and A but before the parent post, the new
//     node is reachable only through A's link — searches must find it;
//   * during a merge, after the gaining child is rewritten but before the
//     parent (and then before the deleted child), every key remains
//     readable somewhere;
//   * a reader that catches the deleted child AFTER its rewrite recovers
//     through the merge pointer;
//   * a reader that reaches a leaf after a redistribution moved its key
//     left backtracks to the node it came through (§5.2) instead of
//     restarting at the root;
//   * ConcurrentMap::ValidateStructure waits out a merge its background
//     scan worker has half written instead of checking the torn tree.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include <gtest/gtest.h>

#include "obtree/api/concurrent_map.h"
#include "obtree/core/sagiv_tree.h"
#include "obtree/core/scan_compressor.h"
#include "obtree/core/tree_checker.h"
#include "obtree/core/tree_dump.h"

namespace obtree {
namespace {

// A reusable "pause the other thread at a trigger" gate. The protocol
// thread calls MaybeBlock from the hook; the test thread Awaits the pause,
// inspects the world, then Releases.
class Gate {
 public:
  // Arm the gate: the next hook event matching (op, page) blocks.
  void Arm(std::string op, PageId page) {
    std::lock_guard<std::mutex> l(mu_);
    op_ = std::move(op);
    page_ = page;
    armed_ = true;
    paused_ = false;
    released_ = false;
  }

  // Called from the PageManager hook (protocol thread).
  void MaybeBlock(const char* op, PageId page) {
    std::unique_lock<std::mutex> l(mu_);
    if (!armed_ || op_ != op || page_ != page) return;
    armed_ = false;
    paused_ = true;
    cv_.notify_all();
    cv_.wait(l, [&] { return released_; });
    paused_ = false;
  }

  // Test thread: wait until the protocol thread is paused at the gate.
  void AwaitPaused() {
    std::unique_lock<std::mutex> l(mu_);
    cv_.wait(l, [&] { return paused_; });
  }

  // Test thread: let the protocol thread continue.
  void Release() {
    std::lock_guard<std::mutex> l(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::string op_;
  PageId page_ = kInvalidPageId;
  bool armed_ = false;
  bool paused_ = false;
  bool released_ = false;
};

TreeOptions K2() {
  TreeOptions opt;
  opt.min_entries = 2;
  return opt;
}

TEST(InterleavingTest, SplitIsVisibleThroughLinkBeforeParentPost) {
  SagivTree tree(K2());
  // Fill one leaf to capacity (4) under a root leaf... build height 2:
  for (Key k = 10; k <= 60; k += 10) ASSERT_TRUE(tree.Insert(k, k).ok());
  ASSERT_GE(tree.Height(), 2u);

  // The inserter's next leaf split performs: put(B), put(A), unlock(A),
  // then lock(parent). Pause at the parent lock: the pair for B is not
  // posted anywhere, B is reachable only via A's link.
  Gate gate;
  std::atomic<bool> arm_on_next_lock{false};
  std::atomic<int> puts_seen{0};
  const PrimeBlockData pb = tree.internal_prime()->Read();
  const PageId parent = pb.root();
  tree.internal_pager()->SetTestHook([&](const char* op, PageId page) {
    gate.MaybeBlock(op, page);
  });
  gate.Arm("lock", parent);

  // Find a key that lands in the fullest leaf; inserting 11..14 overflows
  // the first leaf eventually. Run the inserter in a thread.
  std::thread inserter([&]() {
    for (Key k = 11; k <= 14; ++k) {
      ASSERT_TRUE(tree.Insert(k, k * 7).ok()) << k;
    }
  });

  gate.AwaitPaused();
  // The inserter is frozen before posting the separator. Every key —
  // including those that moved into the fresh right node — must be
  // findable RIGHT NOW by a concurrent reader, through the link.
  const uint64_t link_follows_before =
      tree.stats()->Get(StatId::kLinkFollows);
  for (Key k : {10, 11, 20, 30, 40, 50, 60}) {
    Result<Value> r = tree.Search(k);
    ASSERT_TRUE(r.ok()) << "key " << k << " invisible mid-split\n"
                        << DumpStructureToString(tree);
  }
  EXPECT_GT(tree.stats()->Get(StatId::kLinkFollows), link_follows_before)
      << "expected at least one search to traverse the link";
  (void)puts_seen;
  (void)arm_on_next_lock;

  gate.Release();
  inserter.join();
  tree.internal_pager()->SetTestHook(nullptr);
  Status s = TreeChecker(&tree).CheckStructure();
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(InterleavingTest, MergeKeepsEveryKeyReadableAtEachStep) {
  SagivTree tree(K2());
  // Hand-build via inserts+deletes: get two adjacent under-full leaves.
  for (Key k = 10; k <= 60; k += 10) ASSERT_TRUE(tree.Insert(k, k).ok());
  // Leaves are [10,20,30] and [40,50,60]; k=2, so dropping the left leaf
  // to one entry makes the pair mergeable (1 + 2 <= capacity 4).
  ASSERT_TRUE(tree.Delete(20).ok());
  ASSERT_TRUE(tree.Delete(30).ok());
  ASSERT_TRUE(tree.Delete(50).ok());
  ASSERT_GE(tree.Height(), 2u);
  const PrimeBlockData pb = tree.internal_prime()->Read();
  const PageId parent = pb.root();

  // The merge writes: put(left), put(parent), put(right). Pause before
  // put(parent): left already holds everything, parent still routes to
  // both, right still shows its old image.
  Gate gate;
  tree.internal_pager()->SetTestHook(
      [&](const char* op, PageId page) { gate.MaybeBlock(op, page); });
  gate.Arm("put", parent);

  ScanCompressor compressor(&tree);
  std::thread compressor_thread([&]() { compressor.FullPass(); });

  gate.AwaitPaused();
  // Mid-merge: every surviving key readable.
  for (Key k : {10, 40, 60}) {
    ASSERT_TRUE(tree.Search(k).ok())
        << "key " << k << " invisible mid-merge (before parent rewrite)\n"
        << DumpStructureToString(tree);
  }
  gate.Release();
  compressor_thread.join();
  tree.internal_pager()->SetTestHook(nullptr);

  for (Key k : {10, 40, 60}) ASSERT_TRUE(tree.Search(k).ok()) << k;
  Status s = TreeChecker(&tree).CheckStructure();
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_GT(tree.stats()->Get(StatId::kMerges), 0u);
}

TEST(InterleavingTest, ReaderRecoversThroughMergePointer) {
  SagivTree tree(K2());
  for (Key k = 10; k <= 60; k += 10) ASSERT_TRUE(tree.Insert(k, k).ok());
  // Leaves are [10,20,30] and [40,50,60]; k=2, so dropping the left leaf
  // to one entry makes the pair mergeable (1 + 2 <= capacity 4).
  ASSERT_TRUE(tree.Delete(20).ok());
  ASSERT_TRUE(tree.Delete(30).ok());
  ASSERT_TRUE(tree.Delete(50).ok());
  ASSERT_GE(tree.Height(), 2u);

  // Identify the two leaves that will merge: leftmost leaf and its link.
  const PrimeBlockData pb = tree.internal_prime()->Read();
  Page buf;
  tree.internal_pager()->Get(pb.leftmost[0], &buf);
  const PageId right_leaf = buf.As<Node>()->link;
  ASSERT_NE(right_leaf, kInvalidPageId);

  // Pause the compressor right before it UNLOCKS the deleted right leaf —
  // i.e. after put(left), put(parent), put(right=deleted). A reader whose
  // "stale" route still points at the right leaf must hop through the
  // merge pointer.
  Gate gate;
  tree.internal_pager()->SetTestHook(
      [&](const char* op, PageId page) { gate.MaybeBlock(op, page); });
  gate.Arm("unlock", right_leaf);

  ScanCompressor compressor(&tree);
  std::thread compressor_thread([&]() { compressor.FullPass(); });
  gate.AwaitPaused();

  // Read the deleted leaf directly (simulating a reader that obtained the
  // pointer before the merge): it must carry the deletion bit and a merge
  // pointer to the absorbing node, and a normal search still works.
  tree.internal_pager()->Get(right_leaf, &buf);
  const Node* dead = buf.As<Node>();
  EXPECT_TRUE(dead->is_deleted());
  EXPECT_NE(dead->merge_target, kInvalidPageId);
  for (Key k : {10, 40, 60}) ASSERT_TRUE(tree.Search(k).ok()) << k;

  gate.Release();
  compressor_thread.join();
  tree.internal_pager()->SetTestHook(nullptr);
  Status s = TreeChecker(&tree).CheckStructure();
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(InterleavingTest, InsertBlockedByLockProceedsAfterRelease) {
  // A writer paused while HOLDING a leaf lock must not block readers (the
  // paper's central storage-model property), and a second writer on the
  // same leaf waits and then succeeds.
  SagivTree tree(K2());
  for (Key k = 10; k <= 30; k += 10) ASSERT_TRUE(tree.Insert(k, k).ok());
  const PageId leaf = *tree.internal_FindNodeAtLevel(10, 0, nullptr);

  Gate gate;
  tree.internal_pager()->SetTestHook(
      [&](const char* op, PageId page) { gate.MaybeBlock(op, page); });
  gate.Arm("put", leaf);  // pause writer 1 inside its critical section

  std::thread writer1([&]() { ASSERT_TRUE(tree.Insert(11, 11).ok()); });
  gate.AwaitPaused();

  // Readers sail through the locked, mid-rewrite leaf.
  for (Key k : {10, 20, 30}) ASSERT_TRUE(tree.Search(k).ok()) << k;
  // A second writer queues behind the paper lock.
  std::atomic<bool> writer2_done{false};
  std::thread writer2([&]() {
    ASSERT_TRUE(tree.Insert(12, 12).ok());
    writer2_done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(writer2_done.load()) << "writer 2 ignored the paper lock";

  gate.Release();
  writer1.join();
  writer2.join();
  EXPECT_TRUE(writer2_done.load());
  tree.internal_pager()->SetTestHook(nullptr);
  for (Key k : {10, 11, 12, 20, 30}) ASSERT_TRUE(tree.Search(k).ok()) << k;
  Status s = TreeChecker(&tree).CheckStructure();
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(InterleavingTest, ReaderBacktracksWhenItsKeyMovesLeft) {
  for (bool optimistic : {true, false}) {
    SCOPED_TRACE(optimistic ? "optimistic reads" : "copy reads");
    TreeOptions opt = K2();
    opt.optimistic_reads = optimistic;
    SagivTree tree(opt);
    for (Key k = 10; k <= 80; k += 10) ASSERT_TRUE(tree.Insert(k, k).ok());
    // Leaves are (0,40] and (40,+inf] under the root. Dropping the left
    // leaf to one entry makes the pair redistribute (1 + 4 > capacity 4),
    // which moves 50 into the left leaf.
    for (Key k : {20, 30, 40}) ASSERT_TRUE(tree.Delete(k).ok());
    ASSERT_EQ(tree.Height(), 2u);
    const PageId left_leaf = *tree.internal_FindNodeAtLevel(10, 0, nullptr);
    const PageId right_leaf = *tree.internal_FindNodeAtLevel(50, 0, nullptr);
    ASSERT_NE(left_leaf, right_leaf);

    // Pause the reader — and only the reader — at its get of the right
    // leaf: the root has already routed it there.
    static thread_local bool is_reader = false;
    Gate gate;
    tree.internal_pager()->SetTestHook([&](const char* op, PageId page) {
      if (is_reader) gate.MaybeBlock(op, page);
    });
    gate.Arm("get", right_leaf);
    Result<Value> found = Status::Internal("reader did not run");
    std::thread reader([&]() {
      is_reader = true;
      found = tree.Search(50);
    });
    gate.AwaitPaused();

    ScanCompressor compressor(&tree);
    compressor.FullPass();
    ASSERT_EQ(tree.stats()->Get(StatId::kRedistributions), 1u);
    ASSERT_EQ(*tree.internal_FindNodeAtLevel(50, 0, nullptr), left_leaf);
    const uint64_t restarts = tree.stats()->Get(StatId::kRestarts);
    const uint64_t backtracks = tree.stats()->Get(StatId::kBacktracks);

    // The right leaf's low value is now 50: the reader finds itself on a
    // wrong node, retries the root, and the root's new separator sends it
    // left.
    gate.Release();
    reader.join();
    tree.internal_pager()->SetTestHook(nullptr);
    ASSERT_TRUE(found.ok()) << found.status().ToString();
    EXPECT_EQ(*found, 50u);
    EXPECT_GE(tree.stats()->Get(StatId::kBacktracks), backtracks + 1);
    EXPECT_EQ(tree.stats()->Get(StatId::kRestarts), restarts);
    Status s = TreeChecker(&tree).CheckStructure();
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
}

TEST(InterleavingTest, ValidateStructureWaitsForHalfWrittenScanMerge) {
  // Only the map's pool worker may block in the hook: this thread and
  // the validator are excluded.
  static thread_local bool is_test_thread = false;
  is_test_thread = true;
  Gate gate;  // outlives the map, whose hook refers to it
  MapOptions options;
  options.tree.min_entries = 2;
  options.compression = CompressionMode::kBackgroundScan;
  ConcurrentMap map(options);

  // Descending inserts split at the midpoint, so no leaf is ever under
  // k entries and the worker finds nothing to do: [20,30,40] [50,60].
  for (Key k = 60; k >= 20; k -= 10) ASSERT_TRUE(map.Insert(k, k).ok());
  ASSERT_EQ(map.Height(), 2u);
  ASSERT_TRUE(map.Erase(30).ok());  // [20,40]: still k entries

  // The merge writes put(left), put(parent), put(right). Stop the worker
  // before put(parent): the left leaf already holds every key while the
  // parent still routes to both leaves.
  const PageId parent = map.tree()->internal_prime()->Read().root();
  map.tree()->internal_pager()->SetTestHook([&](const char* op, PageId page) {
    if (!is_test_thread) gate.MaybeBlock(op, page);
  });
  gate.Arm("put", parent);
  ASSERT_TRUE(map.Erase(50).ok());  // [60] is under-full; 2 + 1 fit one leaf
  gate.AwaitPaused();

  std::atomic<bool> returned{false};
  Status status = Status::Internal("validator did not run");
  std::thread validator([&]() {
    is_test_thread = true;
    status = map.ValidateStructure();
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_FALSE(returned.load())
      << "ValidateStructure returned while a merge was half written";
  gate.Release();
  validator.join();
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_GE(map.Stats().Get(StatId::kMerges), 1u);
}

}  // namespace
}  // namespace obtree
