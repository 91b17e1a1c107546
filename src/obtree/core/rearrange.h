// Copyright 2026 The obtree Authors.
//
// The three-node restructuring step shared by ScanCompressor (Section
// 5.1-5.2) and QueueCompressor (Section 5.4): given a parent F and two
// adjacent children (left, right), all three paper-locked, either merge
// right into left (combined <= 2k entries) or redistribute so both hold
// >= k. Rewrites follow the order the paper's acknowledgment prescribes —
// the child that GAINS data first, then the parent, then the other child —
// and each node is unlocked immediately after it is rewritten.

#ifndef OBTREE_CORE_REARRANGE_H_
#define OBTREE_CORE_REARRANGE_H_

#include <cstdint>
#include <vector>

#include "obtree/core/compression_queue.h"
#include "obtree/core/sagiv_tree.h"
#include "obtree/storage/page.h"
#include "obtree/util/common.h"

namespace obtree {

/// Where under-full survivors of a rearrangement should be recorded
/// (queue-driven deployments of Section 5.4). All fields optional.
struct RearrangeContext {
  /// Queue for under-full survivors; nullptr = scan mode (no enqueue).
  CompressionQueue* queue = nullptr;
  /// Root-to-parent(left) path used to build requeue stacks. May be null.
  const std::vector<PageId>* stack = nullptr;
  /// Stamp protecting `stack` (Section 5.3).
  Timestamp stamp = 0;
  /// ABLATION ONLY (experiment E10): when false, rewrite parent-first
  /// instead of gaining-child-first. This deliberately violates the
  /// paper's ordering rule ("the child which gains new data should be
  /// rewritten first, then the parent and the other child") and opens a
  /// window in which a concurrent reader can miss a key that is present
  /// in the tree. Never disable outside the ablation bench.
  bool paper_write_order = true;
};

/// Outcome of RearrangePair.
struct RearrangeResult {
  bool merged = false;          ///< right was absorbed into left & deleted
  bool redistributed = false;   ///< entries moved, both now >= k
  /// F is the root and now has a single child: the caller should attempt
  /// a root collapse (TryCollapseRoot).
  bool root_may_collapse = false;
};

/// Perform the rearrangement. Preconditions (all verified by the caller
/// while holding the three locks):
///   * `f_page` is locked; *f is its image; f->entry(idx) points to
///     `left_page` and f->entry(idx+1) points to `right_page`;
///   * `left_page` and `right_page` are locked; *left / *right are their
///     images; left->link == right_page.
/// If neither child is under-full, unlocks all three and reports neither
/// merged nor redistributed. Otherwise performs the merge/redistribution,
/// writes and unlocks in paper order, retires the deleted page, and
/// updates `ctx.queue` (remove the dead node; requeue under-full
/// survivors while their locks are held).
RearrangeResult RearrangePair(SagivTree* tree, Page* f, PageId f_page,
                              uint32_t idx, Page* left, PageId left_page,
                              Page* right, PageId right_page,
                              const RearrangeContext& ctx);

/// Collapse single-child root chains: while the root is a nonleaf with one
/// entry whose child is the sole node of its level, make that child (or
/// the deepest such descendant) the new root, mark the abandoned chain
/// deleted, and rewrite the prime block (Section 5.4 root special case).
/// Safe to call concurrently with all other operations. Returns the number
/// of levels removed.
size_t TryCollapseRoot(SagivTree* tree);

/// Queue an under-full node while its lock is held (§5.4: "the current
/// lock on A must be kept by the process until it puts A on the queue"),
/// overwriting any older record. `stack` is the root-to-parent path.
void EnqueueUnderfull(CompressionQueue* queue, StatsCollector* stats,
                      PageId page, const Node& node,
                      std::vector<PageId> stack, Timestamp stamp);

}  // namespace obtree

#endif  // OBTREE_CORE_REARRANGE_H_
