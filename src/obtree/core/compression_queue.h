// Copyright 2026 The obtree Authors.
//
// The compression queue of Section 5.4. A deletion that leaves a node less
// than half full records the node here (while holding the node's lock);
// QueueCompressor workers drain it. One queue may be shared by many
// compressors (deployment (2)), owned by a single compressor (deployment
// (1)), or private to a per-deletion process (deployment (3)).
//
// Queue records are keyed by the node's page id. A record stores the
// information list of §5.4: the pointer to the node, its level, its high
// value at enqueue time, and the stack of pointers from the root to the
// node (created by movedown-and-stack). The stack carries the time stamp
// of the operation that produced it; MinStamp() feeds the §5.3 reclamation
// rule so pages referenced by queued stacks are not reused.

#ifndef OBTREE_CORE_COMPRESSION_QUEUE_H_
#define OBTREE_CORE_COMPRESSION_QUEUE_H_

#include <atomic>
#include <cstddef>
#include <map>
#include <mutex>
#include <set>
#include <vector>

#include "obtree/util/common.h"
#include "obtree/util/epoch.h"
#include "obtree/util/stats.h"

namespace obtree {

/// One node awaiting compression.
struct CompressionTask {
  PageId node = kInvalidPageId;
  uint32_t level = 0;      ///< never changes for a node
  Key high = 0;            ///< the node's high value when recorded
  Timestamp stamp = 0;     ///< start time of the op that built the stack
  std::vector<PageId> stack;  ///< root-to-parent path, deepest last
};

/// Thread-safe queue of compression tasks, at most one per node.
class CompressionQueue {
 public:
  CompressionQueue() = default;
  OBTREE_DISALLOW_COPY_AND_ASSIGN(CompressionQueue);

  /// Insert the task, or — if the node is already queued — update its
  /// recorded high value (and stamp/stack) when update_if_present is true.
  /// §5.4: a process holding the node's lock has information at least as
  /// recent as the queue's and must update; a process NOT holding the lock
  /// (requeue in case (2)) must not overwrite fresher information.
  void Push(CompressionTask task, bool update_if_present);

  /// The lock holder's Push(task, true), for a deletion that finds its leaf
  /// under-full: the task is built here, from these fields, only when it
  /// changes the queue. A node already queued with the same high value
  /// keeps its record, whose stack and stamp remain a valid pair, so a
  /// repeat deletion on a queued leaf copies no stack and rewrites nothing.
  void PushFromHolder(PageId node, uint32_t level, Key high, Timestamp stamp,
                      const std::vector<PageId>& stack);

  /// Remove and return the queued task with the highest level (footnote
  /// 17: compress parents before children). Returns false when empty.
  /// The task's stamp remains accounted in MinStamp() until FinishTask.
  bool Pop(CompressionTask* out);

  /// Declare that a popped task is no longer being worked on (its stack is
  /// dead). Must be called exactly once per successful Pop, after any
  /// requeue Push.
  void FinishTask(Timestamp stamp);

  /// Drop the record for `node` if present (e.g. the node was deleted by a
  /// merge). Returns true if something was removed.
  bool Remove(PageId node);

  bool Contains(PageId node) const;
  /// Queued tasks. Lock-free: the pool's depth probes read it every
  /// scheduling round and must not contend with deleters' Push.
  size_t Size() const { return size_.load(std::memory_order_acquire); }
  bool Empty() const { return Size() == 0; }

  /// Oldest stamp held by queued or in-flight tasks; kMaxTimestamp if none.
  /// SagivTree::AttachCompressionQueue feeds it to the tree's epoch so
  /// queued stacks hold back page reuse (Section 5.3).
  Timestamp MinStamp() const;

 private:
  mutable std::mutex mu_;
  std::map<PageId, CompressionTask> tasks_;
  std::multiset<Timestamp> in_flight_;
  std::atomic<size_t> size_{0};  ///< tasks_.size(), written under mu_
};

}  // namespace obtree

#endif  // OBTREE_CORE_COMPRESSION_QUEUE_H_
