// Copyright 2026 The obtree Authors.
//
// The queue-driven compression process of Section 5.4. Deletions that
// leave a leaf under-full enqueue it; a QueueCompressor removes a node
// from the queue, locates its parent F (via the recorded stack, falling
// back to a root descent), verifies F still holds the recorded (pointer,
// high value) pair, locks the node and one of its neighbors, and merges or
// redistributes. Under-full survivors (including F) are put back on the
// queue, so compression cascades up the tree; a root left with a single
// child is collapsed.
//
// All three deployments of §5.4 are expressible:
//   (1) one compressor owning one queue (a BackgroundPool of one worker);
//   (2) several compressors sharing one queue (a pool of several);
//   (3) a private queue per deletion burst (construct ad hoc and Drain).

#ifndef OBTREE_CORE_QUEUE_COMPRESSOR_H_
#define OBTREE_CORE_QUEUE_COMPRESSOR_H_

#include <cstddef>

#include "obtree/core/compression_queue.h"
#include "obtree/core/rearrange.h"
#include "obtree/core/sagiv_tree.h"
#include "obtree/util/common.h"

namespace obtree {

/// Worker that drains a CompressionQueue.
class QueueCompressor {
 public:
  /// Neither pointer is owned; both must outlive the compressor. The queue
  /// should be attached to the tree (SagivTree::AttachCompressionQueue) so
  /// deletions feed it and its stacks block page reuse.
  QueueCompressor(SagivTree* tree, CompressionQueue* queue)
      : tree_(tree), queue_(queue) {}
  OBTREE_DISALLOW_COPY_AND_ASSIGN(QueueCompressor);

  /// Outcome of processing one queue entry.
  enum class Outcome {
    kQueueEmpty,   ///< nothing to pop
    kRestructured, ///< a merge or redistribution (or root collapse) ran
    kDropped,      ///< entry was stale; discarded (§5.4 discard rule)
    kRequeued,     ///< entry put back for later (separator not posted yet)
    kNothing,      ///< node turned out to be >= half full (footnote 15)
  };

  /// Pop one node and attempt to compress it.
  Outcome CompressOne();

  /// Drain the queue until it is empty or `max_stall` consecutive attempts
  /// make no progress (every attempt requeues). Returns the number of
  /// restructurings performed.
  size_t Drain(int max_stall = 256);

 private:
  Outcome ProcessTask(CompressionTask task);

  SagivTree* tree_;
  CompressionQueue* queue_;
};

}  // namespace obtree

#endif  // OBTREE_CORE_QUEUE_COMPRESSOR_H_
