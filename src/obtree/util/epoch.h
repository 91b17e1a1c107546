// Copyright 2026 The obtree Authors.
//
// Timestamp-based deferred reclamation, implementing the node-release rule
// of Section 5.3 of the paper:
//
//   "A node that becomes empty at time t can be released when all active
//    searches, insertions, and deletions have started after time t, and
//    the stacks of the nodes that are either currently being compressed or
//    are on the queue (or queues) have only time stamps that are younger
//    than t."
//
// EpochManager maintains a logical clock. Retirement is the only thing that
// advances it on the data path: PageManager::Retire stamps a deleted page
// with the clock value *before* its advance, and the page may be reused once
// MinActive() exceeds that stamp. Every logical operation pins its start
// time for its duration (Guard). A pin is a clock load, a seq_cst store to
// an entry on the calling thread's own cache line, and a re-check of the
// clock; it performs no shared read-modify-write. Start times are therefore
// not unique: operations that start between two retirements share one.
//
// Pin entries live in a process-wide registry of per-thread records. A
// thread claims a record the first time it pins (on any manager) and
// releases it when it exits; each Guard takes a free entry in its thread's
// record and tags it with its manager. MinActive() and ActiveCount() scan
// the claimed records for entries tagged with `this`. Compression queues
// register an external min-timestamp provider so their stored stacks also
// hold back reclamation.
//
// Why the re-check suffices: a scan that misses a pin's store precedes that
// store in the seq_cst order, so the pin's re-check follows every retirement
// whose advance preceded the scan and reads the advanced clock. The pin then
// moves to the new value and cannot see those pages (each was unlinked
// before its advance). A reclaimer therefore judges only retirements
// stamped below a clock value it read before the scan (PageManager's
// reclaim horizon).

#ifndef OBTREE_UTIL_EPOCH_H_
#define OBTREE_UTIL_EPOCH_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>

#include "obtree/util/common.h"

namespace obtree {

namespace epoch_internal {
struct PinEntry;  // one pin in a thread's record (defined in epoch.cc)
}  // namespace epoch_internal

/// Logical clock + active-operation registry.
class EpochManager {
 public:
  /// Capacity of the process-wide pin registry, in thread records: at most
  /// this many threads hold pins at once (a further thread waits for one
  /// to exit).
  static constexpr int kMaxSlots = 512;
  /// Guards one thread may hold at once, across all managers. Exceeding it
  /// is a programming error and aborts.
  static constexpr int kPinsPerThread = 8;

  EpochManager();
  OBTREE_DISALLOW_COPY_AND_ASSIGN(EpochManager);

  /// Current logical time.
  Timestamp Now() const { return clock_.load(std::memory_order_seq_cst); }

  /// Advance the clock and return the new (unique, increasing) time. Used
  /// to stamp retirements and grace-period fences.
  Timestamp Advance() {
    return clock_.fetch_add(1, std::memory_order_seq_cst) + 1;
  }

  /// RAII pin of an operation's start time. While a Guard lives, no page
  /// retired at or after its start time is reclaimed. A Guard must be
  /// released on the thread that created it.
  class Guard {
   public:
    explicit Guard(EpochManager* mgr);
    ~Guard();
    OBTREE_DISALLOW_COPY_AND_ASSIGN(Guard);

    /// The pinned start time of this operation.
    Timestamp start_time() const { return start_; }

    /// Re-pin at the current time. Used when an operation restarts from
    /// scratch and may legally observe a fresher tree.
    void Refresh();

   private:
    EpochManager* mgr_;
    epoch_internal::PinEntry* entry_;
    Timestamp start_;
  };

  /// Smallest start time among active operations and external providers;
  /// kMaxTimestamp when nothing is active. Pages retired strictly before
  /// this value are safe to reuse.
  Timestamp MinActive() const;

  /// Register a callback that reports the minimum timestamp still live in
  /// an external structure (e.g. a compression queue's stored stacks). The
  /// callback must return kMaxTimestamp when the structure holds nothing.
  /// Returns a nonzero handle for UnregisterExternalMinProvider.
  uint64_t RegisterExternalMinProvider(std::function<Timestamp()> provider);

  /// Stop consulting a provider. On return no MinActive() call is still
  /// running it, so the structure it reads may be destroyed.
  void UnregisterExternalMinProvider(uint64_t handle);

  /// Number of currently pinned operations (for tests / introspection).
  int ActiveCount() const;

 private:
  // Publish a start time in `entry` (store, then clock re-check until the
  // two agree) and return it.
  Timestamp Pin(epoch_internal::PinEntry* entry) const;

  std::atomic<Timestamp> clock_;

  mutable std::mutex providers_mu_;
  std::map<uint64_t, std::function<Timestamp()>> providers_;
  uint64_t next_provider_ = 1;
};

}  // namespace obtree

#endif  // OBTREE_UTIL_EPOCH_H_
