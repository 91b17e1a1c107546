// Copyright 2026 The obtree Authors.
//
// SagivTree: the paper's primary contribution. A B-link tree supporting
// fully concurrent searches, insertions, and deletions where
//
//   * readers acquire NO locks and may read nodes locked by updaters; by
//     default they also copy no pages: the unlocked descents read node
//     headers and the one binary-search slot they need in place through
//     PageManager::OptimisticRead, validating the seqlock version before
//     trusting anything, and fall back to full-page copy-reads after
//     options().optimistic_retry_limit failed validations;
//   * an insertion holds AT MOST ONE lock at any instant (Section 3) —
//     updaters may overtake one another on the way up the tree; by
//     default the no-split/no-merge mutations also copy no pages: the
//     lock-holding writer edits the live page in place, bracketed by
//     seqlock odd/even bumps (options().inplace_writes,
//     PageManager::BeginWrite), falling back to the get/put copy cycle
//     for splits, root changes, and any op whose locked inspection
//     cannot validate against a racing page reuse;
//   * deletions remove the record from its leaf under one lock (Section 4)
//     and optionally enqueue under-full leaves for the queue-driven
//     compressor of Section 5.4;
//   * a process routed to a wrong node (possible once compressors run)
//     restarts instead of lock-coupling (Section 5.2): deleted nodes carry
//     a merge pointer, and every node stores its low value so "wrong node"
//     is detectable.
//
// Compression itself lives in ScanCompressor (Section 5.1-5.2) and
// QueueCompressor (Section 5.4); they operate on this class through the
// internal_* accessors.

#ifndef OBTREE_CORE_SAGIV_TREE_H_
#define OBTREE_CORE_SAGIV_TREE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "obtree/core/options.h"
#include "obtree/node/node.h"
#include "obtree/storage/page_manager.h"
#include "obtree/storage/prime_block.h"
#include "obtree/util/common.h"
#include "obtree/util/epoch.h"
#include "obtree/util/stats.h"
#include "obtree/util/status.h"

namespace obtree {

class CompressionQueue;
class FileStore;

/// Concurrent B-link tree with overtaking (Sagiv, 1986).
class SagivTree {
 public:
  /// Creates an empty tree (a single root leaf). Options are validated;
  /// invalid options fall back to defaults with the failure retrievable
  /// via init_status().
  explicit SagivTree(const TreeOptions& options = TreeOptions());
  ~SagivTree();
  OBTREE_DISALLOW_COPY_AND_ASSIGN(SagivTree);

  /// Status of construction (InvalidArgument if options were bad).
  const Status& init_status() const { return init_status_; }

  /// Insert (key, value). Keys must lie in [1, kMaxUserKey].
  /// Returns AlreadyExists if the key is present (tree unchanged).
  Status Insert(Key key, Value value);

  /// Insert-or-replace in ONE descent: the same single-lock insertion
  /// protocol as Insert, except that finding the key already present in
  /// the locked leaf overwrites its value (one word store in place, or
  /// the copy path's put) instead of returning AlreadyExists. Atomic:
  /// there is no window where the key is absent, and concurrent readers
  /// see either the old or the new value, never neither.
  Status Upsert(Key key, Value value);

  /// Look up a key. Returns the value or NotFound. Lock-free; with
  /// options().optimistic_reads (the default) also copy-free: the descent
  /// validates page versions instead of copying 4 KB per node visited.
  Result<Value> Search(Key key) const;

  /// Delete a key. Returns NotFound if absent. No restructuring happens
  /// here (Section 4); compression is a separate concurrent process.
  Status Delete(Key key);

  // --- batched operations ---------------------------------------------------
  //
  // The pipelined descent engine: one thread keeps up to
  // options().batch_max_inflight descents in flight as resumable
  // continuations, each round grouping them by current page, issuing the
  // group's simulated-I/O waits together (PageManager::PrefetchPages) and
  // sharing one validated read per distinct page, then advancing every
  // continuation one step. Results land in out[i] for keys[i]; per-op
  // semantics (including restart budgets and the optimistic->copy
  // fallback) are identical to the single-op calls. For the write forms
  // only the lock-free descent is pipelined — each op's locked mutation
  // then runs serially from its descent's leaf, so the locking protocol
  // (one lock per process) is untouched. `batch_stats`, when non-null,
  // receives this batch's slice of the kBatch* counters. Batches of one
  // (and trees with optimistic_reads off) take the single-op path.

  /// Batched Search: out[i] is the value for keys[i] or NotFound.
  void MultiSearch(const Key* keys, size_t n, Result<Value>* out,
                   BatchStats* batch_stats = nullptr) const;

  /// Batched Insert: out[i] as Insert(keys[i], values[i]).
  void MultiInsert(const Key* keys, const Value* values, size_t n,
                   Status* out, BatchStats* batch_stats = nullptr);

  /// Batched Delete: out[i] as Delete(keys[i]).
  void MultiDelete(const Key* keys, size_t n, Status* out,
                   BatchStats* batch_stats = nullptr);

  /// Batched Upsert: out[i] as Upsert(keys[i], values[i]).
  void MultiUpsert(const Key* keys, const Value* values, size_t n,
                   Status* out, BatchStats* batch_stats = nullptr);

  /// Visit live (key, value) pairs with lo <= key <= hi in ascending key
  /// order, following leaf links. The visitor returns false to stop early.
  /// Returns the number of pairs visited. Concurrent updates may or may
  /// not be observed (each leaf is read atomically).
  size_t Scan(Key lo, Key hi,
              const std::function<bool(Key, Value)>& visitor) const;

  /// Number of keys currently stored (exact when quiescent).
  uint64_t Size() const { return size_.load(std::memory_order_relaxed); }

  /// Current tree height in levels (1 = a lone root leaf).
  uint32_t Height() const { return prime_.Read().num_levels; }

  const TreeOptions& options() const { return options_; }
  StatsCollector* stats() const { return stats_.get(); }
  EpochManager* epoch() const { return epoch_.get(); }

  // --- persistence (options().storage_dir) --------------------------------

  /// Write a crash-consistent checkpoint of the tree to its FileStore:
  /// drains in-flight mutators (readers keep running), flushes every
  /// dirty page, and atomically commits the manifest. On OK the
  /// checkpoint is durable and contains every operation that returned
  /// before this call started (and possibly some concurrent ones).
  /// FailedPrecondition when the tree has no storage_dir.
  Status Checkpoint();

  /// True when construction found and adopted a committed checkpoint in
  /// options().storage_dir.
  bool recovered_from_checkpoint() const { return recovered_; }

  /// Epoch of the newest committed checkpoint (0 = none / not persistent).
  uint64_t checkpoint_epoch() const;

  /// The persistent backend, or nullptr for an in-memory tree.
  FileStore* file_store() const { return file_store_.get(); }

  /// Attach the compression queue that deletions feed (§5.4): a deletion
  /// that leaves a leaf under-full records it there, and the queue's
  /// stamps hold back page reuse (§5.3) until detached. A QueueCompressor
  /// must drain the queue for space to be recovered. The queue must
  /// outlive its attachment. Pass nullptr to detach; not safe to call
  /// concurrently with itself.
  void AttachCompressionQueue(CompressionQueue* queue);
  CompressionQueue* compression_queue() const {
    return queue_.load(std::memory_order_acquire);
  }

  // --- internal surface (compressors, checker, tests) ---------------------

  PageManager* internal_pager() const { return pager_.get(); }
  PrimeBlock* internal_prime() { return &prime_; }
  const PrimeBlock* internal_prime() const { return &prime_; }

  /// Descend from the root to the node at `level` where `key` belongs
  /// (low < key <= high among live nodes), following child pointers, links
  /// and merge pointers. If stack_out != nullptr, it receives the pages
  /// through which the descent came down at each level above `level`
  /// (deepest last), as produced by the paper's movedown-and-stack.
  /// Does not lock. Returns the page id, or Internal after too many
  /// restarts. Uses the optimistic in-place read path when
  /// options().optimistic_reads is set (with automatic fallback to
  /// copy-reads); callers that need the node contents re-read them under
  /// their own lock/copy discipline afterwards.
  ///
  /// If the tree currently has fewer than level+1 levels: with
  /// wait_for_level (the insertion ascent semantics of Section 3.3) the
  /// call waits for the level to appear; without it the call returns
  /// NotFound (the §5.4 "whole level deleted" probe used by compressors).
  Result<PageId> internal_FindNodeAtLevel(Key key, uint32_t level,
                                          std::vector<PageId>* stack_out,
                                          bool wait_for_level = true) const;

  /// Lock the live node at `level` whose key range contains `key`,
  /// starting the moveright from `start` (restarting from the root when
  /// routed wrong). On success the node is paper-locked and its image is
  /// in *page. Used by the insertion/deletion paths and by the queue
  /// compressor's parent search (Section 5.4).
  Result<PageId> internal_AcquireTargetNode(Key key, uint32_t level,
                                            PageId start,
                                            std::vector<PageId>* stack,
                                            int* restarts, Page* page,
                                            bool wait_for_level = true) const;

  /// Adjust the logical size counter (used by compressors never; by tests
  /// rebuilding state). Positive or negative delta.
  void internal_AdjustSize(int64_t delta) {
    size_.fetch_add(static_cast<uint64_t>(delta), std::memory_order_relaxed);
  }

  /// Record a bulk load's outcome for the append fast-path hints:
  /// `max_key` is the largest loaded key and `rightmost_leaf` the page
  /// holding it. Keeps max_key_hint_ from going stale-low (which would
  /// arm the fast path for keys below the loaded max and poison
  /// rightmost_hint_ with non-rightmost leaves) and points the first
  /// max-extending insert straight at the loaded frontier.
  void internal_NoteBulkLoad(Key max_key, PageId rightmost_leaf) {
    NoteMaxKey(max_key);
    rightmost_hint_.store(rightmost_leaf, std::memory_order_release);
  }

 private:
  // --- the descent kernel ----------------------------------------------------
  //
  // Sagiv's one traversal — movedown plus moveright with next(A, v),
  // merge-pointer recovery and restart on a wrong node (§§3, 5.2) — is
  // written once: RouteForKey classifies a node image into a Route, and
  // ApplyRoute applies a validated Route to a Descent. Every walk of the
  // tree is a loop around that pair over a page-access policy, a
  // compile-time parameter that hands the loop a NodeView:
  //
  //   * InPlaceRead: the live page via OptimisticRead + Validate (the
  //     default read path; moves no page bytes);
  //   * CopyRead: a private copy via FetchPage into the thread's copy
  //     page (optimistic_reads off, and the fallback once
  //     optimistic_retry_limit reads were discarded);
  //   * InPlaceLock / CopyLock: the locked moveright of the write paths
  //     (AcquireTarget), live-and-validated or copied.
  //
  // The policies and Route are defined in sagiv_tree.cc.
  struct Route;
  class InPlaceRead;
  class CopyRead;
  class InPlaceLock;
  class CopyLock;

  // The paper's next(A, v) evaluated on a possibly-torn image: the only
  // code that decides child / link / merge / arrived / restart. Reads only
  // header words (plus one binary search for the child case) and never
  // chases a pointer itself; the caller validates the image before
  // applying the route.
  static Route RouteForKey(const NodeView& view, Key key,
                           uint32_t target_level);

  // One descent's state: the locals of movedown + moveright, explicit so
  // the batch engine can keep many in flight.
  struct Descent {
    Descent() = default;
    Descent(Key k, uint32_t lvl, std::vector<PageId>* s)
        : key(k), level(lvl), stack(s) {}
    // Start an attempt at `from` (the root after a restart).
    void Reseed(PageId from) {
      current = from;
      previous = kInvalidPageId;
      steps = 0;
      backtracks = 0;
      if (stack != nullptr) stack->clear();
    }

    Key key = 0;
    uint32_t level = 0;                    // target level
    PageId current = kInvalidPageId;       // invalid: (re)seed at the root
    std::vector<PageId>* stack = nullptr;  // movedown stack, or null
    PageId previous = kInvalidPageId;      // node we came from (§5.2)
    bool previous_pushed = false;          // ...and it is on top of stack
    int failures = 0;    // discarded reads (optimistic_retry_limit)
    int restarts = 0;    // restarts from the root (max_restarts)
    int steps = 0;       // routing steps this attempt
    int backtracks = 0;  // §5.2 backtracks this attempt
  };

  enum class Step {
    kMoved,      // d->current is the next page to read (kTorn: the same)
    kArrived,    // d->current is the live target
    kRestart,    // counted; d->current is invalid: reseed at the root
    kAborted,    // retry budget spent: finish on the copy policy
    kExhausted,  // restart or step budget spent: the operation fails
  };
  // The status of a descent that ended in kAborted or kExhausted.
  static Status StepError(Step step);

  // The one routing step. Applies `route` to `d`: a kTorn route re-reads
  // the node against the retry budget (kOptimisticRetries); any other
  // counts kOptimisticValidations when `validated` (it came from a
  // seqlock-validated read), then follows a child (pushing the movedown
  // stack), link or merge pointer (kLinkFollows / kMergePointerFollows),
  // or handles a wrong node — first by the §5.2 backtrack to the node it
  // came from (kBacktracks, popping a stacked child edge), else by a
  // restart charged by cause against options().max_restarts.
  Step ApplyRoute(const Route& route, bool validated, Descent* d) const;

  // Runs `d` to its target level, starting at d->current or the root,
  // reading pages through `access`; on OK, d->current is the target.
  // `probe(view)` runs on the target's image under the arrival's
  // validation (the leaf value probe, the scan's harvest). `guard`, when
  // set, is refreshed on each restart. Without wait_for_level a missing
  // level is NotFound.
  template <class Access, class Probe>
  Status Descend(Access* access, Descent* d, bool wait_for_level,
                 EpochManager::Guard* guard, const Probe& probe) const;

  // Runs `op(access)` over InPlaceRead when options().optimistic_reads,
  // then over CopyRead when that is off or the in-place run returned
  // Aborted (kOptimisticFallbacks).
  template <class Op>
  auto WithReadPolicy(const Op& op) const;

  // Point lookup over one policy: descent plus leaf value probe.
  template <class Access>
  Result<Value> SearchLeaf(Access* access, Key key,
                           EpochManager::Guard* guard) const;

  // Range scan over one policy from *next_key: harvests each leaf's pairs
  // under its arrival's validation into *buf, then delivers, then moves
  // right through the leaf link. On Aborted, *next_key is the resume
  // position and *visited the pairs already delivered.
  template <class Access>
  Status ScanLeaves(Access* access, Key* next_key, Key hi,
                    const std::function<bool(Key, Value)>& visitor,
                    EpochManager::Guard* guard, size_t* visited,
                    std::vector<Entry>* buf) const;

  // Locked moveright: lock the live node at `level` in whose range `key`
  // falls, starting at `start`, through `lock`'s acquisition. On success
  // the node is paper-locked and its image is held by `lock`. A locked
  // node above the target level is a reused page (restart); a restart
  // re-descends with internal_FindNodeAtLevel, refreshing `stack`.
  template <class Lock>
  Result<PageId> AcquireTarget(Lock* lock, Key key, uint32_t level,
                               PageId start, std::vector<PageId>* stack,
                               int* restarts, bool wait_for_level) const;

  // The commits' acquisition: InPlaceLock while *inplace, falling back
  // (kInplaceFallbacks, *inplace cleared) to CopyLock into *page when its
  // validation budget runs out. *view is the locked image: the live page
  // (pinned until Unlock) or *page.
  Result<PageId> LockForCommit(Key key, uint32_t level, PageId start,
                               std::vector<PageId>* stack, int* restarts,
                               bool* inplace, Page* page,
                               const Node** view) const;

  // --- pipelined batch descent engine ---------------------------------------

  // Resumable continuation of one in-flight batch descent: its Descent
  // plus the op's final outcome. The engine advances a window of these in
  // lockstep rounds; see PipelineDescents.
  struct BatchCont {
    Descent d;                    // key, current page, budgets
    std::vector<PageId> stack;    // movedown stack (collect_stacks mode)
    std::optional<Value> value;   // leaf probe result (probe_values mode)
    Status status;                // outcome when state == kError
    enum State {
      kRunning,   // still descending
      kArrived,   // at the live level-0 target (d.current = leaf)
      kFallback,  // optimistic budget exhausted: caller runs the serial
                  // copy-path fallback for this op
      kError,     // terminal failure in `status`
    } state = kRunning;
  };

  // Advance every kRunning continuation in ops[0..n) to a terminal state
  // (level-0 arrival, fallback, or error). Each round: group the active
  // continuations by current page, issue the group's simulated-I/O waits
  // together (PageManager::PrefetchPages), perform ONE validated
  // OptimisticRead per distinct page shared by every op routed through
  // it (the sharers beyond the first count kBatchPagesCoalesced), then
  // advance each continuation by one ApplyRoute step. Requires
  // options().optimistic_reads; the caller holds the epoch guard. `bs`
  // accumulates the batch-level counters.
  void PipelineDescents(BatchCont* ops, size_t n, bool collect_stacks,
                        bool probe_values, BatchStats* bs) const;

  // Shared implementation of MultiInsert/MultiUpsert/MultiDelete:
  // pipelined descents, then per-op serial locked commits.
  enum class MutateKind { kInsert, kUpsert, kDelete };
  void MultiMutate(const Key* keys, const Value* values, size_t n,
                   Status* out, MutateKind kind, BatchStats* batch_stats);

  // --- append-optimized rightmost fast path (options().append_leaves) ----
  //
  // The hint pair below is pure optimization state: correctness never
  // depends on it. rightmost_hint_ names a page that WAS the rightmost
  // leaf at some point — and, crucially, was REACHABLE when stored: the
  // split paths publish it only after the left sibling's rewrite makes
  // the new node link-reachable (see InsertIntoUnsafe). max_key_hint_ is
  // a key that WAS >= every stored key at some point (monotone under
  // inserts, possibly stale-high after deletes — which only disarms the
  // fast path, never misroutes it; every insert-commit path, including
  // MultiMutate and BulkLoad, raises it). TryAppendFast re-establishes
  // the truth under the paper lock before touching anything — and, for
  // the one hazard the lock cannot see (a half-published frontier split
  // whose fresh right node looks live before it is link-reachable),
  // cross-checks frontier_seq_, the split-publication epoch below.

  // Attempt the rightmost-append fast path for (key, value): lock the
  // hinted page, validate under the lock that it is still the live
  // rightmost leaf (not deleted, level 0, nil link, high = +inf, not
  // full) and that `key` extends its max, then append — in place under a
  // seqlock write bracket when options().inplace_writes, via the get/put
  // copy cycle otherwise. On success sets *done and returns the insert's
  // status (kAppendFastHits). Any validation failure unlocks, counts
  // kAppendFastMisses, leaves *done false, and the caller runs the normal
  // descent. The caller holds the epoch guard and has counted kInserts.
  Status TryAppendFast(Key key, Value value, bool* done);

  // Raise max_key_hint_ to at least `key` (relaxed CAS-max).
  void NoteMaxKey(Key key);

  // Shared body of Insert (overwrite false) and Upsert (true).
  Status InsertOrOverwrite(Key key, Value value, bool overwrite);

  // The locked second half of Insert/Upsert (the Fig. 5 "repeat until
  // completed" loop), starting from a descent's level-0 result `start`
  // with its movedown stack. With `overwrite`, a key found present in
  // the locked leaf has its value replaced in the same critical section
  // (the Upsert semantics) instead of returning AlreadyExists. The
  // caller holds an epoch guard and has counted the logical op.
  Status InsertCommit(Key key, Value value, PageId start,
                      std::vector<PageId>* stack, bool overwrite);

  // The locked second half of Delete, starting from a descent's level-0
  // result `start`. `stack` (nullable) enables the §5.4 under-full
  // enqueue; `guard` supplies the compression task's timestamp. The
  // caller holds `guard` and has counted the logical op.
  Status DeleteCommit(Key key, PageId start, std::vector<PageId>* stack,
                      const EpochManager::Guard& guard);

  // Fault-tolerant page fetch for the lock-free descents: retries an
  // Unavailable Get up to options().fetch_retry_limit times with
  // exponential backoff (kFetchRetries per retry, kFetchGiveups on
  // exhaustion) before surfacing the error to the operation.
  Status FetchPage(PageId id, Page* out) const;

  // The three insertion finishers of Fig. 6. `page` is the locked image of
  // `page_id`. Either completes the logical insert or prepares (sep,
  // new_child) for the next level. All unlock `page_id` before returning.
  struct AscentState {
    bool completed = false;
    Key sep = 0;            // separator to post one level up
    PageId new_child = kInvalidPageId;
  };
  void InsertIntoSafe(Page* page, PageId page_id, Key key, uint64_t down_ptr,
                      AscentState* st);
  Status InsertIntoUnsafe(Page* page, PageId page_id, Key key,
                          uint64_t down_ptr, AscentState* st);
  Status InsertIntoUnsafeRoot(Page* page, PageId page_id, Key key,
                              uint64_t down_ptr, AscentState* st);

  // In-place finisher for the no-split case (requires a lock obtained via
  // InPlaceLock): seqlock odd, apply the entry edit to the live
  // page through relaxed atomic stores, seqlock even, unlock. One node
  // access (PageManager::BeginWrite) instead of the copy path's
  // get + put.
  void InsertIntoSafeInPlace(PageId page_id, Key key, uint64_t down_ptr,
                             AscentState* st);

  // Apply the pair insertion to a node image: a leaf insert at level 0, a
  // child-split post above.
  static void ApplyInsert(Node* node, Key key, uint64_t down_ptr);

  // Tail-biased split point (0 = midpoint) for a post-ApplyInsert node;
  // see the definition for the bias rule.
  uint32_t TailSplitKeep(const Node* node, Key key) const;

  // Recovery helper: rebuild size_ (and sanity-check reachability) by
  // walking the level-0 link chain of a freshly recovered tree. Runs
  // before any concurrency exists; fault evaluation is suppressed.
  void RecoverSizeFromLeaves();

  TreeOptions options_;
  Status init_status_;

  std::unique_ptr<StatsCollector> stats_;
  std::unique_ptr<EpochManager> epoch_;
  std::unique_ptr<FileStore> file_store_;  // before pager_: outlives it
  std::unique_ptr<PageManager> pager_;
  bool recovered_ = false;
  PrimeBlock prime_;

  std::atomic<CompressionQueue*> queue_;
  uint64_t queue_provider_ = 0;  // epoch handle of queue_'s MinStamp
  std::atomic<uint64_t> size_;

  // Append fast-path hints (see TryAppendFast). rightmost_hint_ is
  // refreshed by descents and rightmost-leaf splits; max_key_hint_ only
  // ever rises (a deleted max leaves it stale-high, which merely keeps
  // the fast path off until a larger key arrives).
  std::atomic<PageId> rightmost_hint_;
  std::atomic<Key> max_key_hint_;
  // Frontier-split publication epoch (seqlock parity protocol, but over
  // the TREE's rightmost frontier rather than a page). A split of the
  // rightmost leaf bumps this odd before the new right node B's
  // initializing put and even again after the left node's link-publishing
  // put (InsertIntoUnsafe / InsertIntoUnsafeRoot). TryAppendFast misses
  // whenever the epoch is odd or moved across its locked validation:
  // B's image is live-looking (leaf, nil link, +inf high) from its first
  // put, yet unreachable until the link lands — and page reuse can hand a
  // stale rightmost_hint_ exactly that page id, so the paper lock alone
  // cannot rule the window out. The epoch can, without a second lock:
  // any validation that observes B's image inside the window also
  // observes an odd-or-advanced epoch (B's put carries the odd bump via
  // its release/acquire page write). Insertions therefore still hold at
  // most one lock, the paper's Section 3 claim.
  std::atomic<uint64_t> frontier_seq_;
};

}  // namespace obtree

#endif  // OBTREE_CORE_SAGIV_TREE_H_
