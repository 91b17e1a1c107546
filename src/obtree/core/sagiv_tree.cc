// Copyright 2026 The obtree Authors.

#include "obtree/core/sagiv_tree.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <thread>

#include "obtree/core/compression_queue.h"
#include "obtree/storage/file_store.h"

namespace obtree {

namespace {

// Hard bound on pointer-chasing steps in a single descent attempt. A valid
// tree never approaches this; it converts corruption into Status::Internal
// instead of a hang.
constexpr int kMaxStepsPerAttempt = 1 << 22;

// §5.2 backtracks allowed per descent attempt before a wrong node costs a
// restart from the root.
constexpr int kMaxBacktracksPerAttempt = 4;

// The status of an operation result, for the read-policy fallback test.
const Status& StatusOf(const Status& s) { return s; }
template <class T>
const Status& StatusOf(const Result<T>& r) {
  return r.status();
}

// Per-thread scratch of the scan: its harvest buffer. One instance per
// thread instead of per call; the in_use flag hands reentrant calls (a
// visitor that scans the same tree) a local buffer instead.
struct TlReadBuffers {
  std::vector<Entry> entries;
  bool in_use = false;
};
thread_local TlReadBuffers tl_read_buffers;

// The copy read policy's page image, one per thread (a fresh 4 KB page per
// call costs a cache-cold write-back, and a page in the caller's frame
// moves its other locals). An image lives only from its read to the end
// of that routing step (Descend keeps nothing of it), so reentrant reads —
// a scan visitor that searches — may share it. Page-aligned: a copy
// stalls on false 4 KB store-load aliasing when its destination sits just
// above its source modulo 4 KB, and a fixed destination offset makes that
// depend only on the source slot, not on the caller's stack depth.
alignas(kPageSize) thread_local Page tl_copy_page;

// Claims the thread-local buffers for the current call if free.
class TlReadBuffersLease {
 public:
  TlReadBuffersLease() : claimed_(!tl_read_buffers.in_use) {
    if (claimed_) tl_read_buffers.in_use = true;
  }
  ~TlReadBuffersLease() {
    if (claimed_) tl_read_buffers.in_use = false;
  }
  bool claimed() const { return claimed_; }

 private:
  bool claimed_;
};

// Per-thread descent stack shared by Insert/Delete: the movedown stack
// was a heap allocation on every mutation otherwise. Same reentrancy
// discipline as TlReadBuffers — a nested mutation (e.g. an Insert issued
// from a Scan visitor) gets a plain local vector instead.
struct TlWriteBuffers {
  std::vector<PageId> stack;
  bool in_use = false;
};
thread_local TlWriteBuffers tl_write_buffers;

// Hands out the thread-local descent stack (cleared) if free, else the
// caller-provided fallback.
class TlStackLease {
 public:
  explicit TlStackLease(std::vector<PageId>* fallback)
      : claimed_(!tl_write_buffers.in_use),
        stack_(claimed_ ? &tl_write_buffers.stack : fallback) {
    if (claimed_) tl_write_buffers.in_use = true;
    stack_->clear();
  }
  ~TlStackLease() {
    if (claimed_) tl_write_buffers.in_use = false;
  }
  std::vector<PageId>* stack() const { return stack_; }

 private:
  bool claimed_;
  std::vector<PageId>* stack_;
};

}  // namespace

SagivTree::SagivTree(const TreeOptions& options)
    : options_(options),
      init_status_(options.Validate()),
      stats_(new StatsCollector()),
      epoch_(new EpochManager()),
      queue_(nullptr),
      size_(0),
      rightmost_hint_(kInvalidPageId),
      max_key_hint_(kMinusInfinity),
      frontier_seq_(0) {
  if (!init_status_.ok()) options_ = TreeOptions();
  if (!options_.storage_dir.empty()) {
    Result<std::unique_ptr<FileStore>> store =
        FileStore::Open(options_.storage_dir);
    if (store.ok()) {
      file_store_ = std::move(*store);
    } else {
      // Record the failure and degrade to an in-memory tree; callers that
      // need durability check init_status() (ConcurrentMap surfaces it).
      init_status_ = store.status();
    }
  }
  pager_ = std::make_unique<PageManager>(epoch_.get(), stats_.get(),
                                         file_store_.get(),
                                         options_.buffer_pool_pages);
  pager_->set_simulated_io_ns(options_.simulated_io_ns);
  pager_->set_lock_spin_budget(options_.lock_spin_budget);
  pager_->set_lock_backoff_max(options_.lock_backoff_max);

  if (file_store_ != nullptr && file_store_->has_checkpoint()) {
    // Adopt the committed checkpoint instead of building a fresh root.
    const StoreMeta& meta = file_store_->recovered_meta();
    pager_->RestoreFromMeta(meta);
    PrimeBlockData pb;
    pb.num_levels = static_cast<uint32_t>(meta.leftmost.size());
    for (size_t i = 0; i < meta.leftmost.size() && i < kMaxLevels; ++i) {
      pb.leftmost[i] = meta.leftmost[i];
    }
    prime_.Write(pb);
    internal_NoteBulkLoad(meta.max_key, meta.rightmost_leaf);
    // The manifest's tree_size can be off by operations whose size bump
    // had not landed when the checkpoint barrier cut; the leaf chain is
    // the authority.
    RecoverSizeFromLeaves();
    recovered_ = true;
    stats_->Add(StatId::kRecoveries);
    return;
  }

  // An empty tree is a single root leaf covering (-inf, +inf].
  Result<PageId> root = pager_->Allocate();
  assert(root.ok());
  Page page;
  page.Clear();
  Node* node = page.As<Node>();
  node->Init(/*lvl=*/0, kMinusInfinity, kPlusInfinity, kInvalidPageId);
  node->set_root(true);
  pager_->Put(*root, page);

  PrimeBlockData pb;
  pb.num_levels = 1;
  pb.leftmost[0] = *root;
  prime_.Write(pb);
  rightmost_hint_.store(*root, std::memory_order_release);
}

void SagivTree::RecoverSizeFromLeaves() {
  // Single-threaded (construction); suppress fault evaluation so an armed
  // injector cannot fail the recovery walk.
  FaultInjector::ScopedExemption exempt;
  const PrimeBlockData pb = prime_.Read();
  if (pb.num_levels == 0) return;
  uint64_t keys = 0;
  Page page;
  PageId id = pb.leftmost[0];
  PageId rightmost = id;
  // The frontier bounds the walk: a manifest naming more pages than the
  // arena holds would already have failed RestoreFromMeta's chunk setup,
  // and a link cycle (corruption) must not hang construction.
  const size_t max_steps = pager_->allocated_pages() + 1;
  for (size_t steps = 0; id != kInvalidPageId && steps < max_steps; ++steps) {
    if (!pager_->Get(id, &page).ok()) break;
    const Node* node = page.As<Node>();
    if (!node->is_deleted()) keys += node->count;
    rightmost = id;
    id = node->link;
  }
  size_.store(keys, std::memory_order_relaxed);
  rightmost_hint_.store(rightmost, std::memory_order_release);
}

Status SagivTree::Checkpoint() {
  return pager_->Checkpoint([this](StoreMeta* meta) {
    const PrimeBlockData pb = prime_.Read();
    meta->leftmost.assign(pb.leftmost, pb.leftmost + pb.num_levels);
    meta->tree_size = size_.load(std::memory_order_relaxed);
    meta->max_key = max_key_hint_.load(std::memory_order_relaxed);
    meta->rightmost_leaf = rightmost_hint_.load(std::memory_order_relaxed);
  });
}

uint64_t SagivTree::checkpoint_epoch() const {
  return file_store_ != nullptr ? file_store_->checkpoint_epoch() : 0;
}

SagivTree::~SagivTree() = default;

void SagivTree::AttachCompressionQueue(CompressionQueue* queue) {
  // The new queue's stamps count before any deletion can reach it; the
  // old queue's stop counting only once it is no longer published.
  const uint64_t old_provider = queue_provider_;
  queue_provider_ =
      queue == nullptr ? 0
                       : epoch_->RegisterExternalMinProvider(
                             [queue] { return queue->MinStamp(); });
  queue_.store(queue, std::memory_order_release);
  if (old_provider != 0) epoch_->UnregisterExternalMinProvider(old_provider);
}

// ---------------------------------------------------------------------------
// The descent kernel
// ---------------------------------------------------------------------------

// Where a descent proceeds from one node, as classified from a node image.
// kTorn marks an image too inconsistent to classify (e.g. ChildFor fell
// off the entries): the reader re-reads the node instead of acting. It is
// also the default so an unstable guard (put in flight) takes the same
// re-read path.
struct SagivTree::Route {
  enum Kind {
    kArrived,               // node is the live target: level + range match
    kChild,                 // descend into `next`
    kLink,                  // moveright through `next`
    kMerge,                 // deleted node: recover through merge pointer
    kRestartStale,          // wrong node (level/low): restart from the root
    kRestartRightmost,      // nil link but key > high: restart
    kRestartNoMergeTarget,  // deleted, merge pointer not posted: restart
    kTorn,                  // image inconsistent: re-read this node
  } kind = kTorn;
  PageId next = kInvalidPageId;
};

SagivTree::Route SagivTree::RouteForKey(const NodeView& view, Key key,
                                        uint32_t target_level) {
  Route r;
  if (view.is_deleted()) {
    const PageId target = view.merge_target();
    if (target == kInvalidPageId) {
      r.kind = Route::kRestartNoMergeTarget;
    } else {
      r.kind = Route::kMerge;
      r.next = target;
    }
    return r;
  }
  if (view.level() < target_level || key <= view.low()) {
    r.kind = Route::kRestartStale;
    return r;
  }
  if (key > view.high()) {
    const PageId link = view.link();
    if (link == kInvalidPageId) {
      r.kind = Route::kRestartRightmost;
    } else {
      r.kind = Route::kLink;
      r.next = link;
    }
    return r;
  }
  if (view.level() == target_level) {
    r.kind = Route::kArrived;
    return r;
  }
  const PageId child = view.ChildFor(key);
  if (child == kInvalidPageId) {
    r.kind = Route::kTorn;  // count ran out mid-rewrite
    return r;
  }
  r.kind = Route::kChild;
  r.next = child;
  return r;
}

inline SagivTree::Step SagivTree::ApplyRoute(const Route& route,
                                             bool validated,
                                             Descent* d) const {
  if (route.kind == Route::kTorn) {
    // Nothing read may be trusted: re-read the same node, within budget.
    stats_->Add(StatId::kOptimisticRetries);
    if (++d->failures > options_.optimistic_retry_limit) return Step::kAborted;
    return Step::kMoved;
  }
  if (validated) stats_->Add(StatId::kOptimisticValidations);
  if (++d->steps > kMaxStepsPerAttempt) return Step::kExhausted;
  StatId cause = StatId::kRestartsRightmostStale;
  switch (route.kind) {
    case Route::kArrived:
      return Step::kArrived;
    case Route::kChild:
    case Route::kLink:
      // movedown stacks the node it leaves; either edge is a backtrack
      // point for the node it leads to.
      d->previous_pushed = route.kind == Route::kChild && d->stack != nullptr;
      if (d->previous_pushed) d->stack->push_back(d->current);
      if (route.kind == Route::kLink) stats_->Add(StatId::kLinkFollows);
      d->previous = d->current;
      d->current = route.next;
      return Step::kMoved;
    case Route::kMerge:
      stats_->Add(StatId::kMergePointerFollows);
      d->current = route.next;
      return Step::kMoved;
    case Route::kRestartStale:
    case Route::kRestartNoMergeTarget:
      // §5.2 backtrack: a wrong node (data moved left, or a deleted node
      // whose merge pointer is not posted yet) is first retried from the
      // node we came through, which re-evaluates next(A, v) against its
      // fresh contents; only if that keeps routing us wrong do we restart
      // at the root.
      if (d->previous != kInvalidPageId &&
          d->backtracks < kMaxBacktracksPerAttempt) {
        ++d->backtracks;
        stats_->Add(StatId::kBacktracks);
        if (d->previous_pushed) d->stack->pop_back();
        d->current = d->previous;
        d->previous = kInvalidPageId;
        return Step::kMoved;
      }
      cause = route.kind == Route::kRestartStale
                  ? StatId::kRestartsStaleNode
                  : StatId::kRestartsMissingMergeTarget;
      break;
    case Route::kRestartRightmost:
    case Route::kTorn:
      break;
  }
  stats_->Add(StatId::kRestarts);
  stats_->Add(cause);
  if (++d->restarts > options_.max_restarts) return Step::kExhausted;
  d->current = kInvalidPageId;
  return Step::kRestart;
}

Status SagivTree::StepError(Step step) {
  return step == Step::kAborted
             ? Status::Aborted("optimistic retry budget exhausted")
             : Status::Internal("descent exceeded its restart or step budget");
}

// Page-access policy: the live page, read in place under a seqlock version
// that Validate() re-checks. Moves no page bytes.
class SagivTree::InPlaceRead {
 public:
  static constexpr bool kValidated = true;
  using Image = PageManager::ReadGuard;
  explicit InPlaceRead(const SagivTree* tree) : pager_(tree->pager_.get()) {}
  // Never fails: a failed read surfaces as an unstable guard (a torn
  // route).
  bool Read(PageId id, Image* image, Status* /*error*/) const {
    *image = pager_->OptimisticRead(id);
    return true;
  }

 private:
  const PageManager* pager_;
};

// Page-access policy: a private copy of the page (one 4 KB Get, with
// FetchPage's retries). A copy is always consistent, so it needs no
// validation. The copy lands in this thread's tl_copy_page.
class SagivTree::CopyRead {
 public:
  static constexpr bool kValidated = false;
  struct Image {
    const Page* copy = nullptr;
    bool stable() const { return true; }
    const Page* page() const { return copy; }
    bool Validate() const { return true; }
  };
  explicit CopyRead(const SagivTree* tree) : tree_(tree) {}
  bool Read(PageId id, Image* image, Status* error) const {
    image->copy = &tl_copy_page;
    *error = tree_->FetchPage(id, &tl_copy_page);
    return error->ok();
  }

 private:
  const SagivTree* tree_;
};

template <class Access, class Probe>
Status SagivTree::Descend(Access* access, Descent* d, bool wait_for_level,
                          EpochManager::Guard* guard,
                          const Probe& probe) const {
  int waits = 0;
  Status error;
  for (;;) {
    if (d->current == kInvalidPageId) {
      const PrimeBlockData pb = prime_.Read();
      if (pb.num_levels <= d->level) {
        if (!wait_for_level) return Status::NotFound("level does not exist");
        // Section 3.3: a split outran the creation of the level it must
        // post to (or the level was collapsed and will be regrown by a
        // pending insertion). Wait for the prime block to show the level.
        if (++waits > options_.max_restarts) {
          return Status::Internal("level never appeared");
        }
        std::this_thread::yield();
        continue;
      }
      d->Reseed(pb.root());
    }
    // The image is a local of this loop, never the policy's state: that
    // keeps the per-node read in registers on the hot path.
    typename Access::Image image;
    if (!access->Read(d->current, &image, &error)) return error;
    Route route;  // kTorn: also the unstable-guard case
    if (image.stable()) {
      const NodeView view(image.page()->template As<Node>());
      route = RouteForKey(view, d->key, d->level);
      // Probe the target under the same version as the routing decision:
      // one validation covers both.
      if (route.kind == Route::kArrived) probe(view);
      // Nothing read above may be trusted until the version validates; in
      // particular route.next is followed only on a clean check.
      if (route.kind != Route::kTorn && !image.Validate()) {
        route.kind = Route::kTorn;
      }
    }
    const Step step = ApplyRoute(route, Access::kValidated, d);
    switch (step) {
      case Step::kArrived:
        return Status::OK();
      case Step::kAborted:
      case Step::kExhausted:
        return StepError(step);
      case Step::kRestart:
        // Re-pin: a restarted search may legally observe a fresher tree,
        // and releasing the old pin lets reclamation advance (§5.3).
        if (guard != nullptr) guard->Refresh();
        break;
      case Step::kMoved:
        break;
    }
  }
}

template <class Op>
auto SagivTree::WithReadPolicy(const Op& op) const {
  if (options_.optimistic_reads) {
    InPlaceRead in_place(this);
    auto r = op(&in_place);
    if (!StatusOf(r).IsAborted()) return r;
    stats_->Add(StatId::kOptimisticFallbacks);
  }
  CopyRead copy(this);
  return op(&copy);
}

Status SagivTree::FetchPage(PageId id, Page* out) const {
  Status s = pager_->Get(id, out);
  if (s.ok()) return s;
  // Transient fetch failure (injected today; a real PageStore's I/O error
  // tomorrow): bounded retry with exponential backoff before surfacing
  // Unavailable to the operation. Only the lock-free descents come through
  // here — locked fetches cannot fail (see PageManager::Get).
  for (int attempt = 0; attempt < options_.fetch_retry_limit; ++attempt) {
    stats_->Add(StatId::kFetchRetries);
    const uint32_t base = options_.fetch_retry_backoff_us;
    if (base > 0) {
      const int shift = attempt < 6 ? attempt : 6;
      std::this_thread::sleep_for(
          std::chrono::microseconds(static_cast<uint64_t>(base) << shift));
    }
    s = pager_->Get(id, out);
    if (s.ok()) return s;
  }
  stats_->Add(StatId::kFetchGiveups);
  return s;
}

Result<PageId> SagivTree::internal_FindNodeAtLevel(
    Key key, uint32_t level, std::vector<PageId>* stack_out,
    bool wait_for_level) const {
  return WithReadPolicy([&](auto* access) {
    Descent d(key, level, stack_out);
    Status s = Descend(access, &d, wait_for_level, /*guard=*/nullptr,
                       [](const NodeView&) {});
    return s.ok() ? Result<PageId>(d.current) : Result<PageId>(std::move(s));
  });
}

// ---------------------------------------------------------------------------
// Search and Scan
// ---------------------------------------------------------------------------

Result<Value> SagivTree::Search(Key key) const {
  if (key < 1 || key > kMaxUserKey) {
    return Status::InvalidArgument("key out of range");
  }
  stats_->Add(StatId::kSearches);
  EpochManager::Guard guard(epoch_.get());
  return WithReadPolicy(
      [&](auto* access) { return SearchLeaf(access, key, &guard); });
}

template <class Access>
Result<Value> SagivTree::SearchLeaf(Access* access, Key key,
                                    EpochManager::Guard* guard) const {
  Descent d(key, /*level=*/0, /*stack=*/nullptr);
  std::optional<Value> value;
  Status s =
      Descend(access, &d, /*wait_for_level=*/true, guard,
              [&](const NodeView& view) { value = view.FindLeafValue(key); });
  if (!s.ok()) return s;
  if (!value.has_value()) return Status::NotFound();
  return *value;
}

size_t SagivTree::Scan(Key lo, Key hi,
                       const std::function<bool(Key, Value)>& visitor) const {
  if (lo < 1) lo = 1;
  if (hi > kMaxUserKey) hi = kMaxUserKey;
  if (lo > hi) return 0;
  stats_->Add(StatId::kSearches);
  EpochManager::Guard guard(epoch_.get());

  // Reuse the thread-local harvest buffer across leaves and calls.
  TlReadBuffersLease lease;
  std::vector<Entry> local_entries;
  std::vector<Entry>* buf =
      lease.claimed() ? &tl_read_buffers.entries : &local_entries;
  buf->reserve(Node::kMaxEntries);
  size_t visited = 0;
  Key next_key = lo;
  WithReadPolicy([&](auto* access) {
    return ScanLeaves(access, &next_key, hi, visitor, &guard, &visited, buf);
  });
  return visited;
}

template <class Access>
Status SagivTree::ScanLeaves(Access* access, Key* next_key, Key hi,
                             const std::function<bool(Key, Value)>& visitor,
                             EpochManager::Guard* guard, size_t* visited,
                             std::vector<Entry>* buf) const {
  Descent d(*next_key, /*level=*/0, /*stack=*/nullptr);
  for (;;) {
    // Position at the leaf covering next_key, harvesting its pairs in
    // [next_key, hi] under the routing decision's version: the visitor
    // never sees an unvalidated pair.
    Key high = 0;
    PageId link = kInvalidPageId;
    Status s = Descend(
        access, &d, /*wait_for_level=*/true, guard, [&](const NodeView& view) {
          buf->clear();
          high = view.high();
          link = view.link();
          const uint32_t n = view.count();
          for (uint32_t i = view.LowerBound(d.key); i < n; ++i) {
            const Key k = view.entry_key(i);
            if (k > hi) break;
            buf->push_back(Entry{k, view.entry_value(i)});
          }
        });
    if (!s.ok()) {
      // Aborted propagates to the copy fallback; a hard failure ends the
      // scan with what was delivered.
      return s.IsAborted() ? s : Status::OK();
    }
    for (const Entry& e : *buf) {
      ++*visited;
      if (!visitor(e.key, e.value)) return Status::OK();
    }
    if (high >= hi || high == kPlusInfinity) return Status::OK();
    *next_key = d.key = high + 1;
    // Move right along the leaf level: the next positioning starts at the
    // link, whose routing re-checks that it covers next_key (a nil link
    // re-descends from the root). The steps bound is per positioning.
    d.steps = 0;
    if (link == kInvalidPageId) {
      d.current = kInvalidPageId;
    } else {
      ApplyRoute(Route{Route::kLink, link}, /*validated=*/false, &d);
    }
  }
}

// ---------------------------------------------------------------------------
// Locked moveright (the write paths' target acquisition)
// ---------------------------------------------------------------------------

// Locked access for the copy write path (and compressor parent searches):
// a blocking Lock, then a copy of the locked image into *page (locked
// fetches cannot fail: fault errors target lock-free readers only).
class SagivTree::CopyLock {
 public:
  CopyLock(const SagivTree* tree, Page* page)
      : pager_(tree->pager_.get()), page_(page) {}
  Route Acquire(const Descent& d, bool* locked) {
    pager_->Lock(d.current);
    pager_->Get(d.current, page_);
    *locked = true;
    return RouteForKey(NodeView(page_->As<Node>()), d.key, d.level);
  }

 private:
  PageManager* pager_;
  Page* page_;
};

// Locked access for the in-place write path: locks the live node WITHOUT
// copying its page, using a contention-aware acquisition.
class SagivTree::InPlaceLock {
 public:
  explicit InPlaceLock(const SagivTree* tree) : pager_(tree->pager_.get()) {}
  Route Acquire(const Descent& d, bool* locked) {
    *locked = false;
    // A bounded test-and-test-and-set spin (TryLockSpin) first. When the
    // lock stays contended through the spin budget, the holder is
    // mutating THIS node right now — quite possibly splitting a hot leaf,
    // after which this node is the wrong target anyway. So before
    // parking, re-route optimistically from the live image: a link/merge
    // hop or a restart discovered here costs one node access and zero
    // sleeps, where blocking first would park the writer, wake it into a
    // stale target, and restart it anyway (the convoy + restart-storm
    // pattern this discipline exists to break). Only a node that still
    // looks like the target is worth the parking Lock.
    if (!pager_->TryLockSpin(d.current)) {
      const PageManager::ReadGuard peek = pager_->OptimisticRead(d.current);
      Route reroute;  // kTorn when unstable/unvalidated: no usable signal
      if (peek.stable()) {
        reroute = RouteForKey(NodeView(peek.page()->As<Node>()), d.key,
                              d.level);
        if (!peek.Validate()) reroute.kind = Route::kTorn;
      }
      // kArrived (still the target), kChild (reused as a higher-level
      // node — let the locked inspection classify it) or kTorn: wait for
      // the holder. Anything else is acted on without the lock.
      if (reroute.kind != Route::kArrived && reroute.kind != Route::kChild &&
          reroute.kind != Route::kTorn) {
        return reroute;
      }
      pager_->Lock(d.current);
    }
    *locked = true;
    // Inspect the live page without copying it. The paper lock excludes
    // every mutator EXCEPT the reuse pipeline of a stale page (Retire ->
    // Allocate zeroing -> initializing Put run without it), so reads stay
    // atomic-and-validated until the image proves live; from then on the
    // lock alone pins the node. Every peek counts as a node access,
    // exactly like the optimistic descents.
    const PageManager::ReadGuard g = pager_->PeekLocked(d.current);
    Route route;
    if (g.stable()) {
      live_ = g.page()->As<Node>();
      route = RouteForKey(NodeView(live_), d.key, d.level);
      if (route.kind != Route::kTorn && !g.Validate()) {
        route.kind = Route::kTorn;
      }
    }
    return route;
  }
  // The arrived target's live image: pinned by the lock, so plain reads of
  // it are safe until Unlock.
  const Node* live() const { return live_; }

 private:
  PageManager* pager_;
  const Node* live_ = nullptr;
};

template <class Lock>
Result<PageId> SagivTree::AcquireTarget(Lock* lock, Key key, uint32_t level,
                                        PageId start,
                                        std::vector<PageId>* stack,
                                        int* restarts,
                                        bool wait_for_level) const {
  Descent d(key, level, /*stack=*/nullptr);
  d.Reseed(start);
  d.restarts = *restarts;
  Status error;
  for (;;) {
    bool locked = false;
    Route route = lock->Acquire(d, &locked);
    if (locked) {
      if (route.kind == Route::kArrived) break;  // locked; image in `lock`
      pager_->Unlock(d.current);
      // Under the lock, a node of a HIGHER level than the target is a
      // reused page, not a descent point.
      if (route.kind == Route::kChild) route.kind = Route::kRestartStale;
    }
    const Step step = ApplyRoute(route, /*validated=*/false, &d);
    if (step == Step::kAborted || step == Step::kExhausted) {
      error = StepError(step);
      break;
    }
    if (step == Step::kRestart) {
      Result<PageId> r =
          internal_FindNodeAtLevel(key, level, stack, wait_for_level);
      if (!r.ok()) {
        error = r.status();
        break;
      }
      d.Reseed(*r);
    }
  }
  *restarts = d.restarts;
  if (!error.ok()) return error;
  return d.current;
}

Result<PageId> SagivTree::internal_AcquireTargetNode(
    Key key, uint32_t level, PageId start, std::vector<PageId>* stack,
    int* restarts, Page* page, bool wait_for_level) const {
  CopyLock lock(this, page);
  return AcquireTarget(&lock, key, level, start, stack, restarts,
                       wait_for_level);
}

Result<PageId> SagivTree::LockForCommit(Key key, uint32_t level, PageId start,
                                        std::vector<PageId>* stack,
                                        int* restarts, bool* inplace,
                                        Page* page, const Node** view) const {
  if (*inplace) {
    InPlaceLock lock(this);
    Result<PageId> r = AcquireTarget(&lock, key, level, start, stack,
                                     restarts, /*wait_for_level=*/true);
    if (!r.status().IsAborted()) {
      *view = lock.live();
      return r;
    }
    // In-place mode is per operation: once a locked inspection exhausts
    // its validation budget, the rest of the operation copies.
    stats_->Add(StatId::kInplaceFallbacks);
    *inplace = false;
  }
  *view = page->As<Node>();
  return internal_AcquireTargetNode(key, level, start, stack, restarts, page);
}

// ---------------------------------------------------------------------------
// Insertion (Figs. 5 and 6)
// ---------------------------------------------------------------------------

void SagivTree::ApplyInsert(Node* node, Key key, uint64_t down_ptr) {
  if (node->is_leaf()) {
    node->InsertLeafEntry(key, static_cast<Value>(down_ptr));
  } else {
    bool ok = node->InsertChildSplit(key, static_cast<PageId>(down_ptr));
    assert(ok);
    (void)ok;
  }
}

void SagivTree::InsertIntoSafe(Page* page, PageId page_id, Key key,
                               uint64_t down_ptr, AscentState* st) {
  Node* node = page->As<Node>();
  ApplyInsert(node, key, down_ptr);
  pager_->Put(page_id, *page);
  pager_->Unlock(page_id);
  stats_->Add(StatId::kWriteBytesCopied, 2 * kPageSize);  // get + put
  st->completed = true;
}

void SagivTree::InsertIntoSafeInPlace(PageId page_id, Key key,
                                      uint64_t down_ptr, AscentState* st) {
  PageManager::WriteGuard wg = pager_->BeginWrite(page_id);
  Node* node = wg.page()->As<Node>();
  size_t bytes;
  if (node->is_leaf()) {
    bytes = node->InsertLeafEntryInPlace(key, static_cast<Value>(down_ptr));
  } else {
    bytes = node->InsertChildSplitInPlace(key, static_cast<PageId>(down_ptr));
    assert(bytes > 0);  // separator collision = protocol violation
  }
  wg.Release();
  pager_->Unlock(page_id);
  stats_->Add(StatId::kInplaceWrites);
  stats_->Add(StatId::kWriteBytesInplace, bytes);
  st->completed = true;
}

// Split point for the node in `page` (post-ApplyInsert), honoring the
// append_leaves tail bias: when the node is the rightmost of its level
// (nil link) and the just-inserted key is its largest — for a leaf the
// last entry; for an internal node the last FINITE separator, since a
// rightmost internal node's final entry is the +inf upper bound — split
// at the high end, keeping all but one entry on the left. The retiring
// left node ends ~full instead of half-full, and the near-empty new
// rightmost node (legal: rightmost nodes are exempt from the half-full
// invariant) absorbs the next run of appends. Returns 0 (midpoint) when
// the bias does not apply.
uint32_t SagivTree::TailSplitKeep(const Node* node, Key key) const {
  if (!options_.append_leaves || node->link != kInvalidPageId ||
      node->count < 3) {
    return 0;
  }
  const uint32_t n = node->count;
  const bool max_extending = node->is_leaf()
                                 ? node->entry(n - 1).key == key
                                 : node->entry(n - 2).key == key;
  return max_extending ? n - 1 : 0;
}

Status SagivTree::InsertIntoUnsafe(Page* page, PageId page_id, Key key,
                                   uint64_t down_ptr, AscentState* st) {
  Node* node = page->As<Node>();
  Result<PageId> right_page = pager_->Allocate();
  if (!right_page.ok()) {
    pager_->Unlock(page_id);
    return right_page.status();
  }
  // A rightmost-leaf split births a node B that is live-looking (leaf,
  // nil link, +inf high) — exactly what TryAppendFast's locked
  // validation accepts — yet unreachable until A's rewrite publishes the
  // link. An appender could reach B's page id through a stale
  // rightmost_hint_ (Allocate may have handed us a retired page some
  // hint still names), validate B's post-put image, and append a key no
  // concurrent search can find yet. Open the frontier publication epoch
  // (odd) before B's put and close it (even) after A's: the odd bump is
  // sequenced before B's release-store, so any appender whose acquire
  // read validates B's image inside the window sees an odd-or-advanced
  // epoch and misses. No second lock — insertions keep the paper's
  // one-lock discipline.
  const bool frontier_leaf = node->is_leaf() && node->link == kInvalidPageId;
  if (frontier_leaf) frontier_seq_.fetch_add(1, std::memory_order_release);
  ApplyInsert(node, key, down_ptr);

  Page right_buf;
  Node* right = right_buf.As<Node>();
  const uint32_t keep = TailSplitKeep(node, key);
  node->SplitInto(right, *right_page, keep);
  stats_->Add(StatId::kSplits);
  if (keep != 0) stats_->Add(StatId::kTailSplits);
  if (node->is_leaf()) {
    stats_->RecordLeafFill(node->count * 100 / options_.capacity());
  }

  // Write the new node B first, then rewrite A; the instant A's image
  // lands, B is reachable through A's link (Fig. 3). One lock throughout.
  pager_->Put(*right_page, right_buf);
  pager_->Put(page_id, *page);
  if (frontier_leaf) {
    frontier_seq_.fetch_add(1, std::memory_order_release);
    if (options_.append_leaves) {
      // The split frontier moved: B is the rightmost leaf. Publish the
      // hint only now — a hint readable before A's put would hand
      // appenders a node no concurrent search can reach yet.
      rightmost_hint_.store(*right_page, std::memory_order_release);
    }
  }
  pager_->Unlock(page_id);
  stats_->Add(StatId::kWriteBytesCopied, 3 * kPageSize);  // get + 2 puts

  st->sep = node->high;
  st->new_child = *right_page;
  return Status::OK();
}

Status SagivTree::InsertIntoUnsafeRoot(Page* page, PageId page_id, Key key,
                                       uint64_t down_ptr, AscentState* st) {
  Node* node = page->As<Node>();
  if (node->level + 2 > kMaxLevels) {
    pager_->Unlock(page_id);
    return Status::ResourceExhausted("tree height limit reached");
  }
  Result<PageId> right_page = pager_->Allocate();
  if (!right_page.ok()) {
    pager_->Unlock(page_id);
    return right_page.status();
  }
  Result<PageId> root_page = pager_->Allocate();
  if (!root_page.ok()) {
    pager_->Unlock(page_id);
    return root_page.status();
  }
  // Same frontier-split publication rule as InsertIntoUnsafe: hold the
  // epoch odd across the new right node's initializing put through A's
  // put, and publish the hint only once the link is live.
  const bool frontier_leaf = node->is_leaf() && node->link == kInvalidPageId;
  if (frontier_leaf) frontier_seq_.fetch_add(1, std::memory_order_release);
  ApplyInsert(node, key, down_ptr);

  Page right_buf;
  Node* right = right_buf.As<Node>();
  const uint32_t keep = TailSplitKeep(node, key);
  node->SplitInto(right, *right_page, keep);
  node->set_root(false);  // the root bit moves to R in the same rewrite
  stats_->Add(StatId::kSplits);
  if (keep != 0) stats_->Add(StatId::kTailSplits);
  if (node->is_leaf()) {
    stats_->RecordLeafFill(node->count * 100 / options_.capacity());
  }

  pager_->Put(*right_page, right_buf);
  pager_->Put(page_id, *page);
  if (frontier_leaf) {
    frontier_seq_.fetch_add(1, std::memory_order_release);
    if (options_.append_leaves) {
      // The root was a lone leaf, so the new right node — rightmost by
      // construction and reachable through A's link as of the put above
      // — is now the rightmost leaf.
      rightmost_hint_.store(*right_page, std::memory_order_release);
    }
  }

  // Build the new root R = (current, v, q, u, nil) — in entry form
  // [(high(A) -> A), (high(B) -> B)] — and only then rewrite the prime
  // block. We still hold the lock on the old root, which is what licenses
  // the prime-block rewrite (Section 3.3).
  Page root_buf;
  Node* root = root_buf.As<Node>();
  root->Init(static_cast<uint16_t>(node->level + 1), kMinusInfinity,
             kPlusInfinity, kInvalidPageId);
  root->set_root(true);
  root->AppendEntry(Entry{node->high, page_id});
  root->AppendEntry(Entry{right->high, *right_page});
  pager_->Put(*root_page, root_buf);

  PrimeBlockData pb = prime_.Read();
  assert(pb.num_levels == node->level + 1u);
  pb.leftmost[pb.num_levels] = *root_page;
  pb.num_levels++;
  prime_.Write(pb);
  stats_->Add(StatId::kRootCreations);

  pager_->Unlock(page_id);
  stats_->Add(StatId::kWriteBytesCopied, 4 * kPageSize);  // get + 3 puts
  st->completed = true;
  return Status::OK();
}

void SagivTree::NoteMaxKey(Key key) {
  Key cur = max_key_hint_.load(std::memory_order_relaxed);
  while (key > cur && !max_key_hint_.compare_exchange_weak(
                          cur, key, std::memory_order_relaxed)) {
  }
}

Status SagivTree::TryAppendFast(Key key, Value value, bool* done) {
  *done = false;
  // Snapshot the frontier publication epoch before anything else. An odd
  // value means a rightmost-leaf split is mid-publication somewhere: its
  // fresh right node already looks like the live rightmost leaf but is
  // not link-reachable yet, so nothing the lock-and-validate below could
  // establish is trustworthy — miss immediately.
  const uint64_t seq = frontier_seq_.load(std::memory_order_acquire);
  if (seq & 1) {
    stats_->Add(StatId::kAppendFastMisses);
    return Status::OK();
  }
  const PageId hint = rightmost_hint_.load(std::memory_order_acquire);
  pager_->Lock(hint);
  // The hint is unverified: the page may have split, been merged away, or
  // been retired and reused as anything since it was cached. Re-establish
  // the truth under the lock through PeekLocked validation (a reuse
  // pipeline can rewrite even a locked page; same discipline as
  // InPlaceLock): the node must still be the live rightmost leaf
  // — not deleted, level 0, nil link, high = +inf — with room to grow,
  // and `key` must extend its max (which also proves the key absent from
  // the whole tree: every other leaf holds smaller keys). Once an image
  // validates, the lock alone pins it: marking a page deleted (the
  // precondition for retiring and reusing it) needs this lock.
  //
  // One hazard survives the lock: page reuse may have handed this very
  // page id to a concurrent frontier split as its new right node B,
  // whose initializing put lands without B's lock held — a validation
  // here could accept B's live-looking image while B is still
  // unreachable (no link points at it until the splitter rewrites the
  // left node). The epoch closes that window: the splitter bumps it odd
  // before B's put, and that bump is visible to any reader whose
  // validated image is B's (release put / acquire read), so re-checking
  // the epoch after a successful validation rejects exactly those
  // images. A stable epoch across snapshot and re-check proves the
  // validated node was link-reachable.
  int failures = 0;
  for (;;) {
    const PageManager::ReadGuard g = pager_->PeekLocked(hint);
    bool is_target = false;
    bool torn = true;
    if (g.stable()) {
      const NodeView view(g.page()->As<Node>());
      const uint32_t n = view.count();
      is_target = !view.is_deleted() && view.is_leaf() &&
                  view.link() == kInvalidPageId &&
                  view.high() == kPlusInfinity && n < options_.capacity() &&
                  key > (n > 0 ? view.entry_key(n - 1) : view.low());
      torn = !g.Validate();
    }
    if (!torn) {
      if (!is_target) break;  // stale hint (or leaf full): miss
      if (frontier_seq_.load(std::memory_order_acquire) != seq) {
        break;  // frontier split began or completed meanwhile: miss
      }
      if (options_.inplace_writes) {
        PageManager::WriteGuard wg = pager_->BeginWrite(hint);
        const size_t bytes =
            wg.page()->As<Node>()->AppendLeafEntryInPlace(key, value);
        wg.Release();
        pager_->Unlock(hint);
        stats_->Add(StatId::kInplaceWrites);
        stats_->Add(StatId::kWriteBytesInplace, bytes);
      } else {
        Page page;
        pager_->Get(hint, &page);
        page.As<Node>()->InsertLeafEntry(key, value);
        pager_->Put(hint, page);
        pager_->Unlock(hint);
        stats_->Add(StatId::kWriteBytesCopied, 2 * kPageSize);  // get + put
      }
      stats_->Add(StatId::kAppendFastHits);
      size_.fetch_add(1, std::memory_order_relaxed);
      NoteMaxKey(key);
      *done = true;
      return Status::OK();
    }
    stats_->Add(StatId::kOptimisticRetries);
    if (++failures > options_.optimistic_retry_limit) break;  // miss
  }
  pager_->Unlock(hint);
  stats_->Add(StatId::kAppendFastMisses);
  return Status::OK();
}

Status SagivTree::Insert(Key key, Value value) {
  return InsertOrOverwrite(key, value, /*overwrite=*/false);
}

Status SagivTree::Upsert(Key key, Value value) {
  return InsertOrOverwrite(key, value, /*overwrite=*/true);
}

Status SagivTree::InsertOrOverwrite(Key key, Value value, bool overwrite) {
  if (key < 1 || key > kMaxUserKey) {
    return Status::InvalidArgument("key out of range");
  }
  // An upsert is an insert that may degenerate to a value overwrite; it
  // counts as one logical insert either way.
  stats_->Add(StatId::kInserts);
  EpochManager::Guard guard(epoch_.get());
  // One checkpoint-gate hold for the WHOLE insert (descent, splits,
  // parent ascent) so a checkpoint can never capture a half-split.
  PageManager::MutatorScope mutator_scope(pager_.get());

  // Rightmost fast path: a key beyond every key ever inserted can only
  // belong at the end of the rightmost leaf (and is necessarily absent, so
  // an upsert is a plain insert) — try to append there without
  // descending. A miss (stale hint) falls through to the normal descent,
  // which refreshes the hint below.
  const bool max_extending =
      options_.append_leaves &&
      key > max_key_hint_.load(std::memory_order_relaxed);
  if (max_extending) {
    bool done = false;
    Status s = TryAppendFast(key, value, &done);
    if (done) return s;
  }

  std::vector<PageId> local_stack;
  TlStackLease stack_lease(&local_stack);
  std::vector<PageId>& stack = *stack_lease.stack();
  Result<PageId> found = internal_FindNodeAtLevel(key, 0, &stack);
  if (!found.ok()) return found.status();
  if (max_extending) {
    // Best effort: a max-extending key's descent normally lands on the
    // current rightmost leaf (every commit path — including MultiMutate —
    // raises the watermark, so keys above it sort past everything
    // stored). A racing larger insert that has committed but not yet
    // noted itself can still make this cache a non-rightmost leaf; the
    // locked validation rejects such a hint, costing only a miss.
    rightmost_hint_.store(*found, std::memory_order_release);
  }
  Status s = InsertCommit(key, value, *found, &stack, overwrite);
  if (s.ok() && max_extending) NoteMaxKey(key);
  return s;
}

Status SagivTree::InsertCommit(Key key, Value value, PageId start,
                               std::vector<PageId>* stack_in, bool overwrite) {
  std::vector<PageId>& stack = *stack_in;
  PageId current = start;
  Key ins_key = key;
  uint64_t down_ptr = value;
  uint32_t level = 0;
  int restarts = 0;
  bool inplace = options_.inplace_writes;
  Page page;
  Node* node = page.As<Node>();

  for (;;) {  // the "repeat ... until completed" of Fig. 5
    // `view` is the locked node's image: the live page (in-place acquire,
    // plain reads safe under the lock) or the private copy in `page`.
    const Node* view = nullptr;
    Result<PageId> target = LockForCommit(ins_key, level, current, &stack,
                                          &restarts, &inplace, &page, &view);
    if (!target.ok()) return target.status();
    current = *target;

    if (level == 0) {
      const uint32_t idx = view->LowerBound(ins_key);
      if (idx < view->count && view->entry(idx).key == ins_key) {
        if (!overwrite) {
          pager_->Unlock(current);
          return Status::AlreadyExists("key already in the tree");
        }
        // Upsert replace case: overwrite the value under the lock we
        // already hold — same critical section as the presence check, so
        // the key is never transiently absent. Size is unchanged.
        if (inplace) {
          PageManager::WriteGuard wg = pager_->BeginWrite(current);
          const size_t bytes =
              wg.page()->As<Node>()->SetLeafValueAtInPlace(idx, value);
          wg.Release();
          pager_->Unlock(current);
          stats_->Add(StatId::kInplaceWrites);
          stats_->Add(StatId::kWriteBytesInplace, bytes);
        } else {
          node->entry(idx).value = value;
          pager_->Put(current, page);
          pager_->Unlock(current);
          stats_->Add(StatId::kWriteBytesCopied, 2 * kPageSize);  // get + put
        }
        return Status::OK();
      }
    }

    AscentState st;
    if (view->count < options_.capacity()) {
      if (inplace) {
        InsertIntoSafeInPlace(current, ins_key, down_ptr, &st);
      } else {
        InsertIntoSafe(&page, current, ins_key, down_ptr, &st);
      }
    } else {
      if (inplace) {
        // Splits keep copy semantics: pay the copy-out the in-place
        // acquire skipped, under the lock we already hold (locked fetches
        // cannot fail).
        pager_->Get(current, &page);
        view = node;
      }
      Status s =
          view->is_root()
              ? InsertIntoUnsafeRoot(&page, current, ins_key, down_ptr, &st)
              : InsertIntoUnsafe(&page, current, ins_key, down_ptr, &st);
      if (!s.ok()) return s;
    }
    if (st.completed) {
      size_.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    }

    // Move one level up: to the node we came down through, or — if the
    // stack is exhausted — to the leftmost node of the next higher level
    // (waiting for it to exist if a root creation is still in flight,
    // Section 3.3).
    ins_key = st.sep;
    down_ptr = st.new_child;
    level++;
    if (!stack.empty()) {
      current = stack.back();
      stack.pop_back();
    } else {
      int waits = 0;
      for (;;) {
        const PrimeBlockData pb = prime_.Read();
        if (pb.num_levels > level) {
          current = pb.leftmost[level];
          break;
        }
        if (++waits > options_.max_restarts) {
          return Status::Internal("next level never appeared");
        }
        std::this_thread::yield();
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Deletion (Section 4, plus the §5.4 enqueue hook)
// ---------------------------------------------------------------------------

Status SagivTree::Delete(Key key) {
  if (key < 1 || key > kMaxUserKey) {
    return Status::InvalidArgument("key out of range");
  }
  stats_->Add(StatId::kDeletes);
  EpochManager::Guard guard(epoch_.get());
  PageManager::MutatorScope mutator_scope(pager_.get());

  const bool want_stack = queue_.load(std::memory_order_acquire) != nullptr;

  std::vector<PageId> local_stack;
  TlStackLease stack_lease(&local_stack);
  std::vector<PageId>& stack = *stack_lease.stack();
  Result<PageId> found =
      internal_FindNodeAtLevel(key, 0, want_stack ? &stack : nullptr);
  if (!found.ok()) return found.status();
  return DeleteCommit(key, *found, want_stack ? &stack : nullptr, guard);
}

Status SagivTree::DeleteCommit(Key key, PageId start,
                               std::vector<PageId>* stack_in,
                               const EpochManager::Guard& guard) {
  CompressionQueue* queue = queue_.load(std::memory_order_acquire);
  const bool want_stack = queue != nullptr && stack_in != nullptr;
  std::vector<PageId> unused_stack;
  std::vector<PageId>& stack = want_stack ? *stack_in : unused_stack;

  Page page;
  Node* node = page.As<Node>();
  int restarts = 0;
  bool inplace = options_.inplace_writes;
  // `view` is the locked leaf's image: the live page (in-place mode) or
  // the private copy in `page`; after the removal it reflects the new
  // count/high either way.
  const Node* view = nullptr;
  Result<PageId> target =
      LockForCommit(key, 0, start, want_stack ? &stack : nullptr, &restarts,
                    &inplace, &page, &view);
  if (!target.ok()) return target.status();
  const PageId leaf = *target;

  if (inplace) {
    // One search serves both the presence check and the removal: the
    // lock pins the live image, so the index cannot shift in between.
    const uint32_t idx = view->LowerBound(key);
    if (idx >= view->count || view->entry(idx).key != key) {
      pager_->Unlock(leaf);
      return Status::NotFound();
    }
    PageManager::WriteGuard wg = pager_->BeginWrite(leaf);
    const size_t bytes = wg.page()->As<Node>()->RemoveLeafEntryAtInPlace(idx);
    wg.Release();
    stats_->Add(StatId::kInplaceWrites);
    stats_->Add(StatId::kWriteBytesInplace, bytes);
  } else {
    if (!node->RemoveLeafEntry(key)) {
      pager_->Unlock(leaf);
      return Status::NotFound();
    }
    pager_->Put(leaf, page);
    stats_->Add(StatId::kWriteBytesCopied, 2 * kPageSize);  // get + put
  }
  // §5.4: while still holding the lock, record the leaf for compression if
  // it fell below half full.
  if (want_stack && view->count < options_.min_entries && !view->is_root()) {
    queue->PushFromHolder(leaf, /*level=*/0, view->high, guard.start_time(),
                          stack);
    stats_->Add(StatId::kQueueEnqueues);
  }
  pager_->Unlock(leaf);
  // Outside the lock, as in TryAppendFast; still inside the caller's
  // MutatorScope, so a checkpoint's size stays exact.
  size_.fetch_sub(1, std::memory_order_relaxed);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Batched operations: the pipelined descent engine
// ---------------------------------------------------------------------------

void SagivTree::PipelineDescents(BatchCont* ops, size_t n, bool collect_stacks,
                                 bool probe_values, BatchStats* bs) const {
  assert(options_.optimistic_reads);
  // Forfeits unconsumed prepaid-I/O credits at scope exit (a faulted read
  // returns before its MaybeSimulateIo and never consumes its credit).
  PageManager::IoBatchScope io_scope;

  std::vector<uint32_t> active;   // kRunning indices, regrouped per round
  std::vector<PageId> distinct;   // the round's distinct target pages
  std::vector<Route> routes;      // per-group scratch
  std::vector<std::optional<Value>> values;
  active.reserve(n);
  distinct.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    ops[i].d.stack = collect_stacks ? &ops[i].stack : nullptr;
  }

  for (;;) {
    active.clear();
    for (size_t i = 0; i < n; ++i) {
      if (ops[i].state == BatchCont::kRunning) {
        active.push_back(static_cast<uint32_t>(i));
      }
    }
    if (active.empty()) return;

    // (Re)seed new and restarted continuations; one prime read serves the
    // round. Level 0 always exists, so there is no wait-for-level case.
    bool need_root = false;
    for (uint32_t i : active) need_root |= ops[i].d.current == kInvalidPageId;
    if (need_root) {
      const PageId root = prime_.Read().root();
      for (uint32_t i : active) {
        if (ops[i].d.current == kInvalidPageId) ops[i].d.Reseed(root);
      }
    }

    // Group the round's reads by target page and issue their simulated-I/O
    // waits together: one latency covers the whole round.
    std::sort(active.begin(), active.end(), [&](uint32_t a, uint32_t b) {
      return ops[a].d.current < ops[b].d.current;
    });
    distinct.clear();
    for (uint32_t i : active) {
      if (distinct.empty() || distinct.back() != ops[i].d.current) {
        distinct.push_back(ops[i].d.current);
      }
    }
    bs->io_overlapped += pager_->PrefetchPages(distinct.data(),
                                               distinct.size());

    // One validated read per distinct page serves every op routed
    // through it; the sharers beyond the first are coalesced fetches.
    for (size_t gi = 0; gi < active.size();) {
      const PageId page_id = ops[active[gi]].d.current;
      size_t ge = gi;
      while (ge < active.size() && ops[active[ge]].d.current == page_id) ++ge;
      const uint64_t group = static_cast<uint64_t>(ge - gi);

      const PageManager::ReadGuard g = pager_->OptimisticRead(page_id);
      routes.clear();
      values.clear();
      bool valid = false;
      if (g.stable()) {
        const NodeView view(g.page()->As<Node>());
        for (size_t k = gi; k < ge; ++k) {
          const Key key = ops[active[k]].d.key;
          Route r = RouteForKey(view, key, /*target_level=*/0);
          // Probe the leaf slot under the same version as the routing
          // decision: the one validation below covers both.
          values.push_back(probe_values && r.kind == Route::kArrived
                               ? view.FindLeafValue(key)
                               : std::nullopt);
          routes.push_back(r);
        }
        valid = g.Validate();
      }
      if (valid && group > 1) {
        stats_->Add(StatId::kBatchPagesCoalesced, group - 1);
        bs->pages_coalesced += group - 1;
      }
      for (size_t k = gi; k < ge; ++k) {
        BatchCont& op = ops[active[k]];
        // A torn read advances every sharer's retry budget: each would
        // have discarded this image had it read the page itself.
        const Step step = ApplyRoute(valid ? routes[k - gi] : Route{},
                                     /*validated=*/true, &op.d);
        switch (step) {
          case Step::kArrived:
            op.state = BatchCont::kArrived;
            op.value = values[k - gi];
            break;
          case Step::kAborted:
            op.state = BatchCont::kFallback;
            break;
          case Step::kExhausted:
            op.state = BatchCont::kError;
            op.status = StepError(step);
            break;
          case Step::kMoved:
          case Step::kRestart:
            break;  // next round: the next page, or a reseed at the root
        }
      }
      gi = ge;
    }
  }
}

void SagivTree::MultiSearch(const Key* keys, size_t n, Result<Value>* out,
                            BatchStats* batch_stats) const {
  if (batch_stats) *batch_stats = BatchStats{};
  if (n == 0) return;
  stats_->Add(StatId::kBatchOps, n);
  if (batch_stats) batch_stats->ops = n;
  if (!options_.optimistic_reads || n == 1) {
    // Single-op path (also the whole-batch mode for copy-read trees:
    // pipelining requires the in-place read protocol).
    for (size_t i = 0; i < n; ++i) out[i] = Search(keys[i]);
    return;
  }
  stats_->Add(StatId::kSearches, n);
  BatchStats bs;
  EpochManager::Guard guard(epoch_.get());

  const size_t width = options_.batch_max_inflight;
  std::vector<BatchCont> conts(std::min(n, width));
  for (size_t w0 = 0; w0 < n; w0 += width) {
    const size_t w = std::min(width, n - w0);
    for (size_t j = 0; j < w; ++j) {
      conts[j] = BatchCont{};
      conts[j].d.key = keys[w0 + j];
      if (conts[j].d.key < 1 || conts[j].d.key > kMaxUserKey) {
        conts[j].state = BatchCont::kError;
        conts[j].status = Status::InvalidArgument("key out of range");
      }
    }
    PipelineDescents(conts.data(), w, /*collect_stacks=*/false,
                     /*probe_values=*/true, &bs);
    for (size_t j = 0; j < w; ++j) {
      BatchCont& op = conts[j];
      switch (op.state) {
        case BatchCont::kArrived:
          out[w0 + j] = op.value.has_value() ? Result<Value>(*op.value)
                                             : Result<Value>(Status::NotFound());
          break;
        case BatchCont::kError:
          out[w0 + j] = op.status;
          break;
        case BatchCont::kFallback: {
          // The copy search single-op Search falls back to.
          stats_->Add(StatId::kOptimisticFallbacks);
          CopyRead copy(this);
          out[w0 + j] = SearchLeaf(&copy, op.d.key, &guard);
          break;
        }
        case BatchCont::kRunning:
          assert(false);  // PipelineDescents only returns terminal states
          out[w0 + j] = Status::Internal("batch descent did not terminate");
          break;
      }
    }
  }
  if (batch_stats) *batch_stats += bs;
}

void SagivTree::MultiMutate(const Key* keys, const Value* values, size_t n,
                            Status* out, MutateKind kind,
                            BatchStats* batch_stats) {
  if (batch_stats) *batch_stats = BatchStats{};
  if (n == 0) return;
  stats_->Add(StatId::kBatchOps, n);
  if (batch_stats) batch_stats->ops = n;
  if (!options_.optimistic_reads || n == 1) {
    for (size_t i = 0; i < n; ++i) {
      switch (kind) {
        case MutateKind::kInsert: out[i] = Insert(keys[i], values[i]); break;
        case MutateKind::kUpsert: out[i] = Upsert(keys[i], values[i]); break;
        case MutateKind::kDelete: out[i] = Delete(keys[i]); break;
      }
    }
    return;
  }
  stats_->Add(kind == MutateKind::kDelete ? StatId::kDeletes
                                          : StatId::kInserts, n);
  BatchStats bs;
  EpochManager::Guard guard(epoch_.get());

  // Inserts ascend through their movedown stack; deletes only need it to
  // feed the §5.4 under-full enqueue.
  const bool want_stack =
      kind != MutateKind::kDelete ||
      queue_.load(std::memory_order_acquire) != nullptr;

  const size_t width = options_.batch_max_inflight;
  std::vector<BatchCont> conts(std::min(n, width));
  for (size_t w0 = 0; w0 < n; w0 += width) {
    const size_t w = std::min(width, n - w0);
    for (size_t j = 0; j < w; ++j) {
      conts[j] = BatchCont{};
      conts[j].d.key = keys[w0 + j];
      if (conts[j].d.key < 1 || conts[j].d.key > kMaxUserKey) {
        conts[j].state = BatchCont::kError;
        conts[j].status = Status::InvalidArgument("key out of range");
      }
    }
    // Phase 1: pipeline the lock-free descents of the whole window.
    PipelineDescents(conts.data(), w, /*collect_stacks=*/want_stack,
                     /*probe_values=*/false, &bs);
    // Phase 2: run each op's locked commit serially from its descent's
    // leaf — the locking protocol (one lock per process at a time) is
    // exactly the single-op one. The checkpoint gate is held per WINDOW
    // (not per batch) so a pending checkpoint waits at most one window
    // of commits, never the whole batch.
    PageManager::MutatorScope mutator_scope(pager_.get());
    Key window_max = 0;  // largest committed insert/upsert key this window
    for (size_t j = 0; j < w; ++j) {
      BatchCont& op = conts[j];
      PageId start = op.d.current;
      if (op.state == BatchCont::kError) {
        out[w0 + j] = op.status;
        continue;
      }
      if (op.state == BatchCont::kFallback) {
        // Copy-read fallback descent, as internal_FindNodeAtLevel does
        // after an exhausted optimistic budget.
        stats_->Add(StatId::kOptimisticFallbacks);
        CopyRead copy(this);
        Descent d(op.d.key, /*level=*/0, op.d.stack);
        Status s = Descend(&copy, &d, /*wait_for_level=*/true,
                           /*guard=*/nullptr, [](const NodeView&) {});
        if (!s.ok()) {
          out[w0 + j] = s;
          continue;
        }
        start = d.current;
      }
      switch (kind) {
        case MutateKind::kInsert:
          out[w0 + j] = InsertCommit(op.d.key, values[w0 + j], start,
                                     &op.stack, /*overwrite=*/false);
          break;
        case MutateKind::kUpsert:
          out[w0 + j] = InsertCommit(op.d.key, values[w0 + j], start,
                                     &op.stack, /*overwrite=*/true);
          break;
        case MutateKind::kDelete:
          out[w0 + j] = DeleteCommit(op.d.key, start,
                                     want_stack ? &op.stack : nullptr, guard);
          break;
      }
      if (kind != MutateKind::kDelete && out[w0 + j].ok() &&
          op.d.key > window_max) {
        window_max = op.d.key;
      }
    }
    // Batched inserts must feed the append fast path's watermark like the
    // single-op commits do: a batch that silently raised the tree max
    // would leave max_key_hint_ stale-low, so later single inserts
    // between the stale watermark and the true max would wrongly arm the
    // fast path and cache a non-rightmost leaf in rightmost_hint_
    // (harmless, but every attempt wastes a locked miss until the hints
    // recover).
    if (options_.append_leaves && window_max != 0) NoteMaxKey(window_max);
  }
  if (batch_stats) *batch_stats += bs;
}

void SagivTree::MultiInsert(const Key* keys, const Value* values, size_t n,
                            Status* out, BatchStats* batch_stats) {
  MultiMutate(keys, values, n, out, MutateKind::kInsert, batch_stats);
}

void SagivTree::MultiUpsert(const Key* keys, const Value* values, size_t n,
                            Status* out, BatchStats* batch_stats) {
  MultiMutate(keys, values, n, out, MutateKind::kUpsert, batch_stats);
}

void SagivTree::MultiDelete(const Key* keys, size_t n, Status* out,
                            BatchStats* batch_stats) {
  MultiMutate(keys, /*values=*/nullptr, n, out, MutateKind::kDelete,
              batch_stats);
}

}  // namespace obtree
