// Copyright 2026 The obtree Authors.
//
// SeqLock: the one implementation of the version protocol that makes the
// paper's get/put indivisible (Section 2.2). It guards every page image
// (PageManager's per-slot version) and the prime block. A version word is
// odd while a write is in flight; a reader snapshots it, reads the data
// words, and keeps what it read only if the version is still the same even
// value afterwards.
//
// This class is the only code that touches a version word, and every
// access to a guarded data word that may race goes through its word
// helpers (never a plain access), so a reader racing a writer is defined
// behavior for the C++ memory model and checkable by TSan. (A write holder
// may read the words it guards plainly: concurrent readers only read.)
//
// Ordering, following Boehm, "Can seqlocks get along with programming
// language memory models?" (MSPC '12), without a standalone fence:
//   * Writers take the version odd with an acquire-release CAS (only from
//     an even value, so every writer waits out another), store data words
//     with release stores, and publish with a release store of the next
//     even version.
//   * Readers load the version with acquire (synchronizing with the last
//     publish, so they see at least that write's data), load the data
//     words with acquire, then re-load the version relaxed. An acquire
//     load keeps every later access after it, so the re-load cannot move
//     ahead of any data load. If a data load returned a value stored by a
//     later writer, that release store synchronizes with the acquire load,
//     so the writer's odd CAS happens-before the re-load, which therefore
//     cannot return the version the reader started from.
// On x86-64 acquire loads and release stores compile to the same plain
// movs as relaxed ones.

#ifndef OBTREE_STORAGE_SEQLOCK_H_
#define OBTREE_STORAGE_SEQLOCK_H_

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "obtree/storage/paper_lock.h"

namespace obtree {

class SeqLock {
 public:
  // --- readers -------------------------------------------------------------

  /// Snapshot the version before reading. An odd value means a write is in
  /// flight: nothing read under it can validate.
  uint64_t ReadBegin() const {
    return version_.load(std::memory_order_acquire);
  }

  /// True iff `begun` (from ReadBegin) was even and no write has started
  /// since: every data word loaded in between is one consistent snapshot.
  bool Validate(uint64_t begun) const {
    return (begun & 1) == 0 &&
           version_.load(std::memory_order_relaxed) == begun;
  }

  /// Copy `bytes` of guarded data at `src` into the private `dst`, retrying
  /// until the copy is consistent.
  void ReadCopy(const void* src, void* dst, size_t bytes) const {
    uint64_t begun;
    do {
      begun = ReadBegin();
      CopyOut(src, dst, bytes);
    } while (!Validate(begun));
  }

  // --- writers -------------------------------------------------------------

  /// Take the version odd, first waiting for any write in flight to end.
  /// Every writer goes through here or TryWriteBegin, so writes never
  /// overlap.
  void WriteBegin() {
    uint64_t v = version_.load(std::memory_order_relaxed);
    for (;;) {
      if (v & 1) {
        PaperLock::CpuRelax();
        v = version_.load(std::memory_order_relaxed);
      } else if (version_.compare_exchange_weak(v, v + 1,
                                                std::memory_order_acq_rel,
                                                std::memory_order_relaxed)) {
        return;
      }
    }
  }

  /// WriteBegin without the wait: false (and nothing held) if a write is in
  /// flight or the CAS loses a race.
  bool TryWriteBegin() {
    uint64_t v = version_.load(std::memory_order_relaxed);
    return (v & 1) == 0 &&
           version_.compare_exchange_strong(v, v + 1,
                                            std::memory_order_acq_rel,
                                            std::memory_order_relaxed);
  }

  /// Publish the write: the next even version. Readers that began before
  /// it never validate.
  void WriteEnd() {
    version_.store(HeldVersion() + 1, std::memory_order_release);
  }

  /// End a write that stored no data word: restore the even version it
  /// replaced, so readers that began before it lose nothing.
  void WriteAbort() {
    version_.store(HeldVersion() - 1, std::memory_order_release);
  }

  // --- guarded data words --------------------------------------------------

  /// Load one guarded data word (16, 32 or 64 bits).
  template <typename T>
  static T Load(const T* p) {
    return __atomic_load_n(p, __ATOMIC_ACQUIRE);
  }

  /// Store one guarded data word. Only the write holder may store.
  template <typename T>
  static void Store(T* p, std::common_type_t<T> v) {
    __atomic_store_n(p, v, __ATOMIC_RELEASE);
  }

  /// Copy guarded words out to private memory. Sizes and both buffers are
  /// word-aligned (pages and the prime block are).
  static void CopyOut(const void* src, void* dst, size_t bytes) {
    const auto* s = static_cast<const uint64_t*>(src);
    auto* d = static_cast<uint64_t*>(dst);
    for (size_t i = 0; i < bytes / 8; ++i) d[i] = Load(&s[i]);
  }

  /// Copy private memory into guarded words (write holder only).
  static void CopyIn(const void* src, void* dst, size_t bytes) {
    const auto* s = static_cast<const uint64_t*>(src);
    auto* d = static_cast<uint64_t*>(dst);
    for (size_t i = 0; i < bytes / 8; ++i) Store(&d[i], s[i]);
  }

  /// Zero guarded words (write holder only).
  static void Zero(void* dst, size_t bytes) {
    auto* d = static_cast<uint64_t*>(dst);
    for (size_t i = 0; i < bytes / 8; ++i) Store(&d[i], 0);
  }

 private:
  // The odd version this thread holds. Only the holder writes the version,
  // so ending a write is a load plus a store, not a locked instruction.
  uint64_t HeldVersion() const {
    const uint64_t v = version_.load(std::memory_order_relaxed);
    assert(v & 1);
    return v;
  }

  std::atomic<uint64_t> version_{0};
};

static_assert(sizeof(SeqLock) == sizeof(uint64_t),
              "a SeqLock is exactly one version word");

}  // namespace obtree

#endif  // OBTREE_STORAGE_SEQLOCK_H_
