// Copyright 2026 The obtree Authors.
//
// A Page models one block of "secondary storage" (Section 2.2 of the
// paper). Every tree node occupies exactly one page; get/put of a page is
// indivisible (enforced by PageManager's per-page SeqLock, which also owns
// the word accessors for bytes of a live page).

#ifndef OBTREE_STORAGE_PAGE_H_
#define OBTREE_STORAGE_PAGE_H_

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "obtree/util/common.h"

namespace obtree {

/// Size in bytes of one page / node.
inline constexpr size_t kPageSize = 4096;

/// Raw page buffer. Alignment of 8 allows SeqLock's word-granular copies.
struct alignas(8) Page {
  uint8_t bytes[kPageSize];

  /// Reinterpret the page contents as a POD type T (e.g. Node).
  template <typename T>
  T* As() {
    static_assert(sizeof(T) <= kPageSize);
    return reinterpret_cast<T*>(bytes);
  }
  template <typename T>
  const T* As() const {
    static_assert(sizeof(T) <= kPageSize);
    return reinterpret_cast<const T*>(bytes);
  }

  void Clear() { std::memset(bytes, 0, kPageSize); }
};

static_assert(sizeof(Page) == kPageSize);

}  // namespace obtree

#endif  // OBTREE_STORAGE_PAGE_H_
