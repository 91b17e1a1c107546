// Copyright 2026 The obtree Authors.

#include "obtree/util/epoch.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <thread>

namespace obtree {

namespace epoch_internal {

// Only the owning thread writes an entry. `owner` is stored before `start`,
// so a scanner that reads a pinned `start` also sees the matching tag.
struct PinEntry {
  std::atomic<const EpochManager*> owner{nullptr};
  std::atomic<Timestamp> start{kMaxTimestamp};  // kMaxTimestamp = free
};

}  // namespace epoch_internal

namespace {

using epoch_internal::PinEntry;

struct alignas(64) PinRecord {
  PinEntry entries[EpochManager::kPinsPerThread];
  std::atomic<bool> claimed{false};
};

// The registry is allocated once and never freed: a scanner may read any
// record at any time. Scans stop at the high-water mark of claimed indexes.
PinRecord* Registry() {
  static PinRecord* const records = new PinRecord[EpochManager::kMaxSlots];
  return records;
}
std::atomic<int> registry_high_water{0};

thread_local PinRecord* tl_record = nullptr;

// Returns the thread's record to the registry when the thread exits.
struct RecordLease {
  ~RecordLease() {
    for (const PinEntry& e : tl_record->entries) {
      assert(e.start.load(std::memory_order_relaxed) == kMaxTimestamp);
      (void)e;
    }
    tl_record->claimed.store(false, std::memory_order_release);
    tl_record = nullptr;
  }
};

PinRecord* ClaimRecord() {
  PinRecord* records = Registry();
  for (;;) {
    for (int i = 0; i < EpochManager::kMaxSlots; ++i) {
      bool expected = false;
      if (records[i].claimed.load(std::memory_order_relaxed) ||
          !records[i].claimed.compare_exchange_strong(
              expected, true, std::memory_order_acq_rel)) {
        continue;
      }
      // seq_cst, before the first pin: a scan that reads the old mark
      // precedes every store this thread will make to the record.
      int high = registry_high_water.load(std::memory_order_seq_cst);
      while (high <= i && !registry_high_water.compare_exchange_weak(
                              high, i + 1, std::memory_order_seq_cst)) {
      }
      tl_record = &records[i];
      thread_local RecordLease lease;
      return tl_record;
    }
    // Every record is held by a live thread: wait for one to exit.
    std::this_thread::yield();
  }
}

PinEntry* FreeEntry() {
  PinRecord* rec = tl_record != nullptr ? tl_record : ClaimRecord();
  for (PinEntry& e : rec->entries) {
    if (e.start.load(std::memory_order_relaxed) == kMaxTimestamp) return &e;
  }
  std::fprintf(stderr, "obtree: more than %d epoch guards held by one thread\n",
               EpochManager::kPinsPerThread);
  std::abort();
}

}  // namespace

EpochManager::EpochManager() : clock_(1) {}

Timestamp EpochManager::Pin(PinEntry* entry) const {
  Timestamp t = clock_.load(std::memory_order_relaxed);
  for (;;) {
    entry->start.store(t, std::memory_order_seq_cst);
    const Timestamp now = clock_.load(std::memory_order_seq_cst);
    if (now == t) return t;
    t = now;  // a retirement slipped in: re-pin at the newer time
  }
}

EpochManager::Guard::Guard(EpochManager* mgr)
    : mgr_(mgr), entry_(FreeEntry()) {
  entry_->owner.store(mgr_, std::memory_order_relaxed);
  start_ = mgr_->Pin(entry_);
}

EpochManager::Guard::~Guard() {
  entry_->start.store(kMaxTimestamp, std::memory_order_release);
}

void EpochManager::Guard::Refresh() { start_ = mgr_->Pin(entry_); }

Timestamp EpochManager::MinActive() const {
  Timestamp min = kMaxTimestamp;
  const PinRecord* records = Registry();
  const int high = registry_high_water.load(std::memory_order_seq_cst);
  for (int i = 0; i < high; ++i) {
    for (const PinEntry& e : records[i].entries) {
      const Timestamp t = e.start.load(std::memory_order_seq_cst);
      if (t < min && e.owner.load(std::memory_order_relaxed) == this) min = t;
    }
  }
  std::lock_guard<std::mutex> l(providers_mu_);
  for (const auto& [handle, p] : providers_) {
    Timestamp t = p();
    if (t < min) min = t;
  }
  return min;
}

uint64_t EpochManager::RegisterExternalMinProvider(
    std::function<Timestamp()> provider) {
  std::lock_guard<std::mutex> l(providers_mu_);
  const uint64_t handle = next_provider_++;
  providers_.emplace(handle, std::move(provider));
  return handle;
}

void EpochManager::UnregisterExternalMinProvider(uint64_t handle) {
  std::lock_guard<std::mutex> l(providers_mu_);
  providers_.erase(handle);
}

int EpochManager::ActiveCount() const {
  int n = 0;
  const PinRecord* records = Registry();
  const int high = registry_high_water.load(std::memory_order_acquire);
  for (int i = 0; i < high; ++i) {
    for (const PinEntry& e : records[i].entries) {
      if (e.start.load(std::memory_order_acquire) != kMaxTimestamp &&
          e.owner.load(std::memory_order_relaxed) == this) {
        ++n;
      }
    }
  }
  return n;
}

}  // namespace obtree
