// Copyright 2026 The obtree Authors.
//
// Watchdog: turns a hang into a failed run instead of a hung benchmark.
//
// Every thread that calls into the library (clients, set-up, ladder
// rungs, final checks) owns an OpSlot and brackets each call with
// BeginOp/EndOp, naming the call and its time limit. A monitor thread
// polls the slots; when a call overruns its limit it hands the overdue
// calls, with the kernel's view of each stuck thread, to the fire
// callback, which reports them and ends the process. Threads stuck inside
// the library cannot be joined, so the callback exits without unwinding.

#ifndef PERFBENCH_SRC_WATCHDOG_H_
#define PERFBENCH_SRC_WATCHDOG_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

/// One thread's in-flight call. start_ns == 0 means idle.
struct alignas(64) OpSlot {
  std::atomic<uint64_t> start_ns{0};
  std::atomic<uint64_t> limit_ns{0};
  std::atomic<const char*> call{nullptr};
  std::atomic<long> tid{0};
  std::string owner;  ///< set before the slot is used, e.g. "client 1"
};

/// Claim `slot` for the calling thread (records its kernel thread id).
void BindThread(OpSlot* slot);

inline void BeginOp(OpSlot* slot, const char* call, uint64_t limit_ns, uint64_t now_ns) {
  slot->call.store(call, std::memory_order_relaxed);
  slot->limit_ns.store(limit_ns, std::memory_order_relaxed);
  slot->start_ns.store(now_ns, std::memory_order_release);
}

inline void EndOp(OpSlot* slot) { slot->start_ns.store(0, std::memory_order_release); }

/// A call that overran its limit.
struct StuckOp {
  std::string owner;
  std::string call;
  double running_s = 0;
  std::string thread_state;  ///< "R (running)" etc. from /proc, or "?"
};

class Watchdog {
 public:
  using FireFn = std::function<void(const std::vector<StuckOp>&)>;

  explicit Watchdog(size_t num_slots);
  ~Watchdog();
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  OpSlot* slot(size_t i) { return slots_[i].get(); }

  /// Calls in flight at `now_ns` that have run longer than their limit.
  std::vector<StuckOp> Overdue(uint64_t now_ns) const;

  /// Calls in flight now, overdue or not.
  size_t InFlight() const;

  /// Poll every `poll_ms`; on the first overdue call, invoke `fire` once
  /// (from the monitor thread). Stop() ends the monitor.
  void Start(FireFn fire, int poll_ms = 20);
  void Stop();

 private:
  void Monitor(int poll_ms);

  std::vector<std::unique_ptr<OpSlot>> slots_;
  FireFn fire_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;  // guarded by mu_
  std::thread monitor_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WATCHDOG_H_
