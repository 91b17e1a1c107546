// Copyright 2026 The obtree Authors.

#include "watchdog.h"

#include <sys/syscall.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <sstream>

#include "bench_util.h"

namespace perfbench {

namespace {

// State letter and wait channel of a thread of this process, e.g.
// "R (running)" for a thread spinning on the CPU or "S futex_wait_queue"
// for one asleep in the kernel.
std::string ThreadState(long tid) {
  if (tid <= 0) return "?";
  const std::string dir = "/proc/self/task/" + std::to_string(tid);
  std::ifstream stat(dir + "/stat");
  std::string line;
  if (!std::getline(stat, line)) return "?";
  const size_t close = line.rfind(')');
  if (close == std::string::npos || close + 2 >= line.size()) return "?";
  const char state = line[close + 2];
  std::string wchan;
  std::ifstream(dir + "/wchan") >> wchan;
  if (state == 'R') return "R (running)";
  return std::string(1, state) + " " + (wchan.empty() || wchan == "0" ? "-" : wchan);
}

}  // namespace

void BindThread(OpSlot* slot) {
  slot->tid.store(static_cast<long>(syscall(SYS_gettid)), std::memory_order_relaxed);
}

Watchdog::Watchdog(size_t num_slots) {
  for (size_t i = 0; i < num_slots; ++i) slots_.push_back(std::make_unique<OpSlot>());
}

Watchdog::~Watchdog() { Stop(); }

std::vector<StuckOp> Watchdog::Overdue(uint64_t now_ns) const {
  std::vector<StuckOp> out;
  for (const auto& s : slots_) {
    const uint64_t start = s->start_ns.load(std::memory_order_acquire);
    if (start == 0 || now_ns <= start) continue;
    const uint64_t limit = s->limit_ns.load(std::memory_order_relaxed);
    if (now_ns - start <= limit) continue;
    const char* call = s->call.load(std::memory_order_relaxed);
    out.push_back(StuckOp{s->owner, call ? call : "?",
                          static_cast<double>(now_ns - start) * 1e-9,
                          ThreadState(s->tid.load(std::memory_order_relaxed))});
  }
  return out;
}

size_t Watchdog::InFlight() const {
  size_t n = 0;
  for (const auto& s : slots_) n += s->start_ns.load(std::memory_order_acquire) != 0;
  return n;
}

void Watchdog::Start(FireFn fire, int poll_ms) {
  fire_ = std::move(fire);
  monitor_ = std::thread([this, poll_ms] { Monitor(poll_ms); });
}

void Watchdog::Stop() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (monitor_.joinable()) monitor_.join();
}

void Watchdog::Monitor(int poll_ms) {
  std::unique_lock<std::mutex> lk(mu_);
  while (!cv_.wait_for(lk, std::chrono::milliseconds(poll_ms), [this] { return stop_; })) {
    std::vector<StuckOp> stuck = Overdue(NowNs());
    if (stuck.empty()) continue;
    lk.unlock();
    fire_(stuck);  // reports and exits the process; returns only in tests
    return;
  }
}

}  // namespace perfbench
