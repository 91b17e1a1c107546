// Copyright 2026 The obtree Authors.
//
// Helpers shared across test suites (included by relative path; this
// header is test-only and must not leak into src/).

#ifndef OBTREE_TESTS_TEST_UTIL_H_
#define OBTREE_TESTS_TEST_UTIL_H_

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

namespace obtree {
namespace testutil {

/// Polls `read` (a callable returning uint64_t) once per millisecond
/// until two consecutive reads agree and `settled` (a callable returning
/// bool) holds, or ~2 s elapse. Used to quiesce background-pool counters
/// (in-flight tasks finish in bounded time once queues are empty) before
/// strict equality assertions.
template <typename Read, typename Settled>
inline void WaitForStableCounter(Read read, Settled settled) {
  uint64_t prev = read();
  for (int i = 0; i < 2000; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const uint64_t cur = read();
    if (cur == prev && settled()) return;
    prev = cur;
  }
}

/// OS threads of this process (-1 where /proc is unavailable). Used to
/// assert that thread counts return to baseline after pools/maps die —
/// a leaked or unjoined background worker fails the comparison.
inline int LiveThreadCount() {
#ifdef __linux__
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return std::atoi(line.c_str() + 8);
    }
  }
#endif
  return -1;
}

/// Polls LiveThreadCount() for up to ~2 s until it equals `expected` and
/// returns the last count. A joined thread stays in /proc/self/status
/// until the kernel reaps it, so an immediate read after join can still
/// count it.
inline int WaitForLiveThreadCount(int expected) {
  int count = LiveThreadCount();
  for (int i = 0; i < 2000 && count != expected; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    count = LiveThreadCount();
  }
  return count;
}

/// LiveThreadCount() once it has held still for ~10 ms (at most ~2 s): a
/// baseline for the checks above, which threads joined by an earlier test
/// but not yet reaped would otherwise inflate.
inline int SettledLiveThreadCount() {
  int count = LiveThreadCount();
  for (int stable = 0, i = 0; stable < 10 && i < 2000; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const int now = LiveThreadCount();
    stable = now == count ? stable + 1 : 0;
    count = now;
  }
  return count;
}

}  // namespace testutil
}  // namespace obtree

#endif  // OBTREE_TESTS_TEST_UTIL_H_
