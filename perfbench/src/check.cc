// Copyright 2026 The obtree Authors.

#include "check.h"

#include <algorithm>

namespace perfbench {

namespace {

std::string KeyMsg(const char* what, Key key) {
  return std::string(what) + " (key " + std::to_string(key) + ")";
}

}  // namespace

std::string CheckFinalState(const obtree::ConcurrentMap& map, uint64_t expected_size,
                            const std::function<bool(Key)>& expected_present) {
  if (map.Size() != expected_size) {
    return "Size() is " + std::to_string(map.Size()) + ", model expects " +
           std::to_string(expected_size);
  }
  std::string error;
  uint64_t visited = 0;
  Key prev = 0;
  map.Scan(1, obtree::kMaxUserKey, [&](Key k, Value v) {
    if (visited > 0 && k <= prev) {
      error = KeyMsg("full scan out of order", k);
    } else if (v != ValueFor(k)) {
      error = KeyMsg("full scan found a wrong value", k);
    } else if (!expected_present(k)) {
      error = KeyMsg("full scan found a key the model says is absent", k);
    }
    prev = k;
    ++visited;
    return error.empty();
  });
  if (!error.empty()) return error;
  if (visited != expected_size) {
    return "full scan visited " + std::to_string(visited) + " keys, model expects " +
           std::to_string(expected_size);
  }
  return "";
}

std::string CheckWindowScan(const std::vector<std::pair<Key, Value>>& got, Key lo, Key hi,
                            Key erased_below, const std::vector<Key>& in_flight,
                            size_t unknown_in_flight) {
  size_t missing = 0;
  size_t i = 0;
  for (Key k = lo; k <= hi && k >= lo; ++k) {
    if (i < got.size() && got[i].first < k) {
      return KeyMsg("window scan returned a key out of order or range", got[i].first);
    }
    if (i < got.size() && got[i].first == k) {
      if (got[i].second != ValueFor(k)) return KeyMsg("window scan found a wrong value", k);
      ++i;
      continue;
    }
    if (k < erased_below) continue;
    if (std::find(in_flight.begin(), in_flight.end(), k) != in_flight.end()) continue;
    if (++missing > unknown_in_flight) return KeyMsg("window scan lost a key", k);
  }
  if (i != got.size()) {
    return KeyMsg("window scan returned a key out of order or range", got[i].first);
  }
  return "";
}

}  // namespace perfbench
