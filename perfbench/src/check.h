// Copyright 2026 The obtree Authors.
//
// Model checks. Every stored value is ValueFor(key), so a read result is
// checked on the spot; these functions check the results that need the
// workload's model: the final state of the map and a window scan.
// Each returns "" when the check passes, else the first mismatch.

#ifndef PERFBENCH_SRC_CHECK_H_
#define PERFBENCH_SRC_CHECK_H_

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "obtree/api/concurrent_map.h"

namespace perfbench {

/// Size() must equal `expected_size`, and a full ordered Scan must visit
/// exactly that many keys, ascending, each one `expected_present` by the
/// model and holding ValueFor(key).
std::string CheckFinalState(const obtree::ConcurrentMap& map, uint64_t expected_size,
                            const std::function<bool(Key)>& expected_present);

/// Checks the result `got` of Scan(lo, hi) over consecutive keys that
/// were inserted before the scan started: ascending, inside [lo, hi],
/// correct values, and every key of [lo, hi] present except keys below
/// `erased_below`, keys in `in_flight` (inserts not yet finished), and at
/// most `unknown_in_flight` further keys (inserts whose key the scanner
/// could not see yet).
std::string CheckWindowScan(const std::vector<std::pair<Key, Value>>& got, Key lo, Key hi,
                            Key erased_below, const std::vector<Key>& in_flight,
                            size_t unknown_in_flight);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_CHECK_H_
