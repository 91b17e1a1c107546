// Copyright 2026 The obtree Authors.
//
// The layer ladder of the traced run: the same kind of call timed
// directly at each layer's public functions, on the pages and tree the
// workload built, at 1 and 3 threads:
//
//   util     EpochManager::Guard enter + exit
//   node     Node::LowerBound over a full leaf
//   storage  PageManager::OptimisticRead, PageManager::Lock + Unlock,
//            FileStore::ReadPage / WritePage
//   core     SagivTree::Search / Insert / Delete
//   api      ConcurrentMap::Get / Insert / MultiGet, ShardedMap::Get /
//            Insert (4 static shards holding the workload's keys)
//
// Self time of a layer is its rung minus the rungs of the layers it calls
// (see README.md). Every rung repetition is a span; every checked call
// counts toward `attempted` / `failed`.

#ifndef PERFBENCH_SRC_LADDER_H_
#define PERFBENCH_SRC_LADDER_H_

#include <string>
#include <vector>

#include "trace.h"
#include "watchdog.h"
#include "workload.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct LadderEnv {
  Workload* workload;
  const RunConfig* cfg;
  Watchdog* watchdog;
  size_t first_slot;         ///< three watchdog slots for rung threads
  RunCounters* counters;     ///< checked ladder calls
  SpanBuffer* spans;         ///< one span per rung repetition
  std::string* first_failure;
};

/// Runs every rung and appends the ladder's per-layer metrics to *out.
/// *rung_names receives the name of each rung (the aux of its spans).
void RunLadder(const LadderEnv& env, std::vector<Metric>* out,
               std::vector<std::string>* rung_names);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_LADDER_H_
