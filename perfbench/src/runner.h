// Copyright 2026 The obtree Authors.
//
// One benchmark run: set-up (repeated, median reported), warm-up, the
// measured closed-loop window, the model checks, and in a traced run the
// per-layer counters and the layer ladder. Prints a report, the run
// facts, and as its last line the result object.

#ifndef PERFBENCH_SRC_RUNNER_H_
#define PERFBENCH_SRC_RUNNER_H_

#include <string>

#include "workload.h"

namespace perfbench {

enum ExitCode {
  kExitOk = 0,
  kExitCheckFailed = 1,  ///< a correctness check failed
  kExitDeadline = 2,     ///< a call overran its limit (a hang)
  kExitUsage = 64,
};

/// Runs the workload named in `cfg`; returns the process exit code.
/// `commit` identifies the program under test in the run facts.
int RunBenchmark(const RunConfig& cfg, const std::string& commit);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_RUNNER_H_
