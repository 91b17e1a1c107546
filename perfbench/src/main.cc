// Copyright 2026 The obtree Authors.
//
// perfbench: closed-loop workloads against obtree::ConcurrentMap.
//
//   perfbench --workload mixed-uniform --seed 1 --seconds 10 --trace 0
//
// Prints a report, the run facts, and as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics,
// or with --trace 1 the per-layer metrics. Exit code 0 means every check
// passed; see runner.h for the others. perfbench/run.py builds and runs
// this binary; see perfbench/README.md.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "runner.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <mixed-uniform|ingest-window|durable-zipf> "
               "--seed <n> --seconds <s> --trace <0|1> [--workdir <dir>] [--commit <id>]\n");
  return perfbench::kExitUsage;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  std::string commit = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage();
    const std::string v = argv[++i];
    if (flag == "--workload") {
      cfg.workload = v;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      cfg.seconds = std::strtod(v.c_str(), nullptr);
    } else if (flag == "--trace") {
      cfg.trace = v == "1";
    } else if (flag == "--workdir") {
      cfg.workdir = v;
    } else if (flag == "--commit") {
      commit = v;
    } else {
      return Usage();
    }
  }
  if (cfg.workload.empty() || !(cfg.seconds > 0 && cfg.seconds <= 3600)) return Usage();
  return perfbench::RunBenchmark(cfg, commit);
}
