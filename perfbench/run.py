#!/usr/bin/env python3
# Copyright 2026 The obtree Authors.
"""Build perfbench from the checkout's sources and run one workload.

    python3 perfbench/run.py --workload mixed-uniform --seed 1 --seconds 10 --trace 0

Run from the root of an obtree checkout. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); FileStore
directories live under its work/ directory while a run lasts, and the
span files of each workload's latest traced run are kept in its traces/
directory.

A run is SUBRUNS processes in a row, each a whole benchmark run (set-up,
warm-up, seconds / SUBRUNS of measurement, checks) with its own seed
derived from --seed. Placement-dependent costs (which physical memory and
cores a process gets) change from process to process and hold for a
process's life, so one process is one sample; the result reports each
metric's median over the processes and sums their request counts.

The last line of standard output is the result object. The exit code is
the benchmark's: 0 when every check passed, 1 when a check failed, 2 when
a call hung past its deadline; 3 when the build or the run could not
complete; 64 for bad arguments.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mixed-uniform", "ingest-window", "durable-zipf")
SUBRUNS = 7
RUN_TIMEOUT_S = 165  # all sub-runs; the binary's own watchdog fires well before


class Parser(argparse.ArgumentParser):
    """Exits 64 on bad arguments; 2 means a hang."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print("%s: error: %s" % (self.prog, message), file=sys.stderr)
        sys.exit(64)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def source_id():
    """The git commit when there is one, else a hash of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def run_quiet(cmd):
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stdout + out.stderr)
    return out.returncode == 0


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "obtree", "api", "concurrent_map.h")):
        print("perfbench: no obtree sources under %s/src; nothing to build" % ROOT,
              file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]):
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return run_quiet(["cmake", "--build", bdir, "--target", "perfbench", "-j", jobs])


def main():
    parser = Parser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")

    bdir = build_dir()
    try:
        built = build(bdir)
    except OSError as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        built = False
    if not built:
        return 3

    commit = source_id()
    traces = os.path.join(bdir, "traces")
    os.makedirs(traces, exist_ok=True)
    if args.trace:
        for name in os.listdir(traces):
            if name.startswith("trace-%s-" % args.workload):
                os.remove(os.path.join(traces, name))
    deadline = time.monotonic() + RUN_TIMEOUT_S
    results = []
    for i in range(SUBRUNS):
        code, result = sub_run(bdir, traces, args, args.seed * SUBRUNS + i, commit, deadline)
        if code != 0:
            return code
        results.append(result)

    metrics = {}
    print("median of %d runs:" % SUBRUNS)
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {"value": statistics.median(values), "unit": first["unit"]}
        print("  %-44s %16.10g %-8s %s" % (name, metrics[name]["value"], first["unit"],
                                          " ".join("%.6g" % v for v in values)))
    print(json.dumps({"correct": True,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


def sub_run(bdir, traces, args, seed, commit, deadline):
    """One benchmark process. Returns (exit code, result object)."""
    work = os.path.join(bdir, "work", "%s-%d-%d" % (args.workload, seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [os.path.join(bdir, "perfbench"), "--workload", args.workload,
           "--seed", str(seed), "--seconds", repr(args.seconds / SUBRUNS),
           "--trace", str(args.trace), "--workdir", work, "--commit", commit]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("perfbench: run exceeded %d s and was killed" % RUN_TIMEOUT_S, file=sys.stderr)
        shutil.rmtree(work, ignore_errors=True)
        return 3, None
    for name in os.listdir(work):
        if name.startswith("trace-"):
            shutil.move(os.path.join(work, name), os.path.join(traces, name))
    shutil.rmtree(work, ignore_errors=True)

    sys.stdout.write(out)
    sys.stdout.flush()
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if proc.returncode != 0:
        return (proc.returncode if proc.returncode > 0 else 3), None
    if not (isinstance(result, dict) and result.get("correct") is True):
        print("perfbench: the run printed no passing result", file=sys.stderr)
        return 3, None
    return 0, result


if __name__ == "__main__":
    sys.exit(main())
