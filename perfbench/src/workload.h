// Copyright 2026 The obtree Authors.
//
// The closed-loop clients and the three workloads they drive against
// obtree::ConcurrentMap (see perfbench/README.md for why each exists):
//
//   mixed-uniform  50% Get / 25% Insert / 25% Erase on uniform keys
//   ingest-window  increasing-key inserts, oldest-key erases, newest scans
//   durable-zipf   16-key MultiGet / Upsert on Zipf keys over a FileStore
//                  bigger than its buffer pool, with periodic Checkpoint()
//
// A Workload owns the map and its model: what each client may expect
// from each call, and what the map must hold when the clients stop.

#ifndef PERFBENCH_SRC_WORKLOAD_H_
#define PERFBENCH_SRC_WORKLOAD_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "obtree/api/concurrent_map.h"
#include "trace.h"
#include "watchdog.h"

namespace perfbench {

/// Closed-loop clients per run: with the map's compression worker, one
/// busy thread per CPU of a 4-CPU host.
inline constexpr int kClients = 3;

/// Limits after which the watchdog declares a call hung.
inline constexpr uint64_t kOpLimitNs = 20'000'000'000ull;
inline constexpr uint64_t kSetupLimitNs = 120'000'000'000ull;

/// Sizes and settings of one run. Defaults are the benchmark's; tests
/// shrink them.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir = ".";  ///< FileStore directories and span files
  double warmup_s = 0.5;
  uint64_t keys = 1'000'000;  ///< preloaded keys (window, loaded set)
};

/// The measured window is cut into kSlices equal slices; each end-to-end
/// metric is the median of its per-slice values, so a burst of load from
/// outside the benchmark moves one slice, not the result.
inline constexpr int kSlices = 10;

struct RunFlags {
  std::atomic<bool> stop{false};
  std::atomic<int> slice{-1};        ///< slice of the measured window, -1 outside
  std::atomic<bool> tracing{false};  ///< inside a traced slice
};

/// Latency classes. Reads are requests that modify nothing: Get,
/// MultiGet and Scan (so scans count in both kReadLat and kScanLat).
enum LatencyClass { kReadLat, kWriteLat, kScanLat, kCheckpointLat, kNumLatClasses };

/// One closed-loop client: a thread that issues its next request only
/// after the previous one returned. Workload::Step brackets each library
/// call with Begin/Finish and then records the checked outcome.
class Client {
 public:
  Client(int id, uint64_t seed, OpSlot* slot, const RunFlags* flags, size_t span_capacity);

  void Begin(const char* call) {
    counters.attempted.fetch_add(1, std::memory_order_relaxed);
    slice_ = flags_->slice.load(std::memory_order_relaxed);
    traced_ = flags_->tracing.load(std::memory_order_relaxed);
    start_ = NowNs();
    BeginOp(slot_, call, kOpLimitNs, start_);
  }

  /// Ends the timed call: `keys` is the number of keys it served.
  void Finish(OpKind kind, uint32_t keys);

  /// Counts the checked outcome; `what` describes a failure.
  void Record(Outcome outcome, const char* what = "", Key key = 0);

  const int id;
  Rng rng;
  RunCounters counters;
  LatencyHistogram latency[kSlices][kNumLatClasses];  ///< measured window only
  uint64_t keyops[kSlices] = {};
  uint64_t window_requests = 0;
  uint64_t traced_keyops = 0;    ///< window key-ops started in traced slices
  uint64_t untraced_keyops = 0;  ///< window key-ops started in untraced slices
  int64_t inserts_ok = 0;
  int64_t erases_ok = 0;
  SpanBuffer spans;
  std::string first_failure;

 private:
  OpSlot* const slot_;
  const RunFlags* const flags_;
  uint64_t start_ = 0;
  int slice_ = -1;
  bool traced_ = false;
};

/// Workload-specific facts for the run record.
struct WorkloadFacts {
  uint64_t preloaded_keys = 0;
  uint64_t key_space = 0;
  uint64_t pool_pages = 0;   ///< 0 = in-memory map
  uint64_t tree_pages = 0;   ///< live pages after set-up (set by the runner)
  int checkpoint_period_ms = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the map and its model from the seed. `slot` brackets set-up
  /// calls.
  virtual void Setup(OpSlot* slot) = 0;

  /// One request of client `c`.
  virtual void Step(Client* c) = 0;

  /// After the clients stopped: checks the map against the model.
  virtual std::string FinalCheck(const std::vector<std::unique_ptr<Client>>& clients) = 0;

  virtual obtree::ConcurrentMap* map() = 0;
  virtual WorkloadFacts facts() const = 0;

  /// Seconds ConcurrentMap::Recover took in Setup (durable-zipf only).
  virtual double recover_seconds() const { return 0; }

  /// `n` keys present at the end of the run, in random order.
  virtual std::vector<Key> PresentKeys(size_t n, Rng* rng) const = 0;

  /// `n` distinct absent keys in the order this workload inserts keys,
  /// for the ladder's insert rungs (which erase them again).
  virtual std::vector<Key> FreshKeys(size_t n, Rng* rng) const = 0;
};

/// The workload named `cfg.workload`, or nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const RunConfig& cfg);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOAD_H_
