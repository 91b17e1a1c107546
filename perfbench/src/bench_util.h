// Copyright 2026 The obtree Authors.
//
// Small building blocks of the perfbench harness: the input generators
// (seeded RNG, Zipf ranks, the key -> value function every check relies
// on), a high-resolution latency histogram, percentile selection, and the
// outcome counters behind `attempted` / `failed`.
//
// The generators live here rather than in the library so that a change to
// obtree's own util code can never change the benchmark's inputs.

#ifndef PERFBENCH_SRC_BENCH_UTIL_H_
#define PERFBENCH_SRC_BENCH_UTIL_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

#include "obtree/util/common.h"
#include "obtree/util/status.h"

namespace perfbench {

using obtree::Key;
using obtree::Value;

/// Monotonic clock in nanoseconds.
inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// The value stored under `key`. Every workload writes exactly this value,
/// so every read result can be checked without a shared model.
inline Value ValueFor(Key key) { return SplitMix64(key ^ 0x5eedfacecafef00dULL); }

/// xoshiro256** seeded through SplitMix64.
class Rng {
 public:
  explicit Rng(uint64_t seed) {
    uint64_t x = seed;
    for (uint64_t& w : s_) {
      x = SplitMix64(x);
      w = x;
    }
  }
  uint64_t Next() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }
  /// Uniform in [0, n), n > 0.
  uint64_t Uniform(uint64_t n) {
    return static_cast<uint64_t>((static_cast<unsigned __int128>(Next()) * n) >> 64);
  }
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
  uint64_t s_[4];
};

/// A seeded pseudo-random permutation of [0, n): a 4-round Feistel
/// network over the next even power of two, cycle-walked back into
/// range. Needs no table, so a 2M-key preload order costs no memory.
class Permutation {
 public:
  Permutation(uint64_t n, uint64_t seed);
  uint64_t operator()(uint64_t i) const;

 private:
  uint64_t n_;
  int half_bits_;
  uint64_t keys_[4];
};

/// Zipf ranks over [0, n) with skew theta (Gray et al., as in YCSB);
/// rank 0 is the most popular.
class Zipf {
 public:
  Zipf(uint64_t n, double theta);
  uint64_t Next(Rng* rng) const;

 private:
  uint64_t n_;
  double theta_, alpha_, zetan_, eta_;
};

/// Latency histogram with ~0.8% bucket resolution: exact below 256 ns,
/// then 128 linear sub-buckets per power of two. Percentiles interpolate
/// inside the bucket. Single writer; merge per-client copies.
class LatencyHistogram {
 public:
  LatencyHistogram();
  void Add(uint64_t ns);
  void Merge(const LatencyHistogram& other);
  uint64_t count() const { return count_; }
  /// Value (ns) at percentile p in [0, 100]; 0 when empty.
  double Percentile(double p) const;

 private:
  static constexpr int kSubBits = 7;
  static constexpr int kLinear = 2 << kSubBits;  // 256 exact buckets
  static constexpr int kNumBuckets = kLinear + (64 - kSubBits - 1) * (1 << kSubBits);
  static int BucketFor(uint64_t v);
  static void BucketRange(int bucket, double* lo, double* width);

  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
};

/// The highest percentile of {50, 90, 99, 99.9, 99.99, 99.999} that has at
/// least `min_beyond` of `n` samples above it; 0 when even the median has
/// too few (the tail is not reportable).
double TailPercentile(uint64_t n, uint64_t min_beyond = 10);

/// How a request ended, for `attempted` / `failed` accounting.
enum class Outcome {
  kOk,        ///< succeeded, result checked
  kMiss,      ///< NotFound / AlreadyExists that the model allows
  kWrong,     ///< a result the model rules out (wrong value, lost key)
  kError,     ///< any other error status
};

/// What the model allows a call to return.
enum class Expect {
  kSuccess,  ///< the call must succeed
  kMiss,     ///< the call must report NotFound / AlreadyExists
  kEither,   ///< the model cannot tell (another client owns the key)
};

/// Maps a library status to an outcome under the model's expectation.
/// NotFound and AlreadyExists are outcomes, not failures, unless the
/// model rules them out; any other error status is a failure.
Outcome Classify(const obtree::Status& s, Expect expect);

/// Per-client request counters. Relaxed atomics so the watchdog can read
/// them while the client runs.
struct RunCounters {
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> failed{0};

  /// Count one finished request.
  void Record(Outcome o) {
    if (o == Outcome::kWrong || o == Outcome::kError) {
      failed.fetch_add(1, std::memory_order_relaxed);
    }
  }
};

/// failed / attempted, where `stuck` requests still running at the
/// deadline count as both attempted (already) and failed.
double FailedShare(uint64_t attempted, uint64_t failed, uint64_t stuck = 0);

double Median(std::vector<double> v);

/// num / den, or 0 when den is not positive.
inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace perfbench

#endif  // PERFBENCH_SRC_BENCH_UTIL_H_
