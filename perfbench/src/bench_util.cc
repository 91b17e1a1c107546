// Copyright 2026 The obtree Authors.

#include "bench_util.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

double Zeta(uint64_t n, double theta) {
  double sum = 0;
  for (uint64_t i = 1; i <= n; ++i) sum += 1.0 / std::pow(static_cast<double>(i), theta);
  return sum;
}

}  // namespace

Permutation::Permutation(uint64_t n, uint64_t seed) : n_(n), half_bits_(1) {
  while ((uint64_t{1} << (2 * half_bits_)) < n) ++half_bits_;
  for (uint64_t& k : keys_) k = seed = SplitMix64(seed);
}

uint64_t Permutation::operator()(uint64_t i) const {
  const uint64_t mask = (uint64_t{1} << half_bits_) - 1;
  uint64_t x = i;
  do {  // cycle-walk: re-encrypt until the image lands in [0, n)
    uint64_t left = x >> half_bits_, right = x & mask;
    for (uint64_t k : keys_) {
      const uint64_t next = left ^ (SplitMix64(right ^ k) & mask);
      left = right;
      right = next;
    }
    x = (left << half_bits_) | right;
  } while (x >= n_);
  return x;
}

Zipf::Zipf(uint64_t n, double theta) : n_(n), theta_(theta) {
  zetan_ = Zeta(n, theta);
  const double zeta2 = Zeta(2, theta);
  alpha_ = 1.0 / (1.0 - theta);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
         (1.0 - zeta2 / zetan_);
}

uint64_t Zipf::Next(Rng* rng) const {
  const double u = rng->NextDouble();
  const double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
  const uint64_t r = static_cast<uint64_t>(
      static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return r < n_ ? r : n_ - 1;
}

LatencyHistogram::LatencyHistogram() : buckets_(kNumBuckets, 0) {}

int LatencyHistogram::BucketFor(uint64_t v) {
  if (v < static_cast<uint64_t>(kLinear)) return static_cast<int>(v);
  const int msb = 63 - __builtin_clzll(v);
  const int shift = msb - kSubBits;
  return kLinear + (msb - kSubBits - 1) * (1 << kSubBits) +
         static_cast<int>((v >> shift) - (1u << kSubBits));
}

void LatencyHistogram::BucketRange(int bucket, double* lo, double* width) {
  if (bucket < kLinear) {
    *lo = bucket;
    *width = 1;
    return;
  }
  const int i = bucket - kLinear;
  const int shift = i / (1 << kSubBits) + 1;
  const uint64_t sub = static_cast<uint64_t>(i % (1 << kSubBits));
  *lo = static_cast<double>(((1ull << kSubBits) + sub) << shift);
  *width = static_cast<double>(1ull << shift);
}

void LatencyHistogram::Add(uint64_t ns) {
  ++buckets_[static_cast<size_t>(BucketFor(ns))];
  ++count_;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
}

double LatencyHistogram::Percentile(double p) const {
  if (count_ == 0) return 0;
  const double rank = p / 100.0 * static_cast<double>(count_);
  double seen = 0;
  for (int b = 0; b < kNumBuckets; ++b) {
    const uint64_t n = buckets_[static_cast<size_t>(b)];
    if (n == 0) continue;
    if (seen + static_cast<double>(n) >= rank) {
      double lo = 0, width = 0;
      BucketRange(b, &lo, &width);
      return lo + width * (rank - seen) / static_cast<double>(n);
    }
    seen += static_cast<double>(n);
  }
  return 0;
}

double TailPercentile(uint64_t n, uint64_t min_beyond) {
  static constexpr double kLadder[] = {99.999, 99.99, 99.9, 99, 90, 50};
  for (double p : kLadder) {
    // Samples strictly above the p-th percentile: n * (100 - p) / 100.
    if (static_cast<double>(n) * (100.0 - p) / 100.0 + 1e-9 >=
        static_cast<double>(min_beyond)) {
      return p;
    }
  }
  return 0;
}

Outcome Classify(const obtree::Status& s, Expect expect) {
  if (s.ok()) return expect == Expect::kMiss ? Outcome::kWrong : Outcome::kOk;
  if (s.IsNotFound() || s.IsAlreadyExists()) {
    return expect == Expect::kSuccess ? Outcome::kWrong : Outcome::kMiss;
  }
  return Outcome::kError;
}

double FailedShare(uint64_t attempted, uint64_t failed, uint64_t stuck) {
  if (attempted == 0) return 0;
  return static_cast<double>(failed + stuck) / static_cast<double>(attempted);
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n == 0 ? 0 : (n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2);
}

}  // namespace perfbench
