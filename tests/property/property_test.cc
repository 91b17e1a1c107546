// Copyright 2026 The obtree Authors.
//
// Property-style parameterized sweeps (TEST_P): the structural invariants
// of Theorem 1/2 must hold for every node size k, every insertion pattern,
// every compression deployment, and every random seed — not just the
// hand-picked cases in the unit tests.

#include <algorithm>
#include <filesystem>
#include <map>
#include <numeric>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "obtree/api/concurrent_map.h"
#include "obtree/core/compression_queue.h"
#include "obtree/core/queue_compressor.h"
#include "obtree/core/sagiv_tree.h"
#include "obtree/core/scan_compressor.h"
#include "obtree/core/tree_checker.h"
#include "obtree/util/random.h"

namespace obtree {
namespace {

enum class Pattern { kAscending, kDescending, kRandom, kZigzag, kClustered };

const char* PatternName(Pattern p) {
  switch (p) {
    case Pattern::kAscending: return "asc";
    case Pattern::kDescending: return "desc";
    case Pattern::kRandom: return "random";
    case Pattern::kZigzag: return "zigzag";
    case Pattern::kClustered: return "clustered";
  }
  return "?";
}

std::vector<Key> MakeKeys(Pattern pattern, uint64_t n) {
  std::vector<Key> keys(n);
  std::iota(keys.begin(), keys.end(), Key{1});
  switch (pattern) {
    case Pattern::kAscending:
      break;
    case Pattern::kDescending:
      std::reverse(keys.begin(), keys.end());
      break;
    case Pattern::kRandom: {
      Random rng(n * 31 + 7);
      rng.Shuffle(&keys);
      break;
    }
    case Pattern::kZigzag: {
      // Alternate low end / high end: stresses both leftmost and rightmost
      // split paths.
      std::vector<Key> zig;
      zig.reserve(n);
      uint64_t lo = 0;
      uint64_t hi = n - 1;
      while (lo <= hi && hi != UINT64_MAX) {
        zig.push_back(keys[lo++]);
        if (lo <= hi) zig.push_back(keys[hi--]);
      }
      keys = std::move(zig);
      break;
    }
    case Pattern::kClustered: {
      // Dense runs at scattered bases: repeated locality shifts.
      std::vector<Key> out;
      out.reserve(n);
      std::vector<bool> present(n + 1, false);
      const uint64_t run = 16;
      for (uint64_t base = 0; base < n; base += run) {
        const uint64_t scrambled =
            ScrambleKey(base / run) % ((n + run - 1) / run);
        for (uint64_t i = 0; i < run; ++i) {
          const uint64_t v = scrambled * run + i;
          if (v < n && !present[keys[v]]) {
            present[keys[v]] = true;
            out.push_back(keys[v]);
          }
        }
      }
      // Scramble collisions skip some runs; append whatever is missing.
      for (Key k = 1; k <= n; ++k) {
        if (!present[k]) out.push_back(k);
      }
      keys = std::move(out);
      break;
    }
  }
  return keys;
}

// ---------------------------------------------------------------------------
// Sweep 1: (k, pattern) — build, verify, delete half, compress, verify.
// ---------------------------------------------------------------------------

using BuildParams = std::tuple<uint32_t /*k*/, Pattern>;

class BuildSweep : public ::testing::TestWithParam<BuildParams> {};

TEST_P(BuildSweep, BuildDeleteCompressInvariants) {
  const auto [k, pattern] = GetParam();
  TreeOptions options;
  options.min_entries = k;
  SagivTree tree(options);
  ASSERT_TRUE(tree.init_status().ok());

  const uint64_t n = 1500;
  const std::vector<Key> keys = MakeKeys(pattern, n);
  ASSERT_EQ(keys.size(), n);
  for (Key key : keys) {
    ASSERT_TRUE(tree.Insert(key, key * 2).ok()) << key;
  }
  ASSERT_EQ(tree.Size(), n);
  Status s = TreeChecker(&tree).CheckStructure();
  ASSERT_TRUE(s.ok()) << PatternName(pattern) << " k=" << k << ": "
                      << s.ToString();
  EXPECT_EQ(tree.stats()->max_locks_held(), 1u);

  // Keys all retrievable, in order, with correct values.
  Key prev = 0;
  uint64_t seen = 0;
  tree.Scan(1, kMaxUserKey, [&](Key key, Value v) {
    EXPECT_GT(key, prev);
    EXPECT_EQ(v, key * 2);
    prev = key;
    ++seen;
    return true;
  });
  EXPECT_EQ(seen, n);

  // Delete every other key (w.r.t. insertion order), compress, re-verify.
  for (uint64_t i = 0; i < keys.size(); i += 2) {
    ASSERT_TRUE(tree.Delete(keys[i]).ok()) << keys[i];
  }
  ScanCompressor compressor(&tree);
  for (int pass = 0; pass < 100; ++pass) {
    if (compressor.FullPass() == 0) break;
  }
  s = TreeChecker(&tree).CheckStructure(/*require_half_full=*/true);
  ASSERT_TRUE(s.ok()) << PatternName(pattern) << " k=" << k << ": "
                      << s.ToString();
  for (uint64_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(tree.Search(keys[i]).ok(), i % 2 == 1) << keys[i];
  }
}

INSTANTIATE_TEST_SUITE_P(
    NodeSizesAndPatterns, BuildSweep,
    ::testing::Combine(::testing::Values(2u, 3u, 8u, 32u, 126u),
                       ::testing::Values(Pattern::kAscending,
                                         Pattern::kDescending,
                                         Pattern::kRandom, Pattern::kZigzag,
                                         Pattern::kClustered)),
    [](const ::testing::TestParamInfo<BuildParams>& info) {
      return "k" + std::to_string(std::get<0>(info.param)) + "_" +
             PatternName(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Sweep 2: random-seed fuzz against a reference model, with queue
// compression draining mid-stream.
// ---------------------------------------------------------------------------

class SeedSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SeedSweep, FuzzAgainstReferenceWithCompression) {
  const uint64_t seed = GetParam();
  TreeOptions options;
  options.min_entries = 2 + seed % 5;
  SagivTree tree(options);
  CompressionQueue queue;
  tree.AttachCompressionQueue(&queue);
  QueueCompressor compressor(&tree, &queue);

  std::map<Key, Value> reference;
  Random rng(seed);
  const Key key_space = 300 + (seed % 7) * 250;
  for (int i = 0; i < 12000; ++i) {
    const Key k = rng.UniformRange(1, key_space);
    const double p = rng.NextDouble();
    if (p < 0.40) {
      const Value v = rng.Next();
      ASSERT_EQ(tree.Insert(k, v).ok(), reference.emplace(k, v).second);
    } else if (p < 0.75) {
      ASSERT_EQ(tree.Delete(k).ok(), reference.erase(k) > 0);
    } else if (p < 0.95) {
      auto it = reference.find(k);
      Result<Value> r = tree.Search(k);
      ASSERT_EQ(r.ok(), it != reference.end()) << k;
      if (r.ok()) {
        ASSERT_EQ(*r, it->second);
      }
    } else {
      compressor.Drain();
    }
  }
  compressor.Drain();
  ASSERT_EQ(tree.Size(), reference.size());
  Status s = TreeChecker(&tree).CheckStructure();
  ASSERT_TRUE(s.ok()) << "seed " << seed << ": " << s.ToString();

  // Full content equivalence via an ordered walk.
  auto it = reference.begin();
  tree.Scan(1, kMaxUserKey, [&](Key k, Value v) {
    EXPECT_NE(it, reference.end());
    EXPECT_EQ(k, it->first);
    EXPECT_EQ(v, it->second);
    ++it;
    return true;
  });
  EXPECT_EQ(it, reference.end());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Range(uint64_t{1}, uint64_t{13}));

// ---------------------------------------------------------------------------
// Sweep 3: thread counts — concurrent disjoint inserts + shared deletes
// keep Size() exact for any parallelism.
// ---------------------------------------------------------------------------

class ThreadSweep : public ::testing::TestWithParam<int> {};

TEST_P(ThreadSweep, ExactSizeUnderConcurrency) {
  const int threads = GetParam();
  TreeOptions options;
  options.min_entries = 3;
  SagivTree tree(options);

  constexpr Key kPerThread = 2500;
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&tree, t]() {
      const Key base = static_cast<Key>(t) * kPerThread + 1;
      // Insert own range, then delete the odd half of it.
      for (Key k = base; k < base + kPerThread; ++k) {
        ASSERT_TRUE(tree.Insert(k, k).ok());
      }
      for (Key k = base; k < base + kPerThread; k += 2) {
        ASSERT_TRUE(tree.Delete(k).ok());
      }
    });
  }
  for (auto& w : workers) w.join();

  EXPECT_EQ(tree.Size(),
            static_cast<uint64_t>(threads) * kPerThread / 2);
  Status s = TreeChecker(&tree).CheckStructure();
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(tree.stats()->max_locks_held(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Parallelism, ThreadSweep,
                         ::testing::Values(1, 2, 3, 4, 6, 8));

// ---------------------------------------------------------------------------
// Sweep 4: scan windows — every (lo, hi) window returns exactly the keys
// a reference set says it should, for several strides.
// ---------------------------------------------------------------------------

class ScanSweep : public ::testing::TestWithParam<int> {};

TEST_P(ScanSweep, WindowsMatchReference) {
  const int stride = GetParam();
  TreeOptions options;
  options.min_entries = 2;
  SagivTree tree(options);
  std::vector<Key> keys;
  for (Key k = static_cast<Key>(stride); k <= 3000;
       k += static_cast<Key>(stride)) {
    keys.push_back(k);
    ASSERT_TRUE(tree.Insert(k, k + 1).ok());
  }
  Random rng(static_cast<uint64_t>(stride));
  for (int trial = 0; trial < 50; ++trial) {
    Key lo = rng.UniformRange(1, 3200);
    Key hi = rng.UniformRange(1, 3200);
    if (lo > hi) std::swap(lo, hi);
    std::vector<Key> expected;
    for (Key k : keys) {
      if (k >= lo && k <= hi) expected.push_back(k);
    }
    std::vector<Key> got;
    tree.Scan(lo, hi, [&](Key k, Value v) {
      EXPECT_EQ(v, k + 1);
      got.push_back(k);
      return true;
    });
    ASSERT_EQ(got, expected) << "window [" << lo << "," << hi << "]";
  }
}

INSTANTIATE_TEST_SUITE_P(Strides, ScanSweep,
                         ::testing::Values(1, 2, 3, 7, 13, 97));

// ---------------------------------------------------------------------------
// Sweep 5: persistence round trip — any op sequence (upserts, erases,
// interior checkpoints), checkpointed and recovered from disk, must match
// the reference model exactly. A violating sequence is delta-debugged
// down to a minimal reproducer before the test reports it.
// ---------------------------------------------------------------------------

struct PersistOp {
  enum Kind { kUpsert, kErase, kCheckpoint };
  Kind kind;
  Key key;
  Value value;
};

std::vector<PersistOp> GenPersistOps(uint64_t seed, size_t n, Key key_space) {
  Random rng(seed);
  std::vector<PersistOp> ops;
  ops.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    PersistOp op;
    const double p = rng.NextDouble();
    if (p < 0.02) {
      op.kind = PersistOp::kCheckpoint;
      op.key = 0;
      op.value = 0;
    } else if (p < 0.62) {
      op.kind = PersistOp::kUpsert;
      op.key = rng.UniformRange(1, key_space);
      op.value = rng.Next();
    } else {
      op.kind = PersistOp::kErase;
      op.key = rng.UniformRange(1, key_space);
      op.value = 0;
    }
    ops.push_back(op);
  }
  return ops;
}

MapOptions PersistSweepOptions(const std::string& dir) {
  MapOptions options;
  options.compression = CompressionMode::kNone;
  options.tree.storage_dir = dir;
  options.tree.min_entries = 4;
  return options;
}

// Run `ops` against a fresh persistent map AND a std::map model, final
// checkpoint, reopen from disk, compare. Returns "" when the property
// holds, else a description of the first divergence.
std::string RoundTripViolation(const std::vector<PersistOp>& ops,
                               const std::string& dir) {
  std::filesystem::remove_all(dir);
  const MapOptions options = PersistSweepOptions(dir);
  std::map<Key, Value> model;
  {
    ConcurrentMap map(options);
    if (!map.init_status().ok()) {
      return "open: " + map.init_status().ToString();
    }
    for (const PersistOp& op : ops) {
      switch (op.kind) {
        case PersistOp::kUpsert:
          (void)map.Upsert(op.key, op.value);
          model[op.key] = op.value;
          break;
        case PersistOp::kErase:
          (void)map.Erase(op.key);
          model.erase(op.key);
          break;
        case PersistOp::kCheckpoint: {
          Status s = map.Checkpoint();
          if (!s.ok()) return "interior checkpoint: " + s.ToString();
          break;
        }
      }
    }
    Status s = map.Checkpoint();
    if (!s.ok()) return "final checkpoint: " + s.ToString();
  }

  Result<std::unique_ptr<ConcurrentMap>> r = ConcurrentMap::Recover(options);
  if (!r.ok()) return "recover: " + r.status().ToString();
  ConcurrentMap& map = **r;
  Status valid = map.ValidateStructure();
  if (!valid.ok()) return "structure: " + valid.ToString();
  if (map.Size() != model.size()) {
    return "size " + std::to_string(map.Size()) + " != model " +
           std::to_string(model.size());
  }
  std::string mismatch;
  auto it = model.begin();
  map.Scan(1, kMaxUserKey, [&](Key k, Value v) {
    if (it == model.end()) {
      mismatch = "extra key " + std::to_string(k);
      return false;
    }
    if (k != it->first || v != it->second) {
      mismatch = "got (" + std::to_string(k) + "," + std::to_string(v) +
                 ") want (" + std::to_string(it->first) + "," +
                 std::to_string(it->second) + ")";
      return false;
    }
    ++it;
    return true;
  });
  if (mismatch.empty() && it != model.end()) {
    mismatch = "missing key " + std::to_string(it->first);
  }
  return mismatch;
}

// Greedy ddmin: repeatedly drop chunks (halving the chunk size) while the
// violation persists. Bounded by `budget` predicate evaluations so a
// pathological failure cannot hang the suite.
std::vector<PersistOp> ShrinkOps(std::vector<PersistOp> ops,
                                 const std::string& dir, int budget) {
  size_t chunk = ops.size() / 2;
  while (chunk > 0 && budget > 0) {
    bool removed_any = false;
    for (size_t start = 0; start + chunk <= ops.size() && budget > 0;) {
      std::vector<PersistOp> cand;
      cand.reserve(ops.size() - chunk);
      cand.insert(cand.end(), ops.begin(),
                  ops.begin() + static_cast<long>(start));
      cand.insert(cand.end(), ops.begin() + static_cast<long>(start + chunk),
                  ops.end());
      --budget;
      if (!RoundTripViolation(cand, dir).empty()) {
        ops = std::move(cand);
        removed_any = true;
      } else {
        start += chunk;
      }
    }
    if (!removed_any) chunk /= 2;
  }
  return ops;
}

std::string DumpOps(const std::vector<PersistOp>& ops) {
  std::string out;
  for (const PersistOp& op : ops) {
    switch (op.kind) {
      case PersistOp::kUpsert:
        out += "  Upsert(" + std::to_string(op.key) + ", " +
               std::to_string(op.value) + ")\n";
        break;
      case PersistOp::kErase:
        out += "  Erase(" + std::to_string(op.key) + ")\n";
        break;
      case PersistOp::kCheckpoint:
        out += "  Checkpoint()\n";
        break;
    }
  }
  return out;
}

class PersistenceSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PersistenceSweep, CheckpointRecoverRoundTripMatchesModel) {
  const uint64_t seed = GetParam();
  const std::string dir =
      ::testing::TempDir() + "obtree_prop_persist_" + std::to_string(seed);
  const std::vector<PersistOp> ops =
      GenPersistOps(seed, 1500, 300 + (seed % 5) * 200);
  const std::string violation = RoundTripViolation(ops, dir);
  if (!violation.empty()) {
    const std::vector<PersistOp> minimal =
        ShrinkOps(ops, dir, /*budget=*/200);
    FAIL() << "seed " << seed << ": " << violation
           << "\nminimal reproducer (" << minimal.size() << " of "
           << ops.size() << " ops):\n" << DumpOps(minimal);
  }
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PersistenceSweep,
                         ::testing::Range(uint64_t{1}, uint64_t{7}));

}  // namespace
}  // namespace obtree
