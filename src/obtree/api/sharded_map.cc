// Copyright 2026 The obtree Authors.

#include "obtree/api/sharded_map.h"

#include <algorithm>
#include <string>

#include "obtree/core/background_pool.h"
#include "obtree/core/tree_checker.h"

namespace obtree {

ShardedMap::ShardedMap(const ShardOptions& options) : options_(options) {
  init_status_ = options_.Validate();
  if (!init_status_.ok()) {
    options_ = ShardOptions();  // degrade to a working default
  }
  const uint32_t n = options_.num_shards;
  // Ceil division without overflow (key_space_hint may be near 2^64).
  shard_width_ =
      options_.key_space_hint / n + (options_.key_space_hint % n != 0);
  if (shard_width_ == 0) shard_width_ = 1;

  // One machine-sized maintenance pool serves every shard.
  if (options_.compression != CompressionMode::kNone) {
    BackgroundPool::Options pool_options;
    pool_options.threads = options_.pool_threads;
    pool_ = std::make_unique<BackgroundPool>(pool_options);
  }

  shards_.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    MapOptions shard_options;
    shard_options.tree = options_.tree;
    shard_options.compression = options_.compression;
    if (!shard_options.tree.storage_dir.empty()) {
      shard_options.tree.storage_dir += "/shard-" + std::to_string(i);
    }
    shards_.push_back(
        std::make_unique<ConcurrentMap>(shard_options, pool_.get()));
    if (init_status_.ok()) init_status_ = shards_.back()->init_status();
  }
}

// Members tear down in reverse order: every shard first (each detaches
// from the pool, blocking until no worker touches it), then pool_.
ShardedMap::~ShardedMap() = default;

Status ShardedMap::Checkpoint() {
  // Shards checkpoint independently (each cuts its own barrier); the
  // durability contract is per-key, matching routing.
  for (const auto& m : shards_) {
    Status s = m->Checkpoint();
    if (!s.ok()) return s;  // code preserved so callers can dispatch on it
  }
  return Status::OK();
}

bool ShardedMap::recovered_from_checkpoint() const {
  for (const auto& m : shards_) {
    if (m->recovered_from_checkpoint()) return true;
  }
  return false;
}

// --- point operations ------------------------------------------------------

Status ShardedMap::Insert(Key key, Value value) {
  return Route(key)->Insert(key, value);
}

Result<Value> ShardedMap::Get(Key key) const { return Route(key)->Get(key); }

Status ShardedMap::Erase(Key key) { return Route(key)->Erase(key); }

Status ShardedMap::Upsert(Key key, Value value) {
  return Route(key)->Upsert(key, value);
}

// --- batched operations ----------------------------------------------------

template <typename SubBatch>
BatchResult ShardedMap::RunBatch(const std::vector<Key>& keys,
                                 const std::vector<Value>* values, bool reads,
                                 SubBatch sub_batch) const {
  BatchResult r;
  if (values != nullptr && values->size() != keys.size()) {
    r.statuses.assign(keys.size(),
                      Status::InvalidArgument("keys/values size mismatch"));
    return r;
  }
  if (reads) {
    r.values.assign(keys.size(), Result<Value>(Status::Internal("unset")));
  } else {
    r.statuses.assign(keys.size(), Status::OK());
  }
  // One slice per touched shard. Linear probe over the groups: a batch
  // touches at most num_shards distinct shards, which is small.
  struct Group {
    uint32_t shard;
    std::vector<size_t> idx;  ///< original positions in the batch
    std::vector<Key> keys;
    std::vector<Value> values;  ///< parallel to keys (write batches only)
  };
  std::vector<Group> groups;
  for (size_t i = 0; i < keys.size(); ++i) {
    const uint32_t s = ShardIndex(keys[i]);
    auto g = std::find_if(groups.begin(), groups.end(),
                          [s](const Group& c) { return c.shard == s; });
    if (g == groups.end()) {
      groups.push_back(Group{s, {}, {}, {}});
      g = groups.end() - 1;
    }
    g->idx.push_back(i);
    g->keys.push_back(keys[i]);
    if (values != nullptr) g->values.push_back((*values)[i]);
  }
  for (const Group& g : groups) {
    BatchResult sub = sub_batch(shards_[g.shard].get(), g.keys, g.values);
    for (size_t j = 0; j < g.idx.size(); ++j) {
      if (reads) {
        r.values[g.idx[j]] = std::move(sub.values[j]);
      } else {
        r.statuses[g.idx[j]] = std::move(sub.statuses[j]);
      }
    }
    r.stats += sub.stats;
  }
  return r;
}

BatchResult ShardedMap::MultiGet(const std::vector<Key>& keys) const {
  return RunBatch(keys, nullptr, /*reads=*/true,
                  [](ConcurrentMap* m, const std::vector<Key>& k,
                     const std::vector<Value>&) { return m->MultiGet(k); });
}

BatchResult ShardedMap::MultiInsert(const std::vector<Key>& keys,
                                    const std::vector<Value>& values) {
  return RunBatch(keys, &values, /*reads=*/false,
                  [](ConcurrentMap* m, const std::vector<Key>& k,
                     const std::vector<Value>& v) {
                    return m->MultiInsert(k, v);
                  });
}

BatchResult ShardedMap::MultiErase(const std::vector<Key>& keys) {
  return RunBatch(keys, nullptr, /*reads=*/false,
                  [](ConcurrentMap* m, const std::vector<Key>& k,
                     const std::vector<Value>&) { return m->MultiErase(k); });
}

BatchResult ShardedMap::MultiUpsert(const std::vector<Key>& keys,
                                    const std::vector<Value>& values) {
  return RunBatch(keys, &values, /*reads=*/false,
                  [](ConcurrentMap* m, const std::vector<Key>& k,
                     const std::vector<Value>& v) {
                    return m->MultiUpsert(k, v);
                  });
}

// --- scans -----------------------------------------------------------------

size_t ShardedMap::Scan(
    Key lo, Key hi, const std::function<bool(Key, Value)>& visitor) const {
  if (lo < 1) lo = 1;
  const Key cap = std::min(hi, kMaxUserKey);
  if (cap < lo) return 0;
  size_t visited = 0;
  bool stopped = false;
  // The partition is ordered, so visiting shards left to right delivers
  // globally ascending keys: every key of shard s precedes every key of
  // shard s+1.
  const uint32_t n = num_shards();
  for (uint32_t s = ShardIndex(lo); s < n && !stopped; ++s) {
    const Key seg_lo = std::max(lo, ShardLowerBound(s));
    if (seg_lo > cap) break;
    const Key seg_hi =
        s + 1 < n ? std::min(cap, ShardLowerBound(s + 1) - 1) : cap;
    visited += shards_[s]->Scan(seg_lo, seg_hi, [&](Key k, Value v) {
      if (!visitor(k, v)) {
        stopped = true;
        return false;
      }
      return true;
    });
  }
  return visited;
}

std::vector<std::pair<Key, Value>> ShardedMap::ScanLimit(
    Key from, size_t limit) const {
  std::vector<std::pair<Key, Value>> out;
  if (limit == 0) return out;
  out.reserve(std::min<size_t>(limit, 4096));
  Scan(from, kMaxUserKey, [&](Key k, Value v) {
    out.emplace_back(k, v);
    return out.size() < limit;
  });
  return out;
}

// --- aggregation -----------------------------------------------------------

uint64_t ShardedMap::Size() const {
  uint64_t total = 0;
  for (const auto& m : shards_) total += m->Size();
  return total;
}

uint32_t ShardedMap::Height() const {
  uint32_t tallest = 0;
  for (const auto& m : shards_) tallest = std::max(tallest, m->Height());
  return tallest;
}

void ShardedMap::CompressNow() {
  for (const auto& m : shards_) m->CompressNow();
}

PoolStatsSnapshot ShardedMap::PoolStats() const {
  return pool_ != nullptr ? pool_->Stats() : PoolStatsSnapshot();
}

int ShardedMap::background_thread_count() const {
  return pool_ != nullptr ? pool_->thread_count() : 0;
}

StatsSnapshot ShardedMap::Stats() const {
  StatsSnapshot total;
  for (const auto& m : shards_) {
    const StatsSnapshot snap = m->Stats();
    for (size_t i = 0; i < total.counters.size(); ++i) {
      total.counters[i] += snap.counters[i];
    }
    total.max_locks_held = std::max(total.max_locks_held, snap.max_locks_held);
  }
  return total;
}

TreeShape ShardedMap::Shape() const {
  TreeShape total;
  double fill_weighted = 0.0;
  uint64_t leaves = 0;
  for (const auto& m : shards_) {
    const TreeShape shape = m->Shape();
    total.height = std::max(total.height, shape.height);
    total.num_keys += shape.num_keys;
    total.num_nodes += shape.num_nodes;
    total.underfull_nodes += shape.underfull_nodes;
    if (shape.nodes_per_level.size() > total.nodes_per_level.size()) {
      total.nodes_per_level.resize(shape.nodes_per_level.size(), 0);
    }
    for (size_t i = 0; i < shape.nodes_per_level.size(); ++i) {
      total.nodes_per_level[i] += shape.nodes_per_level[i];
    }
    const uint64_t shard_leaves =
        shape.nodes_per_level.empty() ? 0 : shape.nodes_per_level[0];
    fill_weighted += shape.avg_leaf_fill * static_cast<double>(shard_leaves);
    leaves += shard_leaves;
  }
  total.avg_leaf_fill =
      leaves > 0 ? fill_weighted / static_cast<double>(leaves) : 0.0;
  return total;
}

Status ShardedMap::ValidateStructure() const {
  for (size_t i = 0; i < shards_.size(); ++i) {
    Status s = shards_[i]->ValidateStructure();
    if (!s.ok()) {
      return Status::Internal("shard " + std::to_string(i) + ": " +
                              s.ToString());
    }
  }
  return Status::OK();
}

}  // namespace obtree
