// Copyright 2026 The obtree Authors.

#include "workload.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <numeric>
#include <unordered_set>

#include "check.h"

namespace perfbench {

namespace {

LatencyClass ClassOf(OpKind kind) {
  switch (kind) {
    case kGet:
    case kMultiGet: return kReadLat;
    case kScan: return kScanLat;
    case kCheckpoint: return kCheckpointLat;
    default: return kWriteLat;
  }
}

// Status of a set-up step that must succeed.
void Require(const obtree::Status& s, const char* step) {
  if (!s.ok()) {
    std::fprintf(stderr, "perfbench: set-up step %s failed: %s\n", step, s.ToString().c_str());
    std::exit(1);
  }
}

// ----------------------------------------------------------- mixed-uniform
//
// Keys [1, 2 * keys]; half of them preloaded in random order. Client c
// alone inserts and erases keys k with k % clients == c, so it knows their
// presence exactly; Gets go to any key and are checked exactly on the
// client's own keys and by value elsewhere.
class MixedUniform : public Workload {
 public:
  explicit MixedUniform(const RunConfig& cfg)
      : cfg_(cfg), key_space_(2 * cfg.keys), present_(kClients) {}

  void Setup(OpSlot* slot) override {
    map_ = std::make_unique<obtree::ConcurrentMap>(obtree::MapOptions());
    for (auto& bits : present_) bits.assign(key_space_ + 1, false);
    // The first `keys` keys of a seeded permutation of the key space,
    // inserted in that order.
    const Permutation order(key_space_, cfg_.seed ^ 0x6d69786564ULL);
    BeginOp(slot, "setup: ConcurrentMap::Insert (preload)", kSetupLimitNs, NowNs());
    for (uint64_t i = 0; i < cfg_.keys; ++i) {
      const Key k = 1 + order(i);
      Require(map_->Insert(k, ValueFor(k)), "preload insert");
      present_[Owner(k)][k] = true;
    }
    EndOp(slot);
  }

  void Step(Client* c) override {
    const uint64_t r = c->rng.Uniform(100);
    std::vector<bool>& mine = present_[static_cast<size_t>(c->id)];
    if (r < 50) {
      const Key k = 1 + c->rng.Uniform(key_space_);
      c->Begin("ConcurrentMap::Get");
      const obtree::Result<Value> v = map_->Get(k);
      c->Finish(kGet, 1);
      const Expect expect = Owner(k) != static_cast<size_t>(c->id)
                                ? Expect::kEither
                                : (mine[k] ? Expect::kSuccess : Expect::kMiss);
      Outcome o = Classify(v.status(), expect);
      if (v.ok() && *v != ValueFor(k)) o = Outcome::kWrong;
      c->Record(o, "Get: wrong value, lost key or error", k);
      return;
    }
    const Key k = OwnedKey(c);
    if (r < 75) {
      c->Begin("ConcurrentMap::Insert");
      const obtree::Status s = map_->Insert(k, ValueFor(k));
      c->Finish(kInsert, 1);
      c->Record(Classify(s, mine[k] ? Expect::kMiss : Expect::kSuccess),
                "Insert: outcome contradicts the model", k);
      if (s.ok()) {
        mine[k] = true;
        ++c->inserts_ok;
      }
    } else {
      c->Begin("ConcurrentMap::Erase");
      const obtree::Status s = map_->Erase(k);
      c->Finish(kErase, 1);
      c->Record(Classify(s, mine[k] ? Expect::kSuccess : Expect::kMiss),
                "Erase: outcome contradicts the model", k);
      if (s.ok()) {
        mine[k] = false;
        ++c->erases_ok;
      }
    }
  }

  std::string FinalCheck(const std::vector<std::unique_ptr<Client>>& clients) override {
    int64_t expected = static_cast<int64_t>(cfg_.keys);
    for (const auto& c : clients) expected += c->inserts_ok - c->erases_ok;
    return CheckFinalState(*map_, static_cast<uint64_t>(expected),
                           [this](Key k) { return k <= key_space_ && present_[Owner(k)][k]; });
  }

  obtree::ConcurrentMap* map() override { return map_.get(); }

  WorkloadFacts facts() const override {
    WorkloadFacts f;
    f.preloaded_keys = cfg_.keys;
    f.key_space = key_space_;
    return f;
  }

  std::vector<Key> PresentKeys(size_t n, Rng* rng) const override { return Sample(n, rng, true); }
  std::vector<Key> FreshKeys(size_t n, Rng* rng) const override { return Sample(n, rng, false); }

 private:
  static size_t Owner(Key k) { return static_cast<size_t>(k % kClients); }

  Key OwnedKey(Client* c) const {
    return kClients * (1 + c->rng.Uniform(key_space_ / kClients - 1)) +
           static_cast<uint64_t>(c->id);
  }

  // Distinct keys whose model presence is `present`, in random order.
  std::vector<Key> Sample(size_t n, Rng* rng, bool present) const {
    std::vector<Key> out;
    std::unordered_set<Key> seen;
    while (out.size() < n) {
      const Key k = 1 + rng->Uniform(key_space_);
      if (present_[Owner(k)][k] == present && seen.insert(k).second) out.push_back(k);
    }
    return out;
  }

  const RunConfig cfg_;
  const uint64_t key_space_;
  std::unique_ptr<obtree::ConcurrentMap> map_;
  std::vector<std::vector<bool>> present_;  // [owner][key]; owner-written only
};

// ----------------------------------------------------------- ingest-window
//
// Keys are timestamps. The window [oldest, next) starts as [1, keys + 1).
// Inserts take the next timestamp from one shared counter, erases the
// oldest, scans read the newest 100. A client announces an insert in
// pending_ before it takes its timestamp, so a scanner can tell a key
// that is legitimately still in flight from a lost one.
class IngestWindow : public Workload {
 public:
  explicit IngestWindow(const RunConfig& cfg)
      : cfg_(cfg), pending_(kClients), scan_buffers_(kClients) {}

  void Setup(OpSlot* slot) override {
    map_ = std::make_unique<obtree::ConcurrentMap>(obtree::MapOptions());
    BeginOp(slot, "setup: ConcurrentMap::Insert (preload)", kSetupLimitNs, NowNs());
    for (Key k = 1; k <= cfg_.keys; ++k) Require(map_->Insert(k, ValueFor(k)), "preload insert");
    EndOp(slot);
    next_.store(cfg_.keys + 1);
    oldest_.store(1);
    for (auto& p : pending_) p.v.store(0);
  }

  void Step(Client* c) override {
    const uint64_t r = c->rng.Uniform(100);
    if (r < 45) {
      std::atomic<Key>& mine = pending_[static_cast<size_t>(c->id)].v;
      mine.store(kClaiming);
      const Key k = next_.fetch_add(1);
      mine.store(k);
      c->Begin("ConcurrentMap::Insert");
      const obtree::Status s = map_->Insert(k, ValueFor(k));
      c->Finish(kInsert, 1);
      mine.store(0);
      c->Record(Classify(s, Expect::kSuccess), "Insert of a fresh timestamp failed", k);
      if (s.ok()) ++c->inserts_ok;
    } else if (r < 90) {
      const Key k = oldest_.fetch_add(1);
      c->Begin("ConcurrentMap::Erase");
      const obtree::Status s = map_->Erase(k);
      c->Finish(kErase, 1);
      c->Record(Classify(s, Expect::kSuccess), "Erase of the oldest key failed", k);
      if (s.ok()) ++c->erases_ok;
    } else {
      ScanBuffers& sc = scan_buffers_[static_cast<size_t>(c->id)];
      const Key hi = next_.load() - 1;
      const Key lo = hi >= kScanKeys ? hi - (kScanKeys - 1) : 1;
      sc.in_flight.clear();
      size_t unknown = 0;
      for (const auto& p : pending_) {
        const Key k = p.v.load();
        if (k == kClaiming) ++unknown;
        if (k != 0 && k != kClaiming) sc.in_flight.push_back(k);
      }
      sc.got.clear();
      c->Begin("ConcurrentMap::Scan");
      map_->Scan(lo, hi, [&sc](Key k, Value v) {
        sc.got.emplace_back(k, v);
        return true;
      });
      c->Finish(kScan, 1);
      const std::string err =
          CheckWindowScan(sc.got, lo, hi, oldest_.load(), sc.in_flight, unknown);
      c->Record(err.empty() ? Outcome::kOk : Outcome::kWrong, err.c_str(), lo);
    }
  }

  std::string FinalCheck(const std::vector<std::unique_ptr<Client>>& clients) override {
    int64_t expected = static_cast<int64_t>(cfg_.keys);
    for (const auto& c : clients) expected += c->inserts_ok - c->erases_ok;
    const Key lo = oldest_.load(), hi = next_.load();
    if (expected < 0 || static_cast<uint64_t>(expected) != hi - lo) {
      return "model window [" + std::to_string(lo) + ", " + std::to_string(hi) +
             ") disagrees with the successful inserts and erases";
    }
    return CheckFinalState(*map_, static_cast<uint64_t>(expected),
                           [lo, hi](Key k) { return k >= lo && k < hi; });
  }

  obtree::ConcurrentMap* map() override { return map_.get(); }

  WorkloadFacts facts() const override {
    WorkloadFacts f;
    f.preloaded_keys = cfg_.keys;
    f.key_space = cfg_.keys;  // the window's width
    return f;
  }

  std::vector<Key> PresentKeys(size_t n, Rng* rng) const override {
    const Key lo = oldest_.load(), hi = next_.load();
    std::vector<Key> out;
    for (size_t i = 0; i < n && hi > lo; ++i) out.push_back(lo + rng->Uniform(hi - lo));
    return out;
  }

  std::vector<Key> FreshKeys(size_t n, Rng*) const override {
    std::vector<Key> out(n);
    std::iota(out.begin(), out.end(), next_.load());
    return out;
  }

 private:
  static constexpr Key kClaiming = ~Key{0};
  static constexpr Key kScanKeys = 100;

  struct alignas(64) Pending {
    std::atomic<Key> v{0};
  };
  struct ScanBuffers {
    std::vector<std::pair<Key, Value>> got;
    std::vector<Key> in_flight;
  };

  const RunConfig cfg_;
  std::unique_ptr<obtree::ConcurrentMap> map_;
  std::atomic<Key> next_{1};
  std::atomic<Key> oldest_{1};
  std::vector<Pending> pending_;
  std::vector<ScanBuffers> scan_buffers_;
};

// ------------------------------------------------------------ durable-zipf
//
// Keys 2i+1 for i in [0, keys): loaded, checkpointed, and reopened with
// ConcurrentMap::Recover behind a buffer pool of 1/8 of the tree's pages.
// Clients send 90% 16-key MultiGet / 10% Upsert on Zipf(0.99) ranks
// scattered over the key set; client 0 also calls Checkpoint() every
// kCheckpointPeriodMs. Upserts write ValueFor(key), so the key set and
// every value are fixed and each result is checked exactly.
class DurableZipf : public Workload {
 public:
  explicit DurableZipf(const RunConfig& cfg)
      : cfg_(cfg),
        zipf_(cfg.keys, 0.99),
        scatter_(cfg.keys, cfg.seed ^ 0x7a697066ULL),
        dir_(cfg.workdir + "/durable-zipf"),
        batch_(kClients) {}

  void Setup(OpSlot* slot) override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
    obtree::MapOptions options;
    options.tree.storage_dir = dir_;
    {
      obtree::ConcurrentMap loader(options);
      Require(loader.init_status(), "open FileStore");
      BeginOp(slot, "setup: ConcurrentMap::Insert (load)", kSetupLimitNs, NowNs());
      for (uint64_t i = 0; i < cfg_.keys; ++i) {
        Require(loader.Insert(2 * i + 1, ValueFor(2 * i + 1)), "load insert");
      }
      BeginOp(slot, "setup: ConcurrentMap::Checkpoint", kSetupLimitNs, NowNs());
      Require(loader.Checkpoint(), "checkpoint");
      EndOp(slot);
      pool_pages_ = std::max<uint64_t>(64, loader.tree()->internal_pager()->live_pages() / 8);
    }
    options.tree.buffer_pool_pages = static_cast<uint32_t>(pool_pages_);
    const uint64_t t0 = NowNs();
    BeginOp(slot, "setup: ConcurrentMap::Recover", kSetupLimitNs, t0);
    auto recovered = obtree::ConcurrentMap::Recover(options);
    EndOp(slot);
    recover_s_ = static_cast<double>(NowNs() - t0) * 1e-9;
    Require(recovered.status(), "recover");
    map_ = std::move(recovered).value();
  }

  void Step(Client* c) override {
    if (c->id == 0) {
      const uint64_t now = NowNs();
      if (next_checkpoint_ns_ == 0) next_checkpoint_ns_ = now + Period();
      if (now >= next_checkpoint_ns_) {
        next_checkpoint_ns_ += Period();
        c->Begin("ConcurrentMap::Checkpoint");
        const obtree::Status s = map_->Checkpoint();
        c->Finish(kCheckpoint, 0);
        c->Record(Classify(s, Expect::kSuccess), "Checkpoint failed");
        return;
      }
    }
    if (c->rng.Uniform(100) < 90) {
      std::vector<Key>& keys = batch_[static_cast<size_t>(c->id)];
      keys.clear();
      for (int i = 0; i < kBatch; ++i) keys.push_back(ZipfKey(c));
      c->Begin("ConcurrentMap::MultiGet");
      const obtree::BatchResult res = map_->MultiGet(keys);
      c->Finish(kMultiGet, kBatch);
      if (res.values.size() != keys.size()) {
        c->Record(Outcome::kWrong, "MultiGet returned the wrong number of results");
        return;
      }
      for (size_t i = 0; i < keys.size(); ++i) {
        const auto& v = res.values[i];
        const Outcome o = !v.ok() ? Classify(v.status(), Expect::kSuccess)
                                  : (*v == ValueFor(keys[i]) ? Outcome::kOk : Outcome::kWrong);
        if (o != Outcome::kOk) {
          c->Record(o, "MultiGet: wrong value or lost key", keys[i]);
          return;
        }
      }
      c->Record(Outcome::kOk);
    } else {
      const Key k = ZipfKey(c);
      c->Begin("ConcurrentMap::Upsert");
      const obtree::Status s = map_->Upsert(k, ValueFor(k));
      c->Finish(kUpsert, 1);
      c->Record(Classify(s, Expect::kSuccess), "Upsert failed", k);
    }
  }

  std::string FinalCheck(const std::vector<std::unique_ptr<Client>>&) override {
    const Key limit = 2 * cfg_.keys + 1;
    return CheckFinalState(*map_, cfg_.keys, [limit](Key k) { return (k & 1) && k < limit; });
  }

  obtree::ConcurrentMap* map() override { return map_.get(); }

  WorkloadFacts facts() const override {
    WorkloadFacts f;
    f.preloaded_keys = cfg_.keys;
    f.key_space = 2 * cfg_.keys;
    f.pool_pages = pool_pages_;
    f.checkpoint_period_ms = kCheckpointPeriodMs;
    return f;
  }

  double recover_seconds() const override { return recover_s_; }

  std::vector<Key> PresentKeys(size_t n, Rng* rng) const override {
    std::vector<Key> out;
    for (size_t i = 0; i < n; ++i) out.push_back(2 * rng->Uniform(cfg_.keys) + 1);
    return out;
  }

  std::vector<Key> FreshKeys(size_t n, Rng* rng) const override {
    const Permutation order(cfg_.keys, rng->Next());
    std::vector<Key> out;
    for (uint64_t i = 0; i < n && i < cfg_.keys; ++i) out.push_back(2 * order(i) + 2);
    return out;
  }

 private:
  static constexpr int kBatch = 16;
  static constexpr int kCheckpointPeriodMs = 500;  // the flush policy

  static constexpr uint64_t Period() { return uint64_t{kCheckpointPeriodMs} * 1000000; }

  Key ZipfKey(Client* c) const {
    return 2 * scatter_(zipf_.Next(&c->rng)) + 1;
  }

  const RunConfig cfg_;
  const Zipf zipf_;
  const Permutation scatter_;  // Zipf rank -> key index
  const std::string dir_;
  std::unique_ptr<obtree::ConcurrentMap> map_;
  std::vector<std::vector<Key>> batch_;
  uint64_t next_checkpoint_ns_ = 0;  // client 0 only
  uint64_t pool_pages_ = 0;
  double recover_s_ = 0;
};

}  // namespace

Client::Client(int id_in, uint64_t seed, OpSlot* slot, const RunFlags* flags,
               size_t span_capacity)
    : id(id_in),
      rng(SplitMix64(seed) ^ (0x636c69656e74ULL * static_cast<uint64_t>(id_in + 1))),
      spans(span_capacity),
      slot_(slot),
      flags_(flags) {}

void Client::Finish(OpKind kind, uint32_t keys) {
  const uint64_t end = NowNs();
  EndOp(slot_);
  if (slice_ < 0) return;
  LatencyHistogram* lat = latency[slice_];
  lat[ClassOf(kind)].Add(end - start_);
  if (kind == kScan) lat[kReadLat].Add(end - start_);  // a scan is a read too
  ++window_requests;
  keyops[slice_] += keys;
  if (traced_) {
    traced_keyops += keys;
    spans.Add(kind, static_cast<uint16_t>(id), start_, end, keys);
  } else {
    untraced_keyops += keys;
  }
}

void Client::Record(Outcome outcome, const char* what, Key key) {
  counters.Record(outcome);
  if ((outcome == Outcome::kWrong || outcome == Outcome::kError) && first_failure.empty()) {
    first_failure = std::string(what) + " (client " + std::to_string(id) + ", key " +
                    std::to_string(key) + ")";
  }
}

std::unique_ptr<Workload> MakeWorkload(const RunConfig& cfg) {
  if (cfg.workload == "mixed-uniform") return std::make_unique<MixedUniform>(cfg);
  if (cfg.workload == "ingest-window") return std::make_unique<IngestWindow>(cfg);
  if (cfg.workload == "durable-zipf") return std::make_unique<DurableZipf>(cfg);
  return nullptr;
}

}  // namespace perfbench
