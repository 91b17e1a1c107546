// Copyright 2026 The obtree Authors.

#include "ladder.h"

#include <algorithm>
#include <deque>
#include <filesystem>
#include <thread>

#include "obtree/api/sharded_map.h"
#include "obtree/node/node.h"
#include "obtree/storage/file_store.h"
#include "obtree/storage/page_manager.h"

namespace perfbench {

namespace {

constexpr int kReps = 3;
constexpr uint64_t kBudgetNs = 100'000'000;  // per rung repetition
constexpr uint64_t kNoBudget = ~uint64_t{0};
constexpr uint64_t kRungLimitNs = 30'000'000'000ull;
constexpr size_t kMaxCalls = 2'000'000;
constexpr size_t kPresentKeys = 1 << 16;
constexpr size_t kFreshPerThread = 20'000;
constexpr uint64_t kSmallMapKeys = 1 << 16;
constexpr size_t kBatchKeys = 16;
constexpr obtree::PageId kStorePages = 256;

// Keeps the compiler from discarding a computed value.
template <class T>
inline void Keep(const T& v) {
  asm volatile("" : : "r,m"(v) : "memory");
}

class Ladder {
 public:
  explicit Ladder(const LadderEnv& env) : env_(env) {}

  void Run(std::vector<Metric>* out);
  std::vector<std::string> names() const { return {names_.begin(), names_.end()}; }

 private:
  // Runs body(t, i) on `threads` threads; thread t makes max_calls[t]
  // calls or stops once `budget_ns` has passed. Returns the mean over
  // threads of ns per call; *calls receives each thread's call count.
  template <class F>
  double Time(const std::string& rung, int threads, const std::vector<size_t>& max_calls,
              uint64_t budget_ns, const F& body, std::vector<size_t>* calls = nullptr);

  // Median over kReps repetitions of a time-bounded rung.
  template <class F>
  double Median3(const std::string& rung, int threads, const F& body) {
    std::vector<double> v;
    for (int r = 0; r < kReps; ++r) {
      v.push_back(Time(rung, threads, std::vector<size_t>(threads, kMaxCalls), kBudgetNs, body));
    }
    return Median(v);
  }

  // One checked call outside any rung (set-up and clean-up of a rung).
  void Check(bool ok, const std::string& what) {
    env_.counters->attempted.fetch_add(1, std::memory_order_relaxed);
    if (!ok) Fail(1, what);
  }

  void Fail(uint64_t n, const std::string& what) {
    env_.counters->failed.fetch_add(n, std::memory_order_relaxed);
    if (env_.first_failure->empty()) *env_.first_failure = "ladder: " + what;
  }

  void Add(const std::string& name, double value, const char* unit) {
    out_->push_back(Metric{name, value, unit});
  }

  // Inserts then erases `fresh` keys with `insert` / `erase` at 1 and 3
  // threads; reports the medians as <prefix>insert_ns / <prefix>delete_ns
  // (or <erase_name>) per thread count.
  template <class Ins, class Del>
  void InsertDeleteRungs(const std::string& prefix, const char* erase_name, bool time_erase,
                         const Ins& insert, const Del& erase);

  const LadderEnv& env_;
  std::deque<std::string> names_;  // stable c_str() for the watchdog
  std::vector<std::vector<Key>> fresh_;
  std::vector<Metric>* out_ = nullptr;
};

template <class F>
double Ladder::Time(const std::string& rung, int threads, const std::vector<size_t>& max_calls,
                    uint64_t budget_ns, const F& body, std::vector<size_t>* calls_out) {
  auto it = std::find(names_.begin(), names_.end(), rung);
  if (it == names_.end()) it = names_.insert(names_.end(), rung);
  const uint32_t rung_id = static_cast<uint32_t>(it - names_.begin());
  const char* call = it->c_str();

  const size_t n = static_cast<size_t>(threads);
  std::vector<uint64_t> start(n), elapsed(n), fails(n);
  std::vector<size_t> calls(n);
  std::atomic<int> ready{0};
  std::vector<std::thread> pool;
  for (size_t t = 0; t < n; ++t) {
    pool.emplace_back([&, t] {
      OpSlot* slot = env_.watchdog->slot(env_.first_slot + t);
      BindThread(slot);
      ready.fetch_add(1);
      while (ready.load() < threads) std::this_thread::yield();
      const uint64_t t0 = NowNs();
      BeginOp(slot, call, kRungLimitNs, t0);
      size_t i = 0;
      uint64_t f = 0;
      while (i < max_calls[t]) {
        if (!body(static_cast<int>(t), i)) ++f;
        ++i;
        if ((i & 31) == 0 && NowNs() - t0 > budget_ns) break;
      }
      const uint64_t t1 = NowNs();
      EndOp(slot);
      start[t] = t0;
      elapsed[t] = t1 - t0;
      calls[t] = i;
      fails[t] = f;
    });
  }
  for (auto& th : pool) th.join();

  double ns = 0;
  uint64_t total_calls = 0, total_fails = 0;
  for (size_t t = 0; t < n; ++t) {
    env_.spans->Add(kLadder, static_cast<uint16_t>(t), start[t], start[t] + elapsed[t], rung_id);
    ns += calls[t] ? static_cast<double>(elapsed[t]) / static_cast<double>(calls[t]) : 0;
    total_calls += calls[t];
    total_fails += fails[t];
  }
  env_.counters->attempted.fetch_add(total_calls, std::memory_order_relaxed);
  if (total_fails > 0) Fail(total_fails, rung + ": " + std::to_string(total_fails) + " calls failed");
  if (calls_out != nullptr) *calls_out = calls;
  return ns / static_cast<double>(n);
}

template <class Ins, class Del>
void Ladder::InsertDeleteRungs(const std::string& prefix, const char* erase_name, bool time_erase,
                               const Ins& insert, const Del& erase) {
  for (int threads : {1, 3}) {
    const std::string suffix = "." + std::to_string(threads) + "t";
    std::vector<double> ins, del;
    for (int r = 0; r < kReps; ++r) {
      std::vector<size_t> done;
      ins.push_back(Time(prefix + "insert_ns" + suffix, threads,
                         std::vector<size_t>(threads, kFreshPerThread), kBudgetNs, insert, &done));
      if (time_erase) {
        del.push_back(Time(prefix + erase_name + suffix, threads, done, kNoBudget, erase));
      } else {
        for (int t = 0; t < threads; ++t) {
          for (size_t i = 0; i < done[t]; ++i) Check(erase(t, i), prefix + "clean-up erase");
        }
      }
    }
    Add(prefix + "insert_ns" + suffix, Median(ins), "ns");
    if (time_erase) Add(prefix + erase_name + suffix, Median(del), "ns");
  }
}

void Ladder::Run(std::vector<Metric>* out) {
  out_ = out;
  obtree::ConcurrentMap* map = env_.workload->map();
  obtree::SagivTree* tree = map->tree();
  obtree::PageManager* pager = tree->internal_pager();
  Rng rng(env_.cfg->seed ^ 0x6c6164646572ULL);
  const std::vector<Key> present = env_.workload->PresentKeys(kPresentKeys, &rng);
  const std::vector<Key> fresh = env_.workload->FreshKeys(3 * kFreshPerThread, &rng);
  fresh_.assign(3, {});
  for (size_t j = 0; j < fresh.size(); ++j) fresh_[j % 3].push_back(fresh[j]);
  const size_t np = present.size();
  auto key_at = [&present, np](int t, size_t i) { return present[(i + 7919 * t) % np]; };

  // util: one epoch pin on the tree's own manager.
  obtree::EpochManager* epoch = tree->epoch();
  double pin_1t = 0;
  for (int threads : {1, 3}) {
    const std::string suffix = std::to_string(threads) + "t";
    const double ns = Median3("util.epoch.pin." + suffix, threads, [epoch](int, size_t) {
      obtree::EpochManager::Guard g(epoch);
      Keep(g.start_time());
      return true;
    });
    Add("util.epoch.pin_ns." + suffix, ns, "ns");
    if (threads == 1) pin_1t = ns;
  }

  // node: binary search over a full leaf of the workload's keys.
  {
    obtree::Page page;
    page.Clear();
    obtree::Node* leaf = page.As<obtree::Node>();
    leaf->Init(0, 0, obtree::kPlusInfinity, obtree::kInvalidPageId);
    std::vector<Key> keys(present.begin(),
                          present.begin() + std::min<size_t>(np, tree->options().capacity()));
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    for (Key k : keys) leaf->InsertLeafEntry(k, ValueFor(k));
    Add("node.lower_bound_ns", Median3("node.lower_bound", 1, [&](int t, size_t i) {
          Keep(leaf->LowerBound(key_at(t, i)));
          return true;
        }),
        "ns");
  }

  // storage: in-place reads and paper locks on the tree's leaf pages.
  std::vector<obtree::PageId> leaves;
  for (size_t i = 0; i < std::min<size_t>(np, 4096); ++i) {
    auto id = tree->internal_FindNodeAtLevel(present[i], 0, nullptr);
    Check(id.ok(), "leaf lookup");
    if (id.ok()) leaves.push_back(*id);
  }
  std::sort(leaves.begin(), leaves.end());
  leaves.erase(std::unique(leaves.begin(), leaves.end()), leaves.end());
  if (leaves.size() < 3) {
    Fail(1, "fewer than 3 leaves");
    return;
  }
  for (size_t i = leaves.size(); i > 1; --i) std::swap(leaves[i - 1], leaves[rng.Uniform(i)]);
  const double read_ns = Median3("storage.optimistic_read", 1, [&](int, size_t i) {
    const obtree::PageManager::ReadGuard g = pager->OptimisticRead(leaves[i % leaves.size()]);
    Keep(g.Validate());
    return true;
  });
  Add("storage.optimistic_read_ns", read_ns, "ns");
  for (int threads : {1, 3}) {
    Add("storage.lock_ns." + std::to_string(threads) + "t",
        Median3("storage.lock." + std::to_string(threads) + "t", threads,
                [&](int t, size_t) {
                  pager->Lock(leaves[static_cast<size_t>(t)]);
                  pager->Unlock(leaves[static_cast<size_t>(t)]);
                  return true;
                }),
        "ns");
  }

  // storage: FileStore page I/O on a separate store (page-cache backed).
  {
    const std::string dir = env_.cfg->workdir + "/ladder-store";
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    {
      auto store = obtree::FileStore::Open(dir);
      Check(store.ok(), "FileStore::Open");
      if (!store.ok()) return;
      obtree::FileStore* fs = store->get();
      obtree::Page page;
      for (uint8_t& b : page.bytes) b = static_cast<uint8_t>(rng.Next());
      for (obtree::PageId id = 0; id < kStorePages; ++id) {
        Check(fs->WritePage(id, page.bytes).ok(), "FileStore::WritePage");
      }
      obtree::StoreMeta meta;
      Check(fs->Commit(&meta).ok(), "FileStore::Commit");
      Add("storage.filestore.read_page_us",
          Median3("storage.filestore.read_page", 1,
                  [&](int, size_t i) {
                    obtree::Page buf;
                    return fs->ReadPage(static_cast<obtree::PageId>(i % kStorePages), buf.bytes)
                        .ok();
                  }) / 1000.0,
          "us");
      Add("storage.filestore.write_page_us",
          Median3("storage.filestore.write_page", 1,
                  [&](int, size_t i) {
                    return fs->WritePage(static_cast<obtree::PageId>(i % kStorePages), page.bytes)
                        .ok();
                  }) / 1000.0,
          "us");
    }
    std::filesystem::remove_all(dir, ec);
  }

  // core: the tree's own operations.
  const obtree::StatsSnapshot before = map->Stats();
  double search_1t = 0;
  for (int threads : {1, 3}) {
    const double ns = Median3("core.search." + std::to_string(threads) + "t", threads,
                              [&](int t, size_t i) {
                                const Key k = key_at(t, i);
                                const obtree::Result<Value> v = tree->Search(k);
                                return v.ok() && *v == ValueFor(k);
                              });
    if (threads == 1) {
      search_1t = ns;
      const obtree::StatsSnapshot d = map->Stats().Delta(before);
      const double gets_per_search = Ratio(static_cast<double>(d.Get(obtree::StatId::kGets)),
                                           static_cast<double>(d.Get(obtree::StatId::kSearches)));
      Add("core.self_ns", ns - gets_per_search * read_ns - pin_1t, "ns");
    }
    Add("core.search_ns." + std::to_string(threads) + "t", ns, "ns");
  }
  InsertDeleteRungs(
      "core.", "delete_ns", true,
      [&](int t, size_t i) {
        const Key k = fresh_[static_cast<size_t>(t)][i];
        return tree->Insert(k, ValueFor(k)).ok();
      },
      [&](int t, size_t i) { return tree->Delete(fresh_[static_cast<size_t>(t)][i]).ok(); });

  // api: the map users call.
  double map_get_3t = 0;
  for (int threads : {1, 3}) {
    const double ns = Median3("api.map.get." + std::to_string(threads) + "t", threads,
                              [&](int t, size_t i) {
                                const Key k = key_at(t, i);
                                const obtree::Result<Value> v = map->Get(k);
                                return v.ok() && *v == ValueFor(k);
                              });
    Add("api.map.get_ns." + std::to_string(threads) + "t", ns, "ns");
    if (threads == 1) Add("api.map.self_ns", ns - search_1t, "ns");
    if (threads == 3) map_get_3t = ns;
  }
  InsertDeleteRungs(
      "api.map.", "", false,
      [&](int t, size_t i) {
        const Key k = fresh_[static_cast<size_t>(t)][i];
        return map->Insert(k, ValueFor(k)).ok();
      },
      [&](int t, size_t i) { return map->Erase(fresh_[static_cast<size_t>(t)][i]).ok(); });

  // api batch: 16-key MultiGet on the workload's map, and on a small map
  // of the other backend (in memory vs FileStore) built here.
  {
    const bool file_backed = !tree->options().storage_dir.empty();
    std::vector<std::vector<Key>> batches(1024);
    for (auto& b : batches) {
      for (size_t j = 0; j < kBatchKeys; ++j) b.push_back(present[rng.Uniform(np)]);
    }
    obtree::BatchStats acc;
    const double own = Median3("api.batch.multiget." + std::string(file_backed ? "file" : "mem"),
                               1, [&](int, size_t i) {
                                 const auto& keys = batches[i % batches.size()];
                                 const obtree::BatchResult r = map->MultiGet(keys);
                                 acc += r.stats;
                                 for (size_t j = 0; j < keys.size(); ++j) {
                                   if (!r.values[j].ok() || *r.values[j] != ValueFor(keys[j])) {
                                     return false;
                                   }
                                 }
                                 return true;
                               }) /
                       kBatchKeys;
    Add("api.batch.pages_coalesced_per_key", Ratio(acc.pages_coalesced, acc.ops), "count");
    Add("api.batch.io_overlapped_per_key", Ratio(acc.io_overlapped, acc.ops), "count");

    obtree::MapOptions options;
    options.compression = obtree::CompressionMode::kNone;
    const std::string dir = env_.cfg->workdir + "/ladder-map";
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    if (!file_backed) options.tree.storage_dir = dir;
    double other = 0;
    {
      obtree::ConcurrentMap small(options);
      for (Key k = 1; k <= kSmallMapKeys; ++k) Check(small.Insert(k, ValueFor(k)).ok(), "small map load");
      std::vector<std::vector<Key>> small_batches(1024);
      for (auto& b : small_batches) {
        for (size_t j = 0; j < kBatchKeys; ++j) b.push_back(1 + rng.Uniform(kSmallMapKeys));
      }
      other = Median3("api.batch.multiget." + std::string(file_backed ? "mem" : "file"), 1,
                      [&](int, size_t i) {
                        const auto& keys = small_batches[i % small_batches.size()];
                        const obtree::BatchResult r = small.MultiGet(keys);
                        for (size_t j = 0; j < keys.size(); ++j) {
                          if (!r.values[j].ok() || *r.values[j] != ValueFor(keys[j])) return false;
                        }
                        return true;
                      }) /
              kBatchKeys;
    }
    std::filesystem::remove_all(dir, ec);
    Add("api.batch.multiget_ns_per_key.mem", file_backed ? other : own, "ns");
    Add("api.batch.multiget_ns_per_key.file", file_backed ? own : other, "ns");
  }

  // api sharded: 4 static shards holding the workload's keys.
  {
    std::vector<Key> all;
    all.reserve(map->Size());
    map->Scan(1, obtree::kMaxUserKey, [&all](Key k, Value) {
      all.push_back(k);
      return true;
    });
    obtree::ShardOptions options;
    options.num_shards = 4;
    options.pool_threads = 1;
    Key max_key = all.empty() ? 1 : all.back();
    for (Key k : fresh) max_key = std::max(max_key, k);
    options.key_space_hint = max_key + 1;
    obtree::ShardedMap sharded(options);
    for (Key k : all) Check(sharded.Insert(k, ValueFor(k)).ok(), "sharded load");
    const double get_3t = Median3("api.sharded.get.3t", 3, [&](int t, size_t i) {
      const Key k = key_at(t, i);
      const obtree::Result<Value> v = sharded.Get(k);
      return v.ok() && *v == ValueFor(k);
    });
    Add("api.sharded.get_ns.3t", get_3t, "ns");
    Add("api.sharded.self_ns", get_3t - map_get_3t, "ns");
    std::vector<double> ins;
    for (int r = 0; r < kReps; ++r) {
      std::vector<size_t> done;
      ins.push_back(Time("api.sharded.insert.3t", 3, std::vector<size_t>(3, kFreshPerThread),
                         kBudgetNs,
                         [&](int t, size_t i) {
                           const Key k = fresh_[static_cast<size_t>(t)][i];
                           return sharded.Insert(k, ValueFor(k)).ok();
                         },
                         &done));
      for (size_t t = 0; t < 3; ++t) {
        for (size_t i = 0; i < done[t]; ++i) Check(sharded.Erase(fresh_[t][i]).ok(), "sharded clean-up erase");
      }
    }
    Add("api.sharded.insert_ns.3t", Median(ins), "ns");
  }
}

}  // namespace

void RunLadder(const LadderEnv& env, std::vector<Metric>* out,
               std::vector<std::string>* rung_names) {
  Ladder ladder(env);
  ladder.Run(out);
  *rung_names = ladder.names();
}

}  // namespace perfbench
