// Copyright 2026 The obtree Authors.

#include "runner.h"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "ladder.h"
#include "obtree/storage/page_manager.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

using obtree::StatId;

constexpr uint64_t kTickNs = 100'000'000;  // traced / untraced alternation
constexpr size_t kSpanCapacity = 1u << 19;  // spans kept per client

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
      continue;
    }
    out += ch;
  }
  return out;
}

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

// The result object: the run's last line of output.
void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string line = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(std::max<uint64_t>(attempted, 1)) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    line += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + Num(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-44s %16s %s\n", m.name.c_str(), Num(m.value).c_str(), m.unit.c_str());
  }
}

// Pins the calling thread to the i-th allowed CPU (modulo their count);
// i < 0 restores every CPU.
void PinToCpu(int i) {
  static cpu_set_t all = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    sched_getaffinity(0, sizeof(set), &set);
    return set;
  }();
  if (i < 0) {
    sched_setaffinity(0, sizeof(all), &all);
    return;
  }
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &all)) cpus.push_back(c);
  }
  if (cpus.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[static_cast<size_t>(i) % cpus.size()], &one);
  sched_setaffinity(0, sizeof(one), &one);
}

int AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  return sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 0;
}

std::string LoadAverage() {
  std::string one;
  std::ifstream("/proc/loadavg") >> one;
  return one.empty() ? "?" : one;
}

// Host and run facts, so a later comparison can tell a changed host or
// configuration from a changed program.
std::string FactsJson(const RunConfig& cfg, const std::string& commit, const WorkloadFacts& f,
                      const std::string& load_at_start, const std::string& extra) {
  std::ostringstream o;
  o << "{\"run_facts\": {\"workload\": \"" << cfg.workload << "\", \"seed\": " << cfg.seed
    << ", \"trace\": " << (cfg.trace ? 1 : 0) << ", \"seconds\": " << Num(cfg.seconds)
    << ", \"warmup_s\": " << Num(cfg.warmup_s)
    << ", \"clients\": " << kClients << ", \"loop\": \"closed\""
    << ", \"cpus_online\": " << std::thread::hardware_concurrency()
    << ", \"cpus_allowed\": " << AllowedCpus() << ", \"loadavg_1m_at_start\": \""
    << load_at_start << "\", \"compiler\": \"" << JsonEscape(PERFBENCH_COMPILER)
    << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\", \"commit\": \""
    << JsonEscape(commit) << "\", \"preloaded_keys\": " << f.preloaded_keys
    << ", \"key_space\": " << f.key_space << ", \"tree_pages_after_setup\": " << f.tree_pages
    << ", \"buffer_pool_pages\": " << f.pool_pages
    << ", \"checkpoint_period_ms\": " << f.checkpoint_period_ms << extra << "}}";
  return o.str();
}

// Write latency of requests that overlap a Checkpoint() span.
double CheckpointStallP99Us(const std::vector<std::unique_ptr<Client>>& clients) {
  std::vector<std::pair<uint64_t, uint64_t>> checkpoints;
  for (const auto& c : clients) {
    for (const Span& s : c->spans.spans()) {
      if (s.kind == kCheckpoint) checkpoints.emplace_back(s.start_ns, s.end_ns);
    }
  }
  LatencyHistogram stalled;
  for (const auto& c : clients) {
    for (const Span& s : c->spans.spans()) {
      if (s.kind != kInsert && s.kind != kErase && s.kind != kUpsert) continue;
      for (const auto& cp : checkpoints) {
        if (s.start_ns < cp.second && cp.first < s.end_ns) {
          stalled.Add(s.end_ns - s.start_ns);
          break;
        }
      }
    }
  }
  return stalled.Percentile(99) / 1000.0;
}

// Per-layer counters of the measured window (StatsCollector was reset at
// its start), per key-op where a rate is asked for.
// The buffer-pool, FileStore and checkpoint rows exist only on a
// FileStore-backed map.
std::vector<Metric> WindowLayerMetrics(const obtree::StatsSnapshot& d,
                                       const obtree::Histogram& lock_wait, double keyops,
                                       double traced_rate, double untraced_rate,
                                       bool file_backed, double stall_p99_us) {
  auto g = [&d](StatId id) { return static_cast<double>(d.Get(id)); };
  const double user_writes = g(StatId::kInserts) + g(StatId::kDeletes);
  const double splits = g(StatId::kSplits);
  std::vector<Metric> file_rows;
  if (file_backed) {
    file_rows = {
        {"storage.pool.hit_ratio", 1.0 - Ratio(g(StatId::kStoreReads), g(StatId::kGets)),
         "ratio"},
        {"storage.pool.evictions_per_op", Ratio(g(StatId::kPagesEvicted), keyops), "1/op"},
        {"storage.filestore.write_bytes_per_user_byte",
         Ratio(g(StatId::kStoreWrites) * static_cast<double>(obtree::kPageSize),
               user_writes * static_cast<double>(sizeof(Key) + sizeof(Value))),
         "ratio"},
        {"storage.checkpoint.stall_p99_us", stall_p99_us, "us"},
    };
  }
  std::vector<Metric> rows = {
      {"storage.optimistic_retry_ratio",
       Ratio(g(StatId::kOptimisticRetries),
             g(StatId::kOptimisticValidations) + g(StatId::kOptimisticRetries)),
       "ratio"},
      {"storage.optimistic_fallbacks_per_mop", Ratio(g(StatId::kOptimisticFallbacks) * 1e6, keyops),
       "1/Mop"},
      {"storage.lock_contended_ratio",
       Ratio(g(StatId::kLocksContended), g(StatId::kLocksAcquired)), "ratio"},
      {"storage.lock_parks_per_kop", Ratio(g(StatId::kLockParks) * 1e3, keyops), "1/kop"},
      {"storage.lock_wait_p99_ns",
       lock_wait.count() ? static_cast<double>(lock_wait.Percentile(99)) : 0, "ns"},
      {"storage.inplace_write_ratio",
       Ratio(g(StatId::kInplaceWrites), g(StatId::kInplaceWrites) + g(StatId::kPuts)), "ratio"},
      {"storage.write_bytes_per_write",
       Ratio(g(StatId::kWriteBytesInplace) + g(StatId::kWriteBytesCopied), user_writes),
       "B/write"},
      {"core.gets_per_op", Ratio(g(StatId::kGets), keyops), "1/op"},
      {"core.link_follows_per_op", Ratio(g(StatId::kLinkFollows), keyops), "1/op"},
      {"core.restarts_per_op", Ratio(g(StatId::kRestarts), keyops), "1/op"},
      {"core.append_hit_ratio",
       Ratio(g(StatId::kAppendFastHits), g(StatId::kAppendFastHits) + g(StatId::kAppendFastMisses)),
       "ratio"},
      {"core.splits_per_kinsert", Ratio(splits * 1e3, g(StatId::kInserts)), "1/kop"},
      {"core.tail_split_ratio", Ratio(g(StatId::kTailSplits), splits), "ratio"},
      {"core.compress.merges_per_kerase", Ratio(g(StatId::kMerges) * 1e3, g(StatId::kDeletes)),
       "1/kop"},
      {"core.compress.queue_discard_ratio",
       Ratio(g(StatId::kQueueDiscards), g(StatId::kQueueEnqueues)), "ratio"},
      {"core.compress.waits_per_merge", Ratio(g(StatId::kCompressWaits), g(StatId::kMerges)),
       "ratio"},
      {"trace.overhead_share", untraced_rate > 0 ? 1.0 - traced_rate / untraced_rate : 0, "ratio"},
  };
  rows.insert(rows.begin() + 7, file_rows.begin(), file_rows.end());
  return rows;
}

}  // namespace

int RunBenchmark(const RunConfig& cfg, const std::string& commit) {
  std::unique_ptr<Workload> wl = MakeWorkload(cfg);
  if (!wl) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", cfg.workload.c_str());
    return kExitUsage;
  }
  const std::string load_at_start = LoadAverage();
  const size_t n_clients = kClients;
  const size_t main_slot = n_clients, ladder_slot = n_clients + 1;
  Watchdog watchdog(n_clients + 4);
  for (size_t i = 0; i < n_clients; ++i) watchdog.slot(i)->owner = "client " + std::to_string(i);
  watchdog.slot(main_slot)->owner = "main";
  for (size_t i = 0; i < 3; ++i) watchdog.slot(ladder_slot + i)->owner = "ladder " + std::to_string(i);
  BindThread(watchdog.slot(main_slot));

  RunFlags flags;
  std::vector<std::unique_ptr<Client>> clients;
  for (size_t i = 0; i < n_clients; ++i) {
    clients.push_back(std::make_unique<Client>(static_cast<int>(i), cfg.seed, watchdog.slot(i),
                                               &flags, cfg.trace ? kSpanCapacity : 0));
  }
  RunCounters ladder_counters;
  std::string ladder_failure;
  std::mutex facts_mu;
  WorkloadFacts facts;  // guarded by facts_mu; read by the fire callback

  // A hang: report every call still running, count each as failed, and
  // exit without unwinding (stuck threads cannot be joined).
  watchdog.Start([&](const std::vector<StuckOp>& stuck) {
    uint64_t attempted = ladder_counters.attempted.load(), failed = ladder_counters.failed.load();
    for (const auto& c : clients) {
      attempted += c->counters.attempted.load();
      failed += c->counters.failed.load();
    }
    const size_t in_flight = watchdog.InFlight();
    std::printf("perfbench: deadline fired: %zu call(s) still running, failed_op_share %s\n",
                in_flight, Num(FailedShare(attempted, failed, in_flight)).c_str());
    for (const StuckOp& s : stuck) {
      std::printf("  stuck: %s in %s for %.1f s, thread state %s\n", s.owner.c_str(),
                  s.call.c_str(), s.running_s, s.thread_state.c_str());
      std::fprintf(stderr, "perfbench: %s stuck in %s for %.1f s (thread state %s)\n",
                   s.owner.c_str(), s.call.c_str(), s.running_s, s.thread_state.c_str());
    }
    {
      std::lock_guard<std::mutex> lk(facts_mu);
      std::printf("%s\n", FactsJson(cfg, commit, facts, load_at_start, "").c_str());
    }
    PrintResult(false, attempted, failed + in_flight, {});
    std::_Exit(kExitDeadline);
  });

  // Set-up. The map is built while this thread sits on the CPU after the
  // clients', so the compression worker inherits that CPU.
  PinToCpu(kClients);
  const uint64_t setup_start = NowNs();
  wl->Setup(watchdog.slot(main_slot));
  const double setup_s = static_cast<double>(NowNs() - setup_start) * 1e-9;
  PinToCpu(-1);
  obtree::ConcurrentMap* map = wl->map();
  {
    std::lock_guard<std::mutex> lk(facts_mu);
    facts = wl->facts();
    facts.tree_pages = map->tree()->internal_pager()->live_pages();
  }

  std::vector<std::thread> threads;
  for (auto& c : clients) {
    threads.emplace_back([&wl, &flags, client = c.get(), &watchdog] {
      BindThread(watchdog.slot(static_cast<size_t>(client->id)));
      PinToCpu(client->id);
      while (!flags.stop.load(std::memory_order_relaxed)) wl->Step(client);
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(cfg.warmup_s));

  // The measured window, cut into kSlices slices. A traced run also
  // alternates traced and untraced ticks so trace.overhead_share compares
  // like with like.
  map->tree()->stats()->Reset();
  const uint64_t t0 = NowNs(), window_ns = static_cast<uint64_t>(cfg.seconds * 1e9);
  std::vector<double> slice_s(kSlices);
  uint64_t traced_ns = 0, untraced_ns = 0, now = t0;
  bool traced = false;
  for (int slice = 0; slice < kSlices; ++slice) {
    const uint64_t slice_start = now, slice_end = t0 + window_ns * (slice + 1) / kSlices;
    flags.slice.store(slice);
    while (now < slice_end) {
      const uint64_t tick_start = now, until = std::min(now + kTickNs, slice_end);
      std::this_thread::sleep_for(std::chrono::nanoseconds(until - std::min(until, NowNs())));
      now = NowNs();
      (traced ? traced_ns : untraced_ns) += now - tick_start;
      if (cfg.trace) {
        traced = !traced;
        flags.tracing.store(traced);
      }
    }
    slice_s[static_cast<size_t>(slice)] = static_cast<double>(now - slice_start) * 1e-9;
  }
  flags.slice.store(-1);
  flags.tracing.store(false);
  const double window_s = static_cast<double>(now - t0) * 1e-9;
  const obtree::StatsSnapshot window_stats = map->Stats();
  const obtree::Histogram lock_wait = map->tree()->stats()->LockWaitHistogram();
  flags.stop.store(true);
  for (auto& t : threads) t.join();

  // Model checks.
  BeginOp(watchdog.slot(main_slot), "final check: ConcurrentMap::Scan", kSetupLimitNs, NowNs());
  const std::string final_error = wl->FinalCheck(clients);
  EndOp(watchdog.slot(main_slot));

  uint64_t attempted = 1, failed = final_error.empty() ? 0 : 1;  // the final check
  std::vector<std::string> failures;
  if (!final_error.empty()) failures.push_back("final check: " + final_error);
  LatencyHistogram lat[kNumLatClasses];  // whole window
  LatencyHistogram slice_lat[kSlices][kNumLatClasses];
  std::vector<double> slice_keyops(kSlices);
  double keyops = 0, traced_keyops = 0, untraced_keyops = 0, requests = 0;
  for (const auto& c : clients) {
    attempted += c->counters.attempted.load();
    failed += c->counters.failed.load();
    if (!c->first_failure.empty()) failures.push_back(c->first_failure);
    for (size_t i = 0; i < kSlices; ++i) {
      for (int k = 0; k < kNumLatClasses; ++k) {
        lat[k].Merge(c->latency[i][k]);
        slice_lat[i][k].Merge(c->latency[i][k]);
      }
      slice_keyops[i] += static_cast<double>(c->keyops[i]);
      keyops += static_cast<double>(c->keyops[i]);
    }
    traced_keyops += static_cast<double>(c->traced_keyops);
    untraced_keyops += static_cast<double>(c->untraced_keyops);
    requests += static_cast<double>(c->window_requests);
  }
  // Median over slices of a per-slice value.
  auto slice_median = [&](auto per_slice) {
    std::vector<double> v;
    for (size_t i = 0; i < kSlices; ++i) v.push_back(per_slice(i));
    return Median(v);
  };
  auto latency_us = [&](int k, double p) {
    return slice_median([&](size_t i) { return slice_lat[i][k].Percentile(p) / 1000.0; });
  };

  const double live_bytes =
      static_cast<double>(map->tree()->internal_pager()->live_pages() * obtree::kPageSize);
  const std::vector<Metric> e2e = {
      {"ops_per_s", slice_median([&](size_t i) { return slice_keyops[i] / slice_s[i]; }), "1/s"},
      {"read_p50_us", latency_us(kReadLat, 50), "us"},
      {"read_p99_us", latency_us(kReadLat, 99), "us"},
      {"write_p50_us", latency_us(kWriteLat, 50), "us"},
      {"write_p99_us", latency_us(kWriteLat, 99), "us"},
      {"setup_s", setup_s, "s"},
      {"bytes_per_key", Ratio(live_bytes, static_cast<double>(map->Size())), "B"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
  // Reported, but not in every workload or not usable as a bound.
  std::vector<Metric> extra = {
      {"failed_op_share", FailedShare(attempted, failed), "ratio"},
      {"window_ops_per_s", keyops / window_s, "1/s"},
      {"requests_per_s", requests / window_s, "1/s"},
  };
  static const char* kClassNames[kNumLatClasses] = {"read", "write", "scan", "checkpoint"};
  for (int k = 0; k < kNumLatClasses; ++k) {
    const std::string n = kClassNames[k];
    if (lat[k].count() == 0) continue;
    const double tail = TailPercentile(lat[k].count());
    extra.push_back({n + "_samples", static_cast<double>(lat[k].count()), "count"});
    if (k == kScanLat) {
      extra.push_back({"scan_p50_us", latency_us(k, 50), "us"});
      extra.push_back({"scan_p99_us", latency_us(k, 99), "us"});
    }
    if (k == kCheckpointLat) {  // a few per run: the whole window's median
      extra.push_back({"checkpoint_s", lat[k].Percentile(50) * 1e-9, "s"});
    } else {
      extra.push_back({n + "_tail_pct", tail, "%"});
      extra.push_back({n + "_tail_us", lat[k].Percentile(tail) / 1000.0, "us"});
    }
  }
  if (wl->recover_seconds() > 0) extra.push_back({"recover_s", wl->recover_seconds(), "s"});

  std::vector<Metric> layers;
  std::string extra_facts;
  if (cfg.trace) {
    layers = WindowLayerMetrics(window_stats, lock_wait, keyops,
                                Ratio(traced_keyops, static_cast<double>(traced_ns) * 1e-9),
                                Ratio(untraced_keyops, static_cast<double>(untraced_ns) * 1e-9),
                                !map->tree()->options().storage_dir.empty(),
                                CheckpointStallP99Us(clients));
    SpanBuffer ladder_spans(4096);
    std::vector<std::string> rung_names;
    RunLadder(LadderEnv{wl.get(), &cfg, &watchdog, ladder_slot, &ladder_counters, &ladder_spans,
                        &ladder_failure},
              &layers, &rung_names);
    attempted += ladder_counters.attempted.load();
    failed += ladder_counters.failed.load();
    if (!ladder_failure.empty()) failures.push_back(ladder_failure);

    std::vector<const SpanBuffer*> buffers;
    uint64_t spans = 0, dropped = 0;
    for (const auto& c : clients) {
      buffers.push_back(&c->spans);
      spans += c->spans.spans().size();
      dropped += c->spans.dropped();
    }
    buffers.push_back(&ladder_spans);
    const std::string path =
        cfg.workdir + "/trace-" + cfg.workload + "-seed" + std::to_string(cfg.seed) + ".csv";
    const bool written = WriteSpans(path, cfg.workload, t0, buffers, rung_names);
    extra_facts = ", \"spans_recorded\": " + std::to_string(spans) +
                  ", \"spans_dropped\": " + std::to_string(dropped) + ", \"span_file\": \"" +
                  JsonEscape(written ? path : "(write failed)") + "\"";
  }

  const bool correct = failed == 0;
  std::printf("perfbench %s seed=%llu trace=%d window=%.2fs\n", cfg.workload.c_str(),
              static_cast<unsigned long long>(cfg.seed), cfg.trace ? 1 : 0, window_s);
  PrintMetrics("end-to-end:", e2e);
  PrintMetrics("also reported:", extra);
  std::printf("ops_per_s by slice:");
  for (size_t i = 0; i < kSlices; ++i) std::printf(" %.4g", slice_keyops[i] / slice_s[i]);
  std::printf("\n");
  if (cfg.trace) PrintMetrics("per-layer:", layers);
  for (const std::string& f : failures) std::printf("FAILED: %s\n", f.c_str());
  std::printf("%s\n", FactsJson(cfg, commit, facts, load_at_start, extra_facts).c_str());
  PrintResult(correct, attempted, failed, cfg.trace ? layers : e2e);

  // Tear the map down while the watchdog still runs: a hang here is a
  // failure too, and the callback reads the clients.
  BeginOp(watchdog.slot(main_slot), "teardown: ConcurrentMap::~ConcurrentMap", kSetupLimitNs,
          NowNs());
  wl.reset();
  EndOp(watchdog.slot(main_slot));
  watchdog.Stop();
  return correct ? kExitOk : kExitCheckFailed;
}

}  // namespace perfbench
