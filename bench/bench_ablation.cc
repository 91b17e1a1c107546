// Copyright 2026 The obtree Authors.
//
// E10 — ablation of the rewrite-ordering rule (acknowledgments + §5.2):
//
//   "the child which gains new data should be rewritten first and then
//    the parent and the other child"
//
// With the rule, a key being shifted between siblings is readable in at
// least one node image at every instant. Without it — rewriting the
// parent first — there are windows in which a key in transit is in
// NEITHER child's readable image. Readers that hit the window are saved
// from returning a wrong NOT-FOUND only by the low-value check (they
// observe key <= low on the right sibling and restart), so the measured
// effect of violating the rule is a burst of reader restarts — and the
// measurement doubles as evidence that the low-value check is load-
// bearing: with it, zero phantom misses even under the broken ordering.
//
// The bench runs readers over a fixed key population while a compressor
// continuously redistributes (churn inserts/deletes force under-full
// nodes), once with each ordering, and counts phantom misses and
// restarts.

#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "obtree/core/sagiv_tree.h"
#include "obtree/core/scan_compressor.h"
#include "obtree/util/random.h"
#include "obtree/workload/report.h"

namespace obtree {
namespace {

struct AblationResult {
  uint64_t reads = 0;
  uint64_t phantom_misses = 0;  // NotFound for an always-present key
  uint64_t restarts = 0;
  uint64_t redistributions = 0;
};

AblationResult Run(bool paper_order) {
  TreeOptions options;
  options.min_entries = 8;
  SagivTree tree(options);

  // Permanent keys: multiples of 3 in [3, 60000]. Never deleted.
  constexpr Key kSpan = 60'000;
  for (Key k = 3; k <= kSpan; k += 3) {
    (void)tree.Insert(k, k);
  }
  // Churn keys (k % 3 != 0): inserted and deleted to force under-full
  // nodes everywhere, keeping the compressor busy redistributing around
  // the permanent keys.
  std::atomic<bool> stop{false};
  std::thread churner([&]() {
    Random rng(1);
    while (!stop.load(std::memory_order_acquire)) {
      const Key base = rng.UniformRange(1, kSpan - 200);
      for (Key k = base; k < base + 200; ++k) {
        if (k % 3 != 0) (void)tree.Insert(k, k);
      }
      for (Key k = base; k < base + 200; ++k) {
        if (k % 3 != 0) (void)tree.Delete(k);
      }
    }
  });
  ScanCompressor compressor(&tree);
  compressor.set_paper_write_order(paper_order);
  std::thread compressor_thread([&]() {
    while (!stop.load()) {
      if (compressor.FullPass() == 0) std::this_thread::yield();
    }
  });

  AblationResult result;
  std::atomic<uint64_t> reads{0};
  std::atomic<uint64_t> misses{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t]() {
      Random rng(static_cast<uint64_t>(t) + 11);
      for (int i = 0; i < 400'000; ++i) {
        const Key k = rng.UniformRange(1, kSpan / 3) * 3;  // permanent key
        Result<Value> r = tree.Search(k);
        reads.fetch_add(1, std::memory_order_relaxed);
        if (!r.ok()) misses.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& r : readers) r.join();
  stop.store(true);
  churner.join();
  compressor_thread.join();

  result.reads = reads.load();
  result.phantom_misses = misses.load();
  result.restarts = tree.stats()->Get(StatId::kRestarts);
  result.redistributions = tree.stats()->Get(StatId::kRedistributions);
  return result;
}

}  // namespace
}  // namespace obtree

int main() {
  using namespace obtree;
  PrintBanner(
      "E10 (ablation): why the gaining child is rewritten first",
      "paper order: keys in transit always readable, zero reader "
      "restarts; ablated order: readers stall in restart loops until the "
      "gaining child lands (the low-value check prevents wrong answers)");

  Table table({"write order", "reads of permanent keys", "phantom misses",
               "redistributions", "restarts"});
  const AblationResult paper = Run(/*paper_order=*/true);
  table.AddRow({"paper (gaining child first)", Fmt(paper.reads),
                Fmt(paper.phantom_misses), Fmt(paper.redistributions),
                Fmt(paper.restarts)});
  const AblationResult ablated = Run(/*paper_order=*/false);
  table.AddRow({"ABLATED (parent first)", Fmt(ablated.reads),
                Fmt(ablated.phantom_misses), Fmt(ablated.redistributions),
                Fmt(ablated.restarts)});
  table.Print();
  std::printf(
      "(a phantom miss = Search() returned NotFound for a key that is "
      "never deleted; any nonzero count is a Theorem 1 violation)\n");
  return 0;
}
