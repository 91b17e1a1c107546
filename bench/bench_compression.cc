// Copyright 2026 The obtree Authors.
//
// E3 + E7 — the compression claims of Section 5:
//
//  * E3: compression restores the >= half-full invariant, releases empty
//    nodes, and collapses an emptied tree in O(log n) full passes.
//  * E7: all three queue deployments (one worker, shared queue with many
//    workers, per-burst private queues) recover the same space; more
//    workers drain faster.
//
// Phase A: build n keys, delete a fraction d, then compress; report
// nodes/height/fill before vs after and the pass count.
// Phase B: deployment comparison on a fixed delete-heavy churn.

#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "obtree/core/compression_queue.h"
#include "obtree/core/queue_compressor.h"
#include "obtree/core/sagiv_tree.h"
#include "obtree/core/scan_compressor.h"
#include "obtree/core/tree_checker.h"
#include "obtree/workload/report.h"

namespace obtree {
namespace {

constexpr Key kN = 200'000;

TreeOptions Options() {
  TreeOptions opt;
  opt.min_entries = 16;
  return opt;
}

void BuildAndDecay(SagivTree* tree, int keep_every) {
  for (Key k = 1; k <= kN; ++k) (void)tree->Insert(k, k);
  for (Key k = 1; k <= kN; ++k) {
    if (keep_every == 0 || k % static_cast<Key>(keep_every) != 0) {
      (void)tree->Delete(k);
    }
  }
}

void ExperimentE3() {
  PrintBanner("E3: scan compression after bulk deletions (Section 5.1)",
              "each node ends >= half full, empty nodes are released, an "
              "emptied tree collapses in O(log n) passes");

  Table table({"deleted", "nodes before", "nodes after", "fill before",
               "fill after", "height", "passes", "space won"});
  for (int keep_every : {2, 10, 0 /*delete all*/}) {
    SagivTree tree(Options());
    BuildAndDecay(&tree, keep_every);
    const TreeShape before = TreeChecker(&tree).ComputeShape();

    ScanCompressor compressor(&tree);
    size_t passes = 0;
    while (passes < 200) {
      ++passes;
      if (compressor.FullPass() == 0) break;
    }
    tree.internal_pager()->Reclaim();
    const TreeShape after = TreeChecker(&tree).ComputeShape();
    const char* label = keep_every == 2   ? "50%"
                        : keep_every == 10 ? "90%"
                                           : "100%";
    char height[16];
    std::snprintf(height, sizeof(height), "%u->%u", before.height,
                  after.height);
    table.AddRow({label, Fmt(before.num_nodes), Fmt(after.num_nodes),
                  Fmt(before.avg_leaf_fill), Fmt(after.avg_leaf_fill),
                  height, Fmt(static_cast<uint64_t>(passes)),
                  FmtRatio(static_cast<double>(before.num_nodes),
                           static_cast<double>(after.num_nodes))});
  }
  table.Print();
  std::printf("(passes includes the final no-op fixpoint check)\n");
}

struct DeploymentResult {
  double seconds;
  uint64_t nodes_after;
  double fill_after;
  uint64_t merges;
};

// Deployment (1)/(2): `workers` compressors share one queue, draining
// concurrently with the deletions.
DeploymentResult RunQueueDeployment(int workers) {
  SagivTree tree(Options());
  CompressionQueue queue;
  tree.AttachCompressionQueue(&queue);
  for (Key k = 1; k <= kN; ++k) (void)tree.Insert(k, k);

  std::atomic<bool> stop{false};
  std::vector<std::unique_ptr<QueueCompressor>> compressors;
  std::vector<std::thread> threads;
  const auto start = std::chrono::steady_clock::now();
  for (int w = 0; w < workers; ++w) {
    compressors.push_back(std::make_unique<QueueCompressor>(&tree, &queue));
    threads.emplace_back([&stop, qc = compressors.back().get()]() {
      while (!stop.load()) {
        if (qc->CompressOne() == QueueCompressor::Outcome::kQueueEmpty) {
          std::this_thread::yield();
        }
      }
    });
  }
  for (Key k = 1; k <= kN; ++k) {
    if (k % 10 != 0) (void)tree.Delete(k);
  }
  // Wait for the queue to drain.
  while (!queue.Empty()) std::this_thread::yield();
  stop.store(true);
  for (auto& t : threads) t.join();
  QueueCompressor(&tree, &queue).Drain();
  const auto end = std::chrono::steady_clock::now();
  tree.internal_pager()->Reclaim();

  const TreeShape shape = TreeChecker(&tree).ComputeShape();
  return DeploymentResult{
      std::chrono::duration_cast<std::chrono::duration<double>>(end - start)
          .count(),
      shape.num_nodes, shape.avg_leaf_fill,
      tree.stats()->Get(StatId::kMerges)};
}

// Deployment (3): each deletion burst drains its own private queue.
DeploymentResult RunPrivateQueueDeployment() {
  SagivTree tree(Options());
  const auto start = std::chrono::steady_clock::now();
  for (Key k = 1; k <= kN; ++k) (void)tree.Insert(k, k);
  constexpr Key kBurst = 10'000;
  for (Key base = 0; base < kN; base += kBurst) {
    CompressionQueue queue;  // private to this burst
    tree.AttachCompressionQueue(&queue);
    for (Key k = base + 1; k <= base + kBurst; ++k) {
      if (k % 10 != 0) (void)tree.Delete(k);
    }
    QueueCompressor(&tree, &queue).Drain();
    tree.AttachCompressionQueue(nullptr);
  }
  const auto end = std::chrono::steady_clock::now();
  tree.internal_pager()->Reclaim();
  const TreeShape shape = TreeChecker(&tree).ComputeShape();
  return DeploymentResult{
      std::chrono::duration_cast<std::chrono::duration<double>>(end - start)
          .count(),
      shape.num_nodes, shape.avg_leaf_fill,
      tree.stats()->Get(StatId::kMerges)};
}

void ExperimentE7() {
  PrintBanner(
      "E7: the three queue-compression deployments (Section 5.4)",
      "single worker, shared queue with N workers, and per-burst private "
      "queues all restore occupancy; extra workers drain concurrently");

  Table table({"deployment", "wall s (delete+compress)", "nodes after",
               "fill after", "merges"});
  DeploymentResult one = RunQueueDeployment(1);
  table.AddRow({"(1) one worker, one queue", Fmt(one.seconds),
                Fmt(one.nodes_after), Fmt(one.fill_after), Fmt(one.merges)});
  DeploymentResult shared = RunQueueDeployment(3);
  table.AddRow({"(2) shared queue, 3 workers", Fmt(shared.seconds),
                Fmt(shared.nodes_after), Fmt(shared.fill_after),
                Fmt(shared.merges)});
  DeploymentResult priv = RunPrivateQueueDeployment();
  table.AddRow({"(3) private queue per burst", Fmt(priv.seconds),
                Fmt(priv.nodes_after), Fmt(priv.fill_after),
                Fmt(priv.merges)});
  table.Print();
  std::printf("(all deployments keep 10%% of %llu keys)\n",
              static_cast<unsigned long long>(kN));
}

}  // namespace
}  // namespace obtree

int main() {
  obtree::ExperimentE3();
  obtree::ExperimentE7();
  return 0;
}
