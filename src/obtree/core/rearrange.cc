// Copyright 2026 The obtree Authors.

#include "obtree/core/rearrange.h"

#include <cassert>

#include "obtree/node/node.h"
#include "obtree/storage/page_manager.h"
#include "obtree/storage/prime_block.h"
#include "obtree/util/stats.h"

namespace obtree {

void EnqueueUnderfull(CompressionQueue* queue, StatsCollector* stats,
                      PageId page, const Node& node,
                      std::vector<PageId> stack, Timestamp stamp) {
  CompressionTask task;
  task.node = page;
  task.level = node.level;
  task.high = node.high;
  task.stamp = stamp;
  task.stack = std::move(stack);
  queue->Push(std::move(task), /*update_if_present=*/true);
  stats->Add(StatId::kQueueEnqueues);
}

RearrangeResult RearrangePair(SagivTree* tree, Page* f, PageId f_page,
                              uint32_t idx, Page* left, PageId left_page,
                              Page* right, PageId right_page,
                              const RearrangeContext& ctx) {
  PageManager* pager = tree->internal_pager();
  StatsCollector* stats = tree->stats();
  const uint32_t k = tree->options().min_entries;
  Node* fn = f->As<Node>();
  Node* ln = left->As<Node>();
  Node* rn = right->As<Node>();

  assert(idx + 1 < fn->count);
  assert(static_cast<PageId>(fn->entry(idx).value) == left_page);
  assert(static_cast<PageId>(fn->entry(idx + 1).value) == right_page);
  assert(ln->link == right_page);

  RearrangeResult result;
  if (ln->count >= k && rn->count >= k) {
    // Footnote 15: nothing to do after all; unlock without rewriting.
    pager->Unlock(left_page);
    pager->Unlock(right_page);
    pager->Unlock(f_page);
    return result;
  }

  const Key old_sep = fn->entry(idx).key;

  if (ln->count + rn->count <= tree->options().capacity()) {
    // Merge: all pairs of right are shifted into left; the high value and
    // link of right replace those of left; right's deletion bit goes on
    // with a pointer back to left (the reader-recovery device of §5.2).
    ln->MergeFromRight(*rn);
    rn->set_deleted(left_page);
    bool ok = fn->ApplyChildMerge(old_sep, left_page, right_page);
    assert(ok);
    (void)ok;
    result.merged = true;
    stats->Add(StatId::kMerges);

    // left gains data: rewrite left, then F, then right; unlock each node
    // right after its rewrite.
    pager->Put(left_page, *left);
    if (ctx.queue != nullptr && ln->count < k && !ln->is_root()) {
      EnqueueUnderfull(ctx.queue, stats, left_page, *ln,
                       ctx.stack ? *ctx.stack : std::vector<PageId>(),
                       ctx.stamp);
    }
    pager->Unlock(left_page);

    pager->Put(f_page, *f);
    if (fn->is_root() && fn->count == 1) {
      result.root_may_collapse = true;
    } else if (ctx.queue != nullptr && fn->count < k && !fn->is_root()) {
      std::vector<PageId> f_stack;
      if (ctx.stack != nullptr && !ctx.stack->empty()) {
        f_stack.assign(ctx.stack->begin(), ctx.stack->end() - 1);
      }
      EnqueueUnderfull(ctx.queue, stats, f_page, *fn, std::move(f_stack),
                       ctx.stamp);
    }
    pager->Unlock(f_page);

    pager->Put(right_page, *right);
    pager->Unlock(right_page);
    pager->Retire(right_page);
    if (ctx.queue != nullptr) ctx.queue->Remove(right_page);
    return result;
  }

  // Redistribute: move entries so both children end with >= k; the high
  // value of left (== low value of right) changes and must be updated in
  // left, right, and F.
  const bool left_gains = ln->count < rn->count;
  const Key new_sep = ln->RedistributeWithRight(rn, k);
  bool ok = fn->ApplyChildSeparatorChange(old_sep, new_sep, left_page);
  assert(ok);
  (void)ok;
  result.redistributed = true;
  stats->Add(StatId::kRedistributions);

  // The child that obtains new data is rewritten first, then the parent,
  // and finally the other child (§5.2; this confines the reader-visible
  // anomaly to case (2), data moving right-to-left).
  if (!ctx.paper_write_order) {
    // E10 ablation: parent first, then losing child, then gaining child —
    // keys in transit are temporarily in NEITHER child's readable image.
    pager->Put(f_page, *f);
    pager->Unlock(f_page);
    if (left_gains) {
      pager->Put(right_page, *right);
      pager->Unlock(right_page);
      pager->Put(left_page, *left);
      pager->Unlock(left_page);
    } else {
      pager->Put(left_page, *left);
      pager->Unlock(left_page);
      pager->Put(right_page, *right);
      pager->Unlock(right_page);
    }
    return result;
  }
  if (left_gains) {
    pager->Put(left_page, *left);
    pager->Unlock(left_page);
    pager->Put(f_page, *f);
    pager->Unlock(f_page);
    pager->Put(right_page, *right);
    pager->Unlock(right_page);
  } else {
    pager->Put(right_page, *right);
    pager->Unlock(right_page);
    pager->Put(f_page, *f);
    pager->Unlock(f_page);
    pager->Put(left_page, *left);
    pager->Unlock(left_page);
  }
  return result;
}

size_t TryCollapseRoot(SagivTree* tree) {
  PageManager* pager = tree->internal_pager();
  PrimeBlock* prime = tree->internal_prime();
  StatsCollector* stats = tree->stats();

  size_t removed_total = 0;
  for (int attempt = 0; attempt < 64; ++attempt) {
    const PrimeBlockData pb = prime->Read();
    if (pb.num_levels <= 1) return removed_total;
    const PageId root_page = pb.root();

    pager->Lock(root_page);
    Page root_buf;
    pager->Get(root_page, &root_buf);
    Node* root = root_buf.As<Node>();
    if (root->is_deleted() || !root->is_root()) {
      // The root moved under us (another collapse or a root creation
      // in-flight); re-read the prime block.
      pager->Unlock(root_page);
      continue;
    }
    if (root->is_leaf() || root->count != 1) {
      pager->Unlock(root_page);
      return removed_total;
    }

    // Walk the single-child chain. Every chain node is locked (parent
    // before child, so no deadlock with the compressors, which also lock
    // parent-first). A chain node's sole child qualifies only when it is
    // the sole node of its level (link == nil): a non-nil link means a
    // split below is still waiting to post its separator into this level,
    // so collapsing would orphan it.
    std::vector<PageId> chain{root_page};       // nodes to delete, top first
    std::vector<Page> images;
    images.emplace_back(root_buf);
    PageId child_page = static_cast<PageId>(root->entry(0).value);
    Page child_buf;
    Node* child = child_buf.As<Node>();
    bool abort = false;
    for (;;) {
      pager->Lock(child_page);
      pager->Get(child_page, &child_buf);
      if (child->is_deleted() || child->link != kInvalidPageId) {
        pager->Unlock(child_page);
        abort = true;
        break;
      }
      if (!child->is_leaf() && child->count == 1) {
        chain.push_back(child_page);
        images.emplace_back(child_buf);
        child_page = static_cast<PageId>(child->entry(0).value);
        continue;
      }
      break;  // child is the new root D
    }
    if (abort) {
      for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
        pager->Unlock(*it);
      }
      return removed_total;
    }

    // §5.4 root-collapse order:
    // (1) rewrite the new root D with its root bit on;
    child->set_root(true);
    pager->Put(child_page, child_buf);
    // (2) rewrite the prime block (we hold the lock on the current root),
    //     then release the new root;
    PrimeBlockData updated = prime->Read();
    updated.num_levels = child->level + 1;
    prime->Write(updated);
    pager->Unlock(child_page);
    // (3)/(4) mark every abandoned chain node deleted, pointing at D, and
    //     release it (bottom-most first, the old root last).
    for (size_t i = chain.size(); i-- > 0;) {
      Node* dead = images[i].As<Node>();
      dead->set_root(false);
      dead->set_deleted(child_page);
      pager->Put(chain[i], images[i]);
      pager->Unlock(chain[i]);
      pager->Retire(chain[i]);
    }
    stats->Add(StatId::kRootCollapses, chain.size());
    removed_total += chain.size();
    // Loop: the new root may itself be collapsible (e.g. count dropped
    // to 1 through merges at the level below).
  }
  return removed_total;
}

}  // namespace obtree
