// Copyright 2026 The obtree Authors.
//
// The whole-tree compression process of Sections 5.1-5.2: compress-level(i)
// sweeps level i+1 left to right, examining pairs of adjacent children and
// merging/redistributing whenever one holds fewer than k entries. A full
// pass applies compress-level to every level bottom-up and then collapses
// single-child roots. Any number of these processes may run concurrently
// with searches, insertions, and deletions (Theorem 2); each restructuring
// step locks exactly three nodes (parent + two adjacent children).

#ifndef OBTREE_CORE_SCAN_COMPRESSOR_H_
#define OBTREE_CORE_SCAN_COMPRESSOR_H_

#include <cstddef>

#include "obtree/core/rearrange.h"
#include "obtree/core/sagiv_tree.h"
#include "obtree/util/common.h"

namespace obtree {

/// Periodic full-tree compressor.
class ScanCompressor {
 public:
  explicit ScanCompressor(SagivTree* tree) : tree_(tree) {}
  OBTREE_DISALLOW_COPY_AND_ASSIGN(ScanCompressor);

  /// The paper's compress-level(i): walk the parents at level i+1 and
  /// rearrange under-full adjacent child pairs at level i. Returns the
  /// number of merges + redistributions performed.
  size_t CompressLevel(uint32_t level);

  /// compress-level for every level bottom-up, then collapse the root.
  /// Returns merges + redistributions + levels removed.
  size_t FullPass();

  /// E10 ablation switch — see RearrangeContext::paper_write_order.
  /// Never disable outside the ablation bench.
  void set_paper_write_order(bool on) { paper_write_order_ = on; }

 private:
  // Process the pair whose LEFT child is f->entry(idx); the caller holds
  // only the lock on f_page and transfers it to this call, which releases
  // all locks it holds by return. Outputs how the sweep should advance.
  enum class Advance {
    kStayOnLeft,    // pair merged: re-examine the same left child
    kToRight,       // move to the right child of the pair
    kSkipEntry,     // move to f->entry(idx+1) without pairing
    kNextParent,    // done with this parent, follow its link
    kRetryPair,     // transient conflict: retry the same pair after yield
    kLevelDone,     // reached the rightmost node of the level
  };
  Advance ProcessPair(Page* f, PageId f_page, uint32_t idx, size_t* work);

  SagivTree* tree_;
  bool paper_write_order_ = true;
};

}  // namespace obtree

#endif  // OBTREE_CORE_SCAN_COMPRESSOR_H_
