// Copyright 2026 The obtree Authors.

#include "obtree/core/tree_dump.h"

#include <ostream>
#include <sstream>

#include "obtree/node/node.h"
#include "obtree/storage/page_manager.h"
#include "obtree/storage/prime_block.h"
#include "obtree/util/fault_injector.h"

namespace obtree {

namespace {

void PrintKey(std::ostream* os, Key key) {
  if (key == kPlusInfinity) {
    *os << "+inf";
  } else {
    *os << key;
  }
}

void PrintNode(std::ostream* os, PageId page, const Node& node,
               const DumpOptions& options) {
  *os << "[p" << page << " n=" << node.count << " (";
  PrintKey(os, node.low);
  *os << ",";
  PrintKey(os, node.high);
  *os << "]";
  if (node.is_root()) *os << " root";
  if (node.is_deleted()) *os << " DELETED->" << node.merge_target;
  if (options.show_entries && !node.live_range_ok()) {
    *os << " {first=" << node.first << ": live range past the slots}";
  } else if (options.show_entries) {
    *os << " {";
    for (uint32_t i = 0; i < node.count; ++i) {
      if (i) *os << " ";
      PrintKey(os, node.entry(i).key);
      *os << (node.is_leaf() ? "=" : ">") << node.entry(i).value;
    }
    *os << "}";
  }
  *os << "]";
}

}  // namespace

void DumpStructure(const SagivTree& tree, std::ostream* os,
                   const DumpOptions& options) {
  // Diagnostics read ground truth, never injected faults.
  FaultInjector::ScopedExemption exempt;
  PageManager* pager = tree.internal_pager();
  const PrimeBlockData pb = tree.internal_prime()->Read();
  Page page;
  const Node* node = page.As<Node>();
  for (uint32_t level = pb.num_levels; level-- > 0;) {
    *os << "L" << level;
    if (level + 1 == pb.num_levels) *os << " (root)";
    *os << ":";
    PageId current = pb.leftmost[level];
    uint32_t printed = 0;
    uint32_t elided = 0;
    // Hard bound in case of corruption: never loop forever.
    for (uint64_t guard = 0; current != kInvalidPageId && guard < (1u << 22);
         ++guard) {
      pager->Get(current, &page);
      if (printed < options.max_nodes_per_level) {
        *os << " ";
        PrintNode(os, current, *node, options);
        ++printed;
      } else {
        ++elided;
      }
      current = node->link;
    }
    if (elided > 0) *os << " (+" << elided << " more)";
    *os << "\n";
  }
}

std::string DumpStructureToString(const SagivTree& tree,
                                  const DumpOptions& options) {
  std::ostringstream os;
  DumpStructure(tree, &os, options);
  return os.str();
}

}  // namespace obtree
