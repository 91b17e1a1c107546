// Copyright 2026 The obtree Authors.
//
// TreeChecker must actually catch corruption: each test plants one
// specific defect — in RAM via the pager, or on disk via a bit flip in
// a checkpointed pages.dat — and requires CheckStructure to reject the
// tree. The checker is the oracle every stress and crash harness leans
// on, so its failure modes need direct coverage of their own.

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "obtree/api/concurrent_map.h"
#include "obtree/core/sagiv_tree.h"
#include "obtree/core/tree_checker.h"
#include "obtree/node/node.h"
#include "obtree/storage/page_manager.h"
#include "obtree/storage/prime_block.h"
#include "obtree/util/fault_injector.h"

namespace obtree {
namespace {

TreeOptions SmallNodeOptions() {
  TreeOptions options;
  options.min_entries = 4;  // capacity 8: splits after a handful of keys
  return options;
}

// A quiesced multi-leaf tree the tests can plant defects into.
void FillTree(SagivTree* tree, Key n = 200) {
  for (Key k = 1; k <= n; ++k) {
    ASSERT_TRUE(tree->Insert(k, k * 10).ok());
  }
  ASSERT_TRUE(TreeChecker(tree).CheckStructure().ok())
      << "tree must start clean";
}

// Fetch-modify-store one page through the pager (the tree is quiesced,
// so an unlocked Put is safe).
template <typename Fn>
void CorruptPage(PageManager* pager, PageId id, Fn mutate) {
  Page page;
  ASSERT_TRUE(pager->Get(id, &page).ok());
  mutate(page.As<Node>());
  pager->Put(id, page);
}

TEST(TreeCheckerTest, CorruptedCountFailsAudit) {
  SagivTree tree(SmallNodeOptions());
  FillTree(&tree);
  const PageId leaf = tree.internal_prime()->Read().leftmost[0];
  // Dropping one entry desynchronizes the leaf chain from Size().
  CorruptPage(tree.internal_pager(), leaf, [](Node* node) {
    ASSERT_GT(node->count, 1u);
    node->count -= 1;
  });
  const Status audit = TreeChecker(&tree).CheckStructure();
  ASSERT_FALSE(audit.ok());
  EXPECT_NE(audit.message().find("leaf keys"), std::string::npos)
      << audit.ToString();
}

TEST(TreeCheckerTest, BrokenLinkChainFailsAudit) {
  SagivTree tree(SmallNodeOptions());
  FillTree(&tree);
  const PageId leaf = tree.internal_prime()->Read().leftmost[0];
  // Truncating the chain at the leftmost leaf makes it claim to be the
  // rightmost node while its high value is finite.
  CorruptPage(tree.internal_pager(), leaf, [](Node* node) {
    ASSERT_NE(node->link, kInvalidPageId) << "need a multi-leaf tree";
    node->link = kInvalidPageId;
  });
  const Status audit = TreeChecker(&tree).CheckStructure();
  ASSERT_FALSE(audit.ok());
  EXPECT_NE(audit.message().find("rightmost node high"), std::string::npos)
      << audit.ToString();
}

TEST(TreeCheckerTest, HighKeyViolationFailsAudit) {
  SagivTree tree(SmallNodeOptions());
  FillTree(&tree);
  const PageId leaf = tree.internal_prime()->Read().leftmost[0];
  // An entry above the node's high value escapes its key range.
  CorruptPage(tree.internal_pager(), leaf, [](Node* node) {
    ASSERT_GT(node->count, 0u);
    node->high = node->entry(node->count - 1).key - 1;
  });
  const Status audit = TreeChecker(&tree).CheckStructure();
  ASSERT_FALSE(audit.ok());
  EXPECT_NE(audit.message().find("entry above high"), std::string::npos)
      << audit.ToString();
}

TEST(TreeCheckerTest, LiveRangePastTheSlotArrayFailsAudit) {
  SagivTree tree(SmallNodeOptions());
  FillTree(&tree);
  const PageId leaf = tree.internal_prime()->Read().leftmost[0];
  // A head offset that runs the live range off the page: the audit must
  // report it before reading any entry.
  CorruptPage(tree.internal_pager(), leaf, [](Node* node) {
    ASSERT_GT(node->count, 0u);
    node->first = static_cast<uint16_t>(Node::kMaxEntries - node->count + 1);
  });
  const Status audit = TreeChecker(&tree).CheckStructure();
  ASSERT_FALSE(audit.ok());
  EXPECT_NE(audit.message().find("live range past the slot array"),
            std::string::npos)
      << audit.ToString();
}

TEST(TreeCheckerTest, BitFlippedRecoveredPageFailsAudit) {
  FaultInjector::Instance().DisarmAll();
  const std::string dir =
      ::testing::TempDir() + "obtree_checker_bitflip";
  std::filesystem::remove_all(dir);

  MapOptions options;
  options.compression = CompressionMode::kNone;
  options.tree.storage_dir = dir;
  options.tree.min_entries = 4;
  {
    ConcurrentMap map(options);
    for (Key k = 1; k <= 300; ++k) {
      ASSERT_TRUE(map.Upsert(k, k * 10).ok());
    }
    ASSERT_TRUE(map.Checkpoint().ok());
    ASSERT_TRUE(map.ValidateStructure().ok());
  }

  // Flip one byte in EVERY 4 KB slot of pages.dat, so whichever slots
  // the manifest committed are all corrupt (checksummed page images
  // must read back as DataLoss, never as plausible nodes).
  {
    const std::string data_path = dir + "/pages.dat";
    std::FILE* f = std::fopen(data_path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    const auto file_size = std::filesystem::file_size(data_path);
    for (uint64_t off = 100; off < file_size; off += kPageSize) {
      ASSERT_EQ(std::fseek(f, static_cast<long>(off), SEEK_SET), 0);
      const int c = std::fgetc(f);
      ASSERT_NE(c, EOF);
      ASSERT_EQ(std::fseek(f, static_cast<long>(off), SEEK_SET), 0);
      ASSERT_NE(std::fputc(c ^ 0x40, f), EOF);
    }
    std::fclose(f);
  }

  // The manifest itself is intact, so recovery starts — but every page
  // read fails its checksum and the structural audit must reject the
  // zero-filled husks it gets instead.
  Result<std::unique_ptr<ConcurrentMap>> recovered =
      ConcurrentMap::Recover(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  const Status audit = (*recovered)->ValidateStructure();
  EXPECT_FALSE(audit.ok())
      << "audit accepted a store whose every page image was corrupted";

  std::filesystem::remove_all(dir);
}

TEST(TreeCheckerTest, CleanTreeAndShapeSurvivesAudit) {
  SagivTree tree(SmallNodeOptions());
  FillTree(&tree, 500);
  ASSERT_TRUE(TreeChecker(&tree).CheckStructure().ok());
  const TreeShape shape = TreeChecker(&tree).ComputeShape();
  EXPECT_EQ(shape.num_keys, 500u);
  EXPECT_GE(shape.height, 2u);
}

}  // namespace
}  // namespace obtree
