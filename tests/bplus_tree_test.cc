#include "btree/bplus_tree.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <set>

#include "common/rng.h"
#include "pager_test_util.h"
#include "storage/file.h"

namespace cdb {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct TreeFixture {
  std::unique_ptr<Pager> pager;
  std::unique_ptr<BPlusTree> tree;

  explicit TreeFixture(size_t page_size = 256) {
    PagerOptions opts;
    opts.page_size = page_size;  // Small pages force deep trees quickly.
    opts.cache_frames = 32;
    EXPECT_TRUE(
        Pager::Open(std::make_unique<MemFile>(page_size), opts, &pager).ok());
    EXPECT_TRUE(BPlusTree::Create(pager.get(), &tree).ok());
  }

  // Pins are never released spontaneously, so a leak anywhere in the test
  // is still visible here.
  ~TreeFixture() { ExpectNoPinnedFrames(*pager); }
};

using Entry = std::pair<double, uint32_t>;

// Collects all entries by sweeping the leaf chain forward.
std::vector<Entry> Dump(const BPlusTree& tree) {
  std::vector<Entry> out;
  LeafCursor cur;
  EXPECT_TRUE(tree.SeekFirstLeaf(&cur).ok());
  while (cur.valid()) {
    for (int i = 0; i < cur.entry_count(); ++i) {
      out.emplace_back(cur.key(i), cur.value(i));
    }
    EXPECT_TRUE(cur.NextLeaf().ok());
  }
  return out;
}

TEST(BPlusTreeTest, EmptyTree) {
  TreeFixture fx;
  EXPECT_EQ(fx.tree->size(), 0u);
  EXPECT_EQ(fx.tree->height(), 1u);
  EXPECT_TRUE(fx.tree->CheckInvariants().ok());
  Result<bool> c = fx.tree->Contains(1.0, 2);
  ASSERT_TRUE(c.ok());
  EXPECT_FALSE(c.value());
  EXPECT_TRUE(Dump(*fx.tree).empty());
}

TEST(BPlusTreeTest, InsertAndContains) {
  TreeFixture fx;
  ASSERT_TRUE(fx.tree->Insert(3.5, 7).ok());
  ASSERT_TRUE(fx.tree->Insert(-1.0, 2).ok());
  Result<bool> c = fx.tree->Contains(3.5, 7);
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(c.value());
  c = fx.tree->Contains(3.5, 8);
  ASSERT_TRUE(c.ok());
  EXPECT_FALSE(c.value());
  EXPECT_EQ(fx.tree->size(), 2u);
}

TEST(BPlusTreeTest, RejectsNaNAndExactDuplicates) {
  TreeFixture fx;
  EXPECT_TRUE(fx.tree->Insert(std::nan(""), 1).IsInvalidArgument());
  ASSERT_TRUE(fx.tree->Insert(1.0, 1).ok());
  EXPECT_TRUE(fx.tree->Insert(1.0, 1).IsInvalidArgument());
  // Same key, different value is fine (duplicate surface values).
  EXPECT_TRUE(fx.tree->Insert(1.0, 2).ok());
}

TEST(BPlusTreeTest, InfiniteKeysSortAtTheEnds) {
  TreeFixture fx;
  ASSERT_TRUE(fx.tree->Insert(kInf, 1).ok());
  ASSERT_TRUE(fx.tree->Insert(-kInf, 2).ok());
  ASSERT_TRUE(fx.tree->Insert(0.0, 3).ok());
  std::vector<Entry> dump = Dump(*fx.tree);
  ASSERT_EQ(dump.size(), 3u);
  EXPECT_EQ(dump[0].second, 2u);
  EXPECT_EQ(dump[1].second, 3u);
  EXPECT_EQ(dump[2].second, 1u);
}

TEST(BPlusTreeTest, SplitsGrowHeight) {
  TreeFixture fx;
  for (uint32_t i = 0; i < 2000; ++i) {
    ASSERT_TRUE(fx.tree->Insert(static_cast<double>(i), i).ok());
  }
  EXPECT_EQ(fx.tree->size(), 2000u);
  EXPECT_GE(fx.tree->height(), 3u);
  ASSERT_TRUE(fx.tree->CheckInvariants().ok());
  std::vector<Entry> dump = Dump(*fx.tree);
  ASSERT_EQ(dump.size(), 2000u);
  for (uint32_t i = 0; i < 2000; ++i) {
    EXPECT_EQ(dump[i].second, i);
  }
}

TEST(BPlusTreeTest, SeekLeafPositionsAtLowerBound) {
  TreeFixture fx;
  for (uint32_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(fx.tree->Insert(i * 2.0, i).ok());  // Even keys 0..198.
  }
  LeafCursor cur;
  ASSERT_TRUE(fx.tree->SeekLeaf(51.0, &cur).ok());
  ASSERT_TRUE(cur.valid());
  ASSERT_LT(cur.seek_pos(), cur.entry_count());
  EXPECT_EQ(cur.key(cur.seek_pos()), 52.0);

  // Seeking an existing key lands on it.
  ASSERT_TRUE(fx.tree->SeekLeaf(52.0, &cur).ok());
  EXPECT_EQ(cur.key(cur.seek_pos()), 52.0);

  // Seeking past the maximum gives the last leaf with seek_pos at end.
  ASSERT_TRUE(fx.tree->SeekLeaf(1e9, &cur).ok());
  ASSERT_TRUE(cur.valid());
  EXPECT_EQ(cur.seek_pos(), cur.entry_count());
}

TEST(BPlusTreeTest, SeekLeafPastSkipsEveryEqualKey) {
  TreeFixture fx;
  // 300 copies of key 5 fill many 256-byte leaves; 4 and 6 frame them.
  for (uint32_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(fx.tree->Insert(5.0, i).ok());
  }
  ASSERT_TRUE(fx.tree->Insert(4.0, 1000).ok());
  ASSERT_TRUE(fx.tree->Insert(6.0, 1001).ok());
  ASSERT_TRUE(fx.tree->Insert(5.0, std::numeric_limits<uint32_t>::max()).ok());

  // Everything before the past-seek position has key <= 5, all 302 of
  // those entries, and the entry at it is the first key above 5.
  LeafCursor cur;
  ASSERT_TRUE(fx.tree->SeekLeafPast(5.0, &cur).ok());
  ASSERT_TRUE(cur.valid());
  ASSERT_LT(cur.seek_pos(), cur.entry_count());
  EXPECT_EQ(cur.key(cur.seek_pos()), 6.0);
  for (int j = 0; j < cur.seek_pos(); ++j) EXPECT_LE(cur.key(j), 5.0);
  size_t at_or_below = static_cast<size_t>(cur.seek_pos());
  while (true) {
    ASSERT_TRUE(cur.PrevLeaf().ok());
    if (!cur.valid()) break;
    for (int j = 0; j < cur.entry_count(); ++j) EXPECT_LE(cur.key(j), 5.0);
    at_or_below += static_cast<size_t>(cur.entry_count());
  }
  EXPECT_EQ(at_or_below, 302u);

  // Past the maximum: the last leaf, seek_pos at its end.
  ASSERT_TRUE(fx.tree->SeekLeafPast(6.0, &cur).ok());
  ASSERT_TRUE(cur.valid());
  EXPECT_EQ(cur.seek_pos(), cur.entry_count());
  EXPECT_TRUE(fx.tree->SeekLeafPast(std::nan(""), &cur).IsInvalidArgument());
}

TEST(BPlusTreeTest, BackwardSweepMatchesForward) {
  TreeFixture fx;
  Rng rng(5);
  for (uint32_t i = 0; i < 500; ++i) {
    ASSERT_TRUE(fx.tree->Insert(rng.Uniform(-100, 100), i).ok());
  }
  std::vector<Entry> fwd = Dump(*fx.tree);
  std::vector<Entry> bwd;
  LeafCursor cur;
  ASSERT_TRUE(fx.tree->SeekLastLeaf(&cur).ok());
  while (cur.valid()) {
    for (int i = cur.entry_count() - 1; i >= 0; --i) {
      bwd.emplace_back(cur.key(i), cur.value(i));
    }
    ASSERT_TRUE(cur.PrevLeaf().ok());
  }
  std::reverse(bwd.begin(), bwd.end());
  EXPECT_EQ(fwd, bwd);
}

TEST(BPlusTreeTest, DeleteMissingIsNotFound) {
  TreeFixture fx;
  ASSERT_TRUE(fx.tree->Insert(1.0, 1).ok());
  EXPECT_TRUE(fx.tree->Delete(1.0, 2).IsNotFound());
  EXPECT_TRUE(fx.tree->Delete(2.0, 1).IsNotFound());
  EXPECT_EQ(fx.tree->size(), 1u);
}

TEST(BPlusTreeTest, DeleteShrinksTreeToEmpty) {
  TreeFixture fx;
  for (uint32_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(fx.tree->Insert(static_cast<double>(i), i).ok());
  }
  uint64_t pages_before = fx.pager->live_page_count();
  for (uint32_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(fx.tree->Delete(static_cast<double>(i), i).ok()) << i;
  }
  EXPECT_EQ(fx.tree->size(), 0u);
  EXPECT_EQ(fx.tree->height(), 1u);
  EXPECT_TRUE(fx.tree->CheckInvariants().ok());
  EXPECT_LT(fx.pager->live_page_count(), pages_before / 4);
}

TEST(BPlusTreeTest, HandicapMergeAndReset) {
  TreeFixture fx;
  for (uint32_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(fx.tree->Insert(static_cast<double>(i), i).ok());
  }
  // Slots 0-1 are min-combined, 2-3 max-combined.
  ASSERT_TRUE(fx.tree->MergeHandicap(5.0, 0, 3.25).ok());
  ASSERT_TRUE(fx.tree->MergeHandicap(5.0, 0, 7.0).ok());   // Ignored (min).
  ASSERT_TRUE(fx.tree->MergeHandicap(5.0, 2, -1.0).ok());
  ASSERT_TRUE(fx.tree->MergeHandicap(5.0, 2, 4.0).ok());   // Kept (max).
  LeafCursor cur;
  ASSERT_TRUE(fx.tree->SeekLeaf(5.0, &cur).ok());
  EXPECT_EQ(cur.handicap(0), 3.25);
  EXPECT_EQ(cur.handicap(1), kInf);   // Untouched neutral.
  EXPECT_EQ(cur.handicap(2), 4.0);
  EXPECT_EQ(cur.handicap(3), -kInf);
  ASSERT_TRUE(fx.tree->ResetHandicaps().ok());
  ASSERT_TRUE(fx.tree->SeekLeaf(5.0, &cur).ok());
  EXPECT_EQ(cur.handicap(0), kInf);
  EXPECT_EQ(cur.handicap(2), -kInf);
}

TEST(BPlusTreeTest, HandicapsSurviveSplitsConservatively) {
  TreeFixture fx;
  ASSERT_TRUE(fx.tree->Insert(500.0, 0).ok());
  ASSERT_TRUE(fx.tree->MergeHandicap(500.0, 0, 42.0).ok());
  // Force many splits around the handicapped leaf.
  for (uint32_t i = 1; i < 800; ++i) {
    ASSERT_TRUE(fx.tree->Insert(static_cast<double>(i), i).ok());
  }
  // The leaf containing 500 must still carry a handicap <= 42 (conservative
  // maintenance can only lower min-slots, never raise them).
  LeafCursor cur;
  ASSERT_TRUE(fx.tree->SeekLeaf(500.0, &cur).ok());
  EXPECT_LE(cur.handicap(0), 42.0);
}

TEST(BPlusTreeTest, OpenFromMetaPage) {
  PagerOptions opts;
  opts.page_size = 256;
  std::unique_ptr<Pager> pager;
  ASSERT_TRUE(Pager::Open(std::make_unique<MemFile>(256), opts, &pager).ok());
  PageId meta;
  {
    std::unique_ptr<BPlusTree> tree;
    ASSERT_TRUE(BPlusTree::Create(pager.get(), &tree).ok());
    for (uint32_t i = 0; i < 300; ++i) {
      ASSERT_TRUE(tree->Insert(static_cast<double>(i), i).ok());
    }
    meta = tree->meta_page();
  }
  std::unique_ptr<BPlusTree> tree;
  ASSERT_TRUE(BPlusTree::Open(pager.get(), meta, &tree).ok());
  EXPECT_EQ(tree->size(), 300u);
  Result<bool> c = tree->Contains(123.0, 123);
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(c.value());
  EXPECT_TRUE(tree->CheckInvariants().ok());
}

// Model-based property test: random interleaved inserts and deletes against
// a std::set reference, with invariant checks and full-content comparison.
class BPlusTreeModelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BPlusTreeModelTest, MatchesReferenceModel) {
  TreeFixture fx;
  Rng rng(GetParam());
  std::set<Entry> model;
  uint32_t next_val = 0;
  for (int op = 0; op < 4000; ++op) {
    bool do_insert = model.empty() || rng.Chance(0.6);
    if (do_insert) {
      // Cluster keys to exercise duplicates; occasionally infinite.
      double key = rng.Chance(0.05)
                       ? (rng.Chance(0.5) ? kInf : -kInf)
                       : std::floor(rng.Uniform(-50, 50)) / 2.0;
      uint32_t val = next_val++;
      ASSERT_TRUE(fx.tree->Insert(key, val).ok());
      model.insert({key, val});
    } else {
      // Delete a random existing element.
      auto it = model.begin();
      std::advance(it, rng.UniformInt(0, static_cast<int64_t>(model.size()) - 1));
      ASSERT_TRUE(fx.tree->Delete(it->first, it->second).ok());
      model.erase(it);
    }
    if (op % 500 == 499) {
      ASSERT_TRUE(fx.tree->CheckInvariants().ok()) << "op " << op;
    }
  }
  ASSERT_TRUE(fx.tree->CheckInvariants().ok());
  EXPECT_EQ(fx.tree->size(), model.size());
  std::vector<Entry> expected(model.begin(), model.end());
  EXPECT_EQ(Dump(*fx.tree), expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BPlusTreeModelTest,
                         ::testing::Values(1, 2, 3, 4, 5, 20260704));

// Complexity sanity (Theorem 3.1 shape): page fetches per point lookup grow
// logarithmically, not linearly.
TEST(BPlusTreeTest, LookupCostIsLogarithmic) {
  TreeFixture fx(1024);
  Rng rng(9);
  for (uint32_t i = 0; i < 20000; ++i) {
    ASSERT_TRUE(fx.tree->Insert(rng.Uniform(0, 1e6), i).ok());
  }
  ASSERT_TRUE(fx.pager->DropCache().ok());
  IoStats before = fx.pager->stats();
  const int kLookups = 200;
  for (int i = 0; i < kLookups; ++i) {
    LeafCursor cur;
    ASSERT_TRUE(fx.tree->SeekLeaf(rng.Uniform(0, 1e6), &cur).ok());
  }
  uint64_t fetches = fx.pager->stats().Delta(before).page_fetches;
  // Height is ~3 at 20k entries with 1 KiB pages; allow generous slack.
  EXPECT_LE(fetches, static_cast<uint64_t>(kLookups) * 6);
}

}  // namespace
}  // namespace cdb
