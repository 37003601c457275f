// Augmented (incremental-handicap) B+-tree unit tests (PR 4 tentpole).
//
// The augmented tree keeps per-leaf handicap slots and per-child internal
// aggregates exact across every mutation; CheckInvariants() re-derives the
// aggregate of every internal entry from its child subtree and demands a
// bit-for-bit match, so driving thousands of inserts and deletes through
// CheckInvariants is a strong exactness proof — there is no tolerance to
// hide behind. SecondSweepBound is validated against a brute-force scan of
// the entries' assignment values: it must be conservative (never cuts off a
// qualifying entry) and leaf-granular tight.

#include "btree/bplus_tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "pager_test_util.h"
#include "storage/file.h"

namespace cdb {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::unique_ptr<Pager> MakePager(size_t cache_frames = 256) {
  PagerOptions opts;
  opts.page_size = 1024;
  opts.cache_frames = cache_frames;
  std::unique_ptr<Pager> pager;
  EXPECT_TRUE(Pager::Open(std::make_unique<MemFile>(1024), opts, &pager).ok());
  return pager;
}

// Deterministic assignment values per stored value: pure arithmetic, so the
// bulk load, the insert path, and the delete-time callback all agree.
void AssignOf(uint32_t v, double* m) {
  m[0] = static_cast<double>((v * 7) % 991) - 400.0;
  m[1] = static_cast<double>((v * 13) % 997) - 500.0;
  m[2] = static_cast<double>((v * 5) % 983) - 450.0;
  m[3] = static_cast<double>((v * 11) % 1009) - 520.0;
}

double KeyOf(uint32_t v) {
  // Collides on purpose (duplicate keys are first-class); (key, value)
  // stays unique because v is.
  return static_cast<double>((v * 37) % 1201) * 0.25 - 150.0;
}

BPlusTree::AssignmentFn MakeAssignmentFn() {
  return [](uint32_t value, double* m) -> Status {
    AssignOf(value, m);
    return Status::OK();
  };
}

struct RefEntry {
  double key;
  uint32_t value;
  double m[4];
};

RefEntry MakeRef(uint32_t v) {
  RefEntry e;
  e.key = KeyOf(v);
  e.value = v;
  AssignOf(v, e.m);
  return e;
}

// Brute-force SecondSweepBound reference over the live entry set. For low
// slots an entry qualifies with m >= b, for high slots with m <= b; the
// exact bound is the min (low) / max (high) key among qualifiers. The
// tree's answer may be up to one leaf looser, never tighter.
// `check_tight` additionally pins the bound to the exact bound's own leaf;
// only valid when keys are unique (duplicate keys spanning a leaf boundary
// make "the leaf containing the exact bound" ambiguous).
void CheckBoundAgainst(const BPlusTree& tree,
                       const std::vector<RefEntry>& live, int slot, double b,
                       bool check_tight) {
  const bool low = slot < 2;
  bool want_have = false;
  double exact = low ? kInf : -kInf;
  for (const RefEntry& e : live) {
    const bool qual = low ? e.m[slot] >= b : e.m[slot] <= b;
    if (!qual) continue;
    want_have = true;
    exact = low ? std::min(exact, e.key) : std::max(exact, e.key);
  }
  bool have = false;
  double bound = 0.0;
  ASSERT_TRUE(tree.SecondSweepBound(slot, b, &have, &bound).ok());
  ASSERT_EQ(have, want_have) << "slot " << slot << " b " << b;
  if (!want_have) return;
  // Conservative: the bound never excludes a qualifying entry.
  if (low) {
    EXPECT_LE(bound, exact) << "slot " << slot << " b " << b;
  } else {
    EXPECT_GE(bound, exact) << "slot " << slot << " b " << b;
  }
  if (!check_tight) return;
  // Leaf-granular tight: the bound is the first (last) key of the leaf
  // holding the exact bound, so seeking that leaf must reproduce it. When
  // `exact` opens a leaf, SeekLeaf parks one-past-the-end of the previous
  // leaf (composite (exact, 0) sorts before the stored entry) — step over
  // the boundary.
  LeafCursor cur;
  ASSERT_TRUE(tree.SeekLeaf(exact, &cur).ok());
  ASSERT_TRUE(cur.valid());
  if (cur.seek_pos() == cur.entry_count()) {
    ASSERT_TRUE(cur.NextLeaf().ok());
    ASSERT_TRUE(cur.valid());
    ASSERT_EQ(cur.key(0), exact) << "slot " << slot << " b " << b;
  } else {
    ASSERT_EQ(cur.key(cur.seek_pos()), exact) << "slot " << slot << " b " << b;
  }
  if (low) {
    EXPECT_EQ(bound, cur.key(0)) << "slot " << slot << " b " << b;
  } else {
    EXPECT_EQ(bound, cur.key(cur.entry_count() - 1))
        << "slot " << slot << " b " << b;
  }
}

TEST(BtreeAugmentedTest, BulkLoadMatchesOrdinaryLeafStructure) {
  auto ord_pager = MakePager();
  auto aug_pager = MakePager();

  std::vector<std::pair<double, uint32_t>> plain;
  std::vector<BPlusTree::AugEntry> aug;
  for (uint32_t v = 0; v < 1000; ++v) {
    plain.emplace_back(KeyOf(v), v);
    BPlusTree::AugEntry e{KeyOf(v), v, {}};
    AssignOf(v, e.m);
    aug.push_back(e);
  }
  std::unique_ptr<BPlusTree> ord, tree;
  ASSERT_TRUE(BPlusTree::BulkLoad(ord_pager.get(), plain, 0.8, &ord).ok());
  ASSERT_TRUE(BPlusTree::BulkLoad(aug_pager.get(), aug, 0.8,
                                  /*augmented=*/true, &tree)
                  .ok());
  ASSERT_TRUE(ord->CheckInvariants().ok());
  ASSERT_TRUE(tree->CheckInvariants().ok());
  EXPECT_FALSE(ord->augmented());
  EXPECT_TRUE(tree->augmented());
  EXPECT_EQ(ord->size(), tree->size());

  // The leaf layout is unchanged in augmented mode (only internal nodes
  // grow), so the leaf-by-leaf entry sequence — what T2's sweeps pay for —
  // must be identical.
  LeafCursor a, o;
  ASSERT_TRUE(ord->SeekFirstLeaf(&o).ok());
  ASSERT_TRUE(tree->SeekFirstLeaf(&a).ok());
  while (o.valid() && a.valid()) {
    ASSERT_EQ(o.entry_count(), a.entry_count());
    for (int i = 0; i < o.entry_count(); ++i) {
      EXPECT_EQ(o.key(i), a.key(i));
      EXPECT_EQ(o.value(i), a.value(i));
    }
    ASSERT_TRUE(o.NextLeaf().ok());
    ASSERT_TRUE(a.NextLeaf().ok());
  }
  EXPECT_FALSE(o.valid());
  EXPECT_FALSE(a.valid());
  ExpectNoPinnedFrames(*ord_pager);
  ExpectNoPinnedFrames(*aug_pager);
}

TEST(BtreeAugmentedTest, InsertsAndDeletesKeepAggregatesExact) {
  auto pager = MakePager();
  std::unique_ptr<BPlusTree> tree;
  ASSERT_TRUE(BPlusTree::CreateAugmented(pager.get(), &tree).ok());
  tree->SetAssignmentFn(MakeAssignmentFn());

  // Enough entries for height >= 3 with the 20-way augmented fan-out, so
  // splits propagate through internal nodes and the root.
  std::vector<RefEntry> live;
  for (uint32_t v = 0; v < 2500; ++v) {
    RefEntry e = MakeRef(v);
    ASSERT_TRUE(tree->InsertWithAssignment(e.key, e.value, e.m).ok()) << v;
    live.push_back(e);
    if (v % 250 == 249) {
      ASSERT_TRUE(tree->CheckInvariants().ok()) << "after insert " << v;
    }
  }
  EXPECT_GE(tree->height(), 3u);
  EXPECT_EQ(tree->handicap_staleness(), 0u);

  // Delete every third entry — enough churn to exercise leaf borrows,
  // leaf merges, and internal rebalances.
  std::vector<RefEntry> kept;
  for (size_t i = 0; i < live.size(); ++i) {
    if (i % 3 == 0) {
      ASSERT_TRUE(tree->Delete(live[i].key, live[i].value).ok()) << i;
      if (i % 300 == 0) {
        ASSERT_TRUE(tree->CheckInvariants().ok()) << "after delete " << i;
      }
    } else {
      kept.push_back(live[i]);
    }
  }
  ASSERT_TRUE(tree->CheckInvariants().ok());
  EXPECT_EQ(tree->size(), kept.size());
  EXPECT_EQ(tree->handicap_staleness(), 0u);

  // The maintained bounds must agree with brute force on the surviving set
  // (keys here collide, so only conservativeness is asserted).
  for (int slot = 0; slot < 4; ++slot) {
    for (double b : {-600.0, -123.5, 0.0, 77.25, 444.0, 600.0}) {
      CheckBoundAgainst(*tree, kept, slot, b, /*check_tight=*/false);
    }
  }
  ExpectNoPinnedFrames(*pager);
}

TEST(BtreeAugmentedTest, SecondSweepBoundMatchesBruteForce) {
  auto pager = MakePager();
  std::vector<BPlusTree::AugEntry> entries;
  std::vector<RefEntry> ref;
  for (uint32_t v = 0; v < 1500; ++v) {
    RefEntry e = MakeRef(v);
    e.key = static_cast<double>(v) * 0.37 - 200.0;  // Unique: tightness
                                                    // is well-defined.
    ref.push_back(e);
    BPlusTree::AugEntry a{e.key, e.value, {e.m[0], e.m[1], e.m[2], e.m[3]}};
    entries.push_back(a);
  }
  std::unique_ptr<BPlusTree> tree;
  ASSERT_TRUE(BPlusTree::BulkLoad(pager.get(), entries, 0.8,
                                  /*augmented=*/true, &tree)
                  .ok());
  tree->SetAssignmentFn(MakeAssignmentFn());

  for (int slot = 0; slot < 4; ++slot) {
    for (double b = -550.0; b <= 550.0; b += 37.5) {
      CheckBoundAgainst(*tree, ref, slot, b, /*check_tight=*/true);
    }
    // Nothing qualifies past the extremes: have must come back false.
    bool have = true;
    double bound = 0.0;
    const double extreme = slot < 2 ? 1e9 : -1e9;
    ASSERT_TRUE(tree->SecondSweepBound(slot, extreme, &have, &bound).ok());
    EXPECT_FALSE(have);
  }
  ExpectNoPinnedFrames(*pager);
}

TEST(BtreeAugmentedTest, RecomputeAugmentedIsANoOpOnExactState) {
  auto pager = MakePager();
  std::unique_ptr<BPlusTree> tree;
  ASSERT_TRUE(BPlusTree::CreateAugmented(pager.get(), &tree).ok());
  tree->SetAssignmentFn(MakeAssignmentFn());
  for (uint32_t v = 0; v < 600; ++v) {
    RefEntry e = MakeRef(v);
    ASSERT_TRUE(tree->InsertWithAssignment(e.key, e.value, e.m).ok());
  }
  ASSERT_TRUE(tree->CheckInvariants().ok());
  // The compaction pass must find nothing to fix...
  ASSERT_TRUE(tree->RecomputeAugmented().ok());
  ASSERT_TRUE(tree->CheckInvariants().ok());
  // ...and the bounds must be unchanged by it.
  std::vector<RefEntry> ref;
  for (uint32_t v = 0; v < 600; ++v) ref.push_back(MakeRef(v));
  for (int slot = 0; slot < 4; ++slot) {
    CheckBoundAgainst(*tree, ref, slot, 10.0, /*check_tight=*/false);
  }
  ExpectNoPinnedFrames(*pager);
}

TEST(BtreeAugmentedTest, PersistsAugmentedFlagAcrossReopen) {
  PagerOptions opts;
  opts.page_size = 1024;
  auto file = std::make_shared<MemFile>(1024);
  PageId meta = kInvalidPageId;
  {
    std::unique_ptr<Pager> pager;
    ASSERT_TRUE(
        Pager::Open(std::make_unique<SharedFile>(file), opts, &pager).ok());
    std::unique_ptr<BPlusTree> tree;
    ASSERT_TRUE(BPlusTree::CreateAugmented(pager.get(), &tree).ok());
    tree->SetAssignmentFn(MakeAssignmentFn());
    for (uint32_t v = 0; v < 400; ++v) {
      RefEntry e = MakeRef(v);
      ASSERT_TRUE(tree->InsertWithAssignment(e.key, e.value, e.m).ok());
    }
    meta = tree->meta_page();
    ASSERT_TRUE(pager->Flush().ok());
  }
  {
    std::unique_ptr<Pager> pager;
    ASSERT_TRUE(
        Pager::Open(std::make_unique<SharedFile>(file), opts, &pager).ok());
    std::unique_ptr<BPlusTree> tree;
    ASSERT_TRUE(BPlusTree::Open(pager.get(), meta, &tree).ok());
    EXPECT_TRUE(tree->augmented());
    EXPECT_EQ(tree->size(), 400u);
    ASSERT_TRUE(tree->CheckInvariants().ok());
    // Mutations still work after reopen (callback re-registered).
    tree->SetAssignmentFn(MakeAssignmentFn());
    RefEntry e = MakeRef(4000);
    ASSERT_TRUE(tree->InsertWithAssignment(e.key, e.value, e.m).ok());
    ASSERT_TRUE(tree->Delete(KeyOf(7), 7).ok());
    ASSERT_TRUE(tree->CheckInvariants().ok());
    ExpectNoPinnedFrames(*pager);
  }
}

TEST(BtreeAugmentedTest, ModeGuardsRejectCrossModeCalls) {
  auto pager = MakePager();
  std::unique_ptr<BPlusTree> aug, ord;
  ASSERT_TRUE(BPlusTree::CreateAugmented(pager.get(), &aug).ok());
  ASSERT_TRUE(BPlusTree::Create(pager.get(), &ord).ok());

  double m[4] = {0, 0, 0, 0};
  EXPECT_TRUE(aug->Insert(1.0, 1).IsInvalidArgument());
  EXPECT_TRUE(aug->MergeHandicap(0.0, 0, 1.0).IsInvalidArgument());
  EXPECT_TRUE(aug->ResetHandicaps().IsInvalidArgument());
  EXPECT_TRUE(ord->InsertWithAssignment(1.0, 1, m).IsInvalidArgument());
  EXPECT_TRUE(ord->RecomputeAugmented().IsInvalidArgument());
  bool have = false;
  double bound = 0.0;
  EXPECT_TRUE(ord->SecondSweepBound(0, 0.0, &have, &bound).IsInvalidArgument());
  // Mutating an augmented tree without the callback fails once the
  // callback is actually needed (delete resolves the removed assignments).
  ASSERT_TRUE(aug->InsertWithAssignment(1.0, 1, m).ok());
  EXPECT_TRUE(aug->Delete(1.0, 1).IsInvalidArgument());
  aug->SetAssignmentFn(MakeAssignmentFn());
  EXPECT_TRUE(aug->Delete(1.0, 1).ok());
  ExpectNoPinnedFrames(*pager);
}

TEST(BtreeAugmentedTest, OrdinaryTreeCountsStalenessEvents) {
  auto pager = MakePager();
  std::vector<std::pair<double, uint32_t>> entries;
  for (uint32_t v = 0; v < 300; ++v) entries.emplace_back(KeyOf(v), v);
  std::unique_ptr<BPlusTree> tree;
  // Fill 1.0: every leaf is packed, so the first insert into any full leaf
  // splits it and degrades the copied handicaps.
  ASSERT_TRUE(BPlusTree::BulkLoad(pager.get(), entries, 1.0, &tree).ok());
  EXPECT_EQ(tree->handicap_staleness(), 0u);

  for (uint32_t v = 1000; v < 1040; ++v) {
    ASSERT_TRUE(tree->Insert(KeyOf(v), v).ok());
  }
  const uint64_t after_inserts = tree->handicap_staleness();
  EXPECT_GE(after_inserts, 1u) << "leaf splits must register as staleness";

  ASSERT_TRUE(tree->Delete(KeyOf(5), 5).ok());
  EXPECT_GT(tree->handicap_staleness(), after_inserts)
      << "every delete degrades a handicap lower bound";

  ASSERT_TRUE(tree->ResetHandicaps().ok());
  EXPECT_EQ(tree->handicap_staleness(), 0u);
  ExpectNoPinnedFrames(*pager);
}

}  // namespace
}  // namespace cdb
