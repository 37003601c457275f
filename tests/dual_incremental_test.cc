// Incremental handicap maintenance at the DualIndex level (PR 4 tentpole,
// satellite 4).
//
// The historical trap (CLAUDE.md): folding handicaps while leaves split
// copies near-global bounds into both halves and poisons the tree — which
// is why ordinary mode bulk-builds keys first and rebuilds handicaps on the
// settled structure. Incremental mode must not re-learn that lesson: after
// any mix of inserts (forcing leaf splits) and removes, every leaf slot
// must equal what a fresh RebuildHandicaps() produces, bit for bit. Slot
// folds are min/max — order-independent — so exact equality (==, not
// memcmp: the sign of 0.0 may differ) is the right assertion.
//
// Query-level proofs ride along: T2 under incremental handicaps must match
// the ordinary index and the naive evaluator after updates, and the
// unrefined candidate sets must be proven supersets of the truth.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "constraint/naive_eval.h"
#include "dualindex/dual_index.h"
#include "obs/metrics.h"
#include "pager_test_util.h"
#include "storage/file.h"
#include "workload/generator.h"

namespace cdb {
namespace {

constexpr uint64_t kSeed = 20260807;

std::unique_ptr<Pager> MakePager() {
  PagerOptions opts;
  opts.page_size = 1024;
  opts.cache_frames = 128;
  std::unique_ptr<Pager> pager;
  EXPECT_TRUE(Pager::Open(std::make_unique<MemFile>(1024), opts, &pager).ok());
  return pager;
}

std::vector<HalfPlaneQuery> MakeQueries(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<HalfPlaneQuery> qs;
  for (size_t i = 0; i < n; ++i) {
    qs.emplace_back(std::tan(rng.Uniform(-1.2, 1.2)), rng.Uniform(-60, 60),
                    rng.Chance(0.5) ? Cmp::kGE : Cmp::kLE);
  }
  return qs;
}

struct IncFixture {
  std::unique_ptr<Pager> rel_pager = MakePager();
  std::unique_ptr<Pager> inc_pager = MakePager();
  std::unique_ptr<Pager> ord_pager = MakePager();
  std::unique_ptr<Pager> raw_pager = MakePager();
  std::unique_ptr<Relation> relation;
  std::unique_ptr<DualIndex> inc;  // incremental_handicaps = true.
  std::unique_ptr<DualIndex> ord;  // Ordinary handicaps (paper mode).
  std::unique_ptr<DualIndex> raw;  // Incremental, refine = false.
  std::vector<GeneralizedTuple> tuples;  // By id, for Remove.
  Rng rng{kSeed};
  WorkloadOptions wopts;

  explicit IncFixture(size_t n0 = 400) {
    EXPECT_TRUE(
        Relation::Open(rel_pager.get(), kInvalidPageId, &relation).ok());
    for (size_t i = 0; i < n0; ++i) {
      GeneralizedTuple t = RandomBoundedTuple(&rng, wopts);
      EXPECT_TRUE(relation->Insert(t).ok());
      tuples.push_back(t);
    }
    SlopeSet slopes = SlopeSet::UniformInAngle(4, -1.3, 1.3);
    DualIndexOptions inc_opts;
    inc_opts.incremental_handicaps = true;
    EXPECT_TRUE(DualIndex::Build(inc_pager.get(), relation.get(), slopes,
                                 inc_opts, &inc)
                    .ok());
    EXPECT_TRUE(
        DualIndex::Build(ord_pager.get(), relation.get(), slopes, {}, &ord)
            .ok());
    DualIndexOptions raw_opts;
    raw_opts.incremental_handicaps = true;
    raw_opts.refine = false;
    EXPECT_TRUE(DualIndex::Build(raw_pager.get(), relation.get(), slopes,
                                 raw_opts, &raw)
                    .ok());
  }

  ~IncFixture() {
    ExpectNoPinnedFrames(*rel_pager);
    ExpectNoPinnedFrames(*inc_pager);
    ExpectNoPinnedFrames(*ord_pager);
    ExpectNoPinnedFrames(*raw_pager);
  }

  // Appends `n` fresh tuples to the relation and every index.
  void InsertMore(size_t n) {
    for (size_t i = 0; i < n; ++i) {
      GeneralizedTuple t = RandomBoundedTuple(&rng, wopts);
      Result<TupleId> id = relation->Insert(t);
      ASSERT_TRUE(id.ok());
      tuples.push_back(t);
      ASSERT_TRUE(inc->Insert(id.value(), t).ok());
      ASSERT_TRUE(ord->Insert(id.value(), t).ok());
      ASSERT_TRUE(raw->Insert(id.value(), t).ok());
    }
  }

  // Removes tuple `id` from every index, then the relation (index removal
  // must run first: augmented trees resolve the removed assignments by
  // refetching the tuple).
  void Remove(TupleId id) {
    ASSERT_TRUE(inc->Remove(id, tuples[id]).ok());
    ASSERT_TRUE(ord->Remove(id, tuples[id]).ok());
    ASSERT_TRUE(raw->Remove(id, tuples[id]).ok());
    ASSERT_TRUE(relation->Delete(id).ok());
  }

  std::vector<TupleId> Truth(SelectionType type, const HalfPlaneQuery& q) {
    Result<std::vector<TupleId>> r = NaiveSelect(*relation, type, q);
    EXPECT_TRUE(r.ok());
    return r.value_or({});
  }
};

// Every leaf's four handicap slots of every tree of the index, in leaf
// order — the complete observable handicap state.
using SlotSnapshot = std::vector<std::vector<std::array<double, 4>>>;

SlotSnapshot SnapshotLeafSlots(Pager* pager, const DualIndexManifest& m) {
  SlotSnapshot snap;
  std::vector<PageId> metas = m.up_metas;
  metas.insert(metas.end(), m.down_metas.begin(), m.down_metas.end());
  for (PageId meta : metas) {
    std::unique_ptr<BPlusTree> tree;
    EXPECT_TRUE(BPlusTree::Open(pager, meta, &tree).ok());
    std::vector<std::array<double, 4>> leaves;
    LeafCursor cur;
    EXPECT_TRUE(tree->SeekFirstLeaf(&cur).ok());
    while (cur.valid()) {
      leaves.push_back({cur.handicap(0), cur.handicap(1), cur.handicap(2),
                        cur.handicap(3)});
      EXPECT_TRUE(cur.NextLeaf().ok());
    }
    snap.push_back(std::move(leaves));
  }
  return snap;
}

TEST(DualIncrementalTest, SplitsNeverWidenSlotsBeyondFreshRebuild) {
  IncFixture fx(400);
  // Force plenty of leaf splits on trees whose leaves were bulk-packed at
  // 0.8 fill, plus deletions for merge/borrow coverage.
  fx.InsertMore(300);
  for (TupleId id = 0; id < 120; id += 2) fx.Remove(id);
  ASSERT_TRUE(fx.inc->CheckInvariants().ok());

  const DualIndexManifest manifest = fx.inc->Manifest();
  SlotSnapshot incremental = SnapshotLeafSlots(fx.inc_pager.get(), manifest);
  // A fresh rebuild recomputes every slot from the relation contents...
  ASSERT_TRUE(fx.inc->RebuildHandicaps().ok());
  SlotSnapshot rebuilt = SnapshotLeafSlots(fx.inc_pager.get(), manifest);

  // ...and must find exactly what incremental maintenance left there: the
  // split-era trap (smeared, near-global bounds) would show up as a slot
  // strictly wider than its rebuilt value.
  ASSERT_EQ(incremental.size(), rebuilt.size());
  for (size_t t = 0; t < incremental.size(); ++t) {
    ASSERT_EQ(incremental[t].size(), rebuilt[t].size()) << "tree " << t;
    for (size_t l = 0; l < incremental[t].size(); ++l) {
      for (int s = 0; s < 4; ++s) {
        EXPECT_EQ(incremental[t][l][s], rebuilt[t][l][s])
            << "tree " << t << " leaf " << l << " slot " << s;
      }
    }
  }
}

TEST(DualIncrementalTest, T2MatchesOrdinaryAndNaiveAfterUpdates) {
  IncFixture fx(400);
  fx.InsertMore(250);
  for (TupleId id = 1; id < 100; id += 3) fx.Remove(id);

  for (const HalfPlaneQuery& q : MakeQueries(40, kSeed + 1)) {
    for (SelectionType type : {SelectionType::kAll, SelectionType::kExist}) {
      Result<std::vector<TupleId>> got =
          fx.inc->Select(type, q, QueryMethod::kT2);
      ASSERT_TRUE(got.ok());
      Result<std::vector<TupleId>> ord =
          fx.ord->Select(type, q, QueryMethod::kT2);
      ASSERT_TRUE(ord.ok());
      EXPECT_EQ(got.value(), ord.value());
      EXPECT_EQ(got.value(), fx.Truth(type, q));
    }
  }
}

TEST(DualIncrementalTest, CandidateSetsAreProvenSupersets) {
  IncFixture fx(400);
  fx.InsertMore(200);

  for (const HalfPlaneQuery& q : MakeQueries(30, kSeed + 2)) {
    for (SelectionType type : {SelectionType::kAll, SelectionType::kExist}) {
      Result<std::vector<TupleId>> cand =
          fx.raw->Select(type, q, QueryMethod::kT2);
      ASSERT_TRUE(cand.ok());
      std::vector<TupleId> sorted = cand.value();
      std::sort(sorted.begin(), sorted.end());
      for (TupleId id : fx.Truth(type, q)) {
        ASSERT_TRUE(std::binary_search(sorted.begin(), sorted.end(), id))
            << "incremental candidate set lost tuple " << id;
      }
    }
  }
}

TEST(DualIncrementalTest, StalenessGaugeTracksOrdinaryDegradationOnly) {
  IncFixture fx(400);
  EXPECT_EQ(fx.inc->handicap_staleness(), 0u);
  EXPECT_EQ(fx.ord->handicap_staleness(), 0u);

  fx.InsertMore(300);
  for (TupleId id = 0; id < 60; id += 2) fx.Remove(id);

  // The ordinary index degraded (splits copied slots, deletes left them
  // loose); the incremental one never does.
  EXPECT_GT(fx.ord->handicap_staleness(), 0u);
  EXPECT_EQ(fx.inc->handicap_staleness(), 0u);

  obs::GlobalMetrics().SetEnabled(true);
  fx.ord->ExportStalenessMetrics();
  EXPECT_EQ(obs::GlobalMetrics().gauge("dual.handicap.staleness")->value(),
            static_cast<double>(fx.ord->handicap_staleness()));
  fx.inc->ExportStalenessMetrics();
  EXPECT_EQ(obs::GlobalMetrics().gauge("dual.handicap.staleness")->value(),
            0.0);
  obs::GlobalMetrics().SetEnabled(false);

  // A rebuild clears the ordinary index's debt.
  ASSERT_TRUE(fx.ord->RebuildHandicaps().ok());
  EXPECT_EQ(fx.ord->handicap_staleness(), 0u);
}

TEST(DualIncrementalTest, ManifestRoundTripRederivesIncrementalMode) {
  IncFixture fx(300);
  fx.InsertMore(100);
  const DualIndexManifest manifest = fx.inc->Manifest();

  // Reopen with *default* runtime options: the mode must come back from
  // the trees' meta pages, not from the caller.
  std::unique_ptr<DualIndex> reopened;
  ASSERT_TRUE(DualIndex::Open(fx.inc_pager.get(), fx.relation.get(), manifest,
                              {}, &reopened)
                  .ok());
  ASSERT_TRUE(reopened->CheckInvariants().ok());
  EXPECT_EQ(reopened->handicap_staleness(), 0u);

  for (const HalfPlaneQuery& q : MakeQueries(15, kSeed + 3)) {
    Result<std::vector<TupleId>> got =
        reopened->Select(SelectionType::kExist, q, QueryMethod::kT2);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), fx.Truth(SelectionType::kExist, q));
  }

  // Mutations through the reopened handle keep the invariants (the
  // assignment callbacks were re-registered by Open).
  GeneralizedTuple t = RandomBoundedTuple(&fx.rng, fx.wopts);
  Result<TupleId> id = fx.relation->Insert(t);
  ASSERT_TRUE(id.ok());
  fx.tuples.push_back(t);
  ASSERT_TRUE(reopened->Insert(id.value(), t).ok());
  ASSERT_TRUE(reopened->CheckInvariants().ok());
}

}  // namespace
}  // namespace cdb
