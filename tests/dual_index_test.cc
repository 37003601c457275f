#include "dualindex/dual_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "pager_test_util.h"
#include "storage/file.h"
#include "workload/generator.h"
#include "workload/query_gen.h"

namespace cdb {
namespace {

std::unique_ptr<Pager> MakePager() {
  PagerOptions opts;
  opts.page_size = 1024;
  opts.cache_frames = 64;
  std::unique_ptr<Pager> pager;
  EXPECT_TRUE(
      Pager::Open(std::make_unique<MemFile>(1024), opts, &pager).ok());
  return pager;
}

struct IndexFixture {
  std::unique_ptr<Pager> rel_pager = MakePager();
  std::unique_ptr<Pager> idx_pager = MakePager();
  std::unique_ptr<Relation> relation;
  std::unique_ptr<DualIndex> index;
  Rng rng;

  explicit IndexFixture(uint64_t seed) : rng(seed) {
    EXPECT_TRUE(
        Relation::Open(rel_pager.get(), kInvalidPageId, &relation).ok());
  }

  // Pins are never released spontaneously, so a query that leaked one
  // anywhere in the test is still caught here.
  ~IndexFixture() {
    ExpectNoPinnedFrames(*rel_pager);
    ExpectNoPinnedFrames(*idx_pager);
  }

  void Populate(int n, bool include_unbounded = false) {
    WorkloadOptions w;
    for (int i = 0; i < n; ++i) {
      GeneralizedTuple t = (include_unbounded && rng.Chance(0.25))
                               ? RandomUnboundedTuple(&rng, w)
                               : RandomBoundedTuple(&rng, w);
      ASSERT_TRUE(relation->Insert(t).ok());
    }
  }

  void BuildIndex(SlopeSet slopes, DualIndexOptions opts = {}) {
    ASSERT_TRUE(DualIndex::Build(idx_pager.get(), relation.get(),
                                 std::move(slopes), opts, &index)
                    .ok());
  }

  std::vector<TupleId> Truth(SelectionType type, const HalfPlaneQuery& q) {
    Result<std::vector<TupleId>> r = NaiveSelect(*relation, type, q);
    EXPECT_TRUE(r.ok());
    return r.value_or({});
  }
};

SlopeSet DefaultSlopes(size_t k = 4) {
  return SlopeSet::UniformInAngle(k, -1.3, 1.3);
}

TEST(DualIndexTest, RestrictedMatchesNaiveForAllFamilies) {
  IndexFixture fx(101);
  fx.Populate(200);
  fx.BuildIndex(DefaultSlopes());
  for (size_t i = 0; i < fx.index->slopes().size(); ++i) {
    double slope = fx.index->slopes().slope(i);
    for (int qi = 0; qi < 8; ++qi) {
      HalfPlaneQuery q(slope, fx.rng.Uniform(-80, 80),
                       fx.rng.Chance(0.5) ? Cmp::kGE : Cmp::kLE);
      for (SelectionType type :
           {SelectionType::kAll, SelectionType::kExist}) {
        QueryStats stats;
        Result<std::vector<TupleId>> got =
            fx.index->Select(type, q, QueryMethod::kRestricted, &stats);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_EQ(got.value(), fx.Truth(type, q))
            << "slope=" << slope << " b=" << q.intercept;
        EXPECT_EQ(stats.false_hits, 0u);
        EXPECT_EQ(stats.duplicates, 0u);
      }
    }
  }
}

TEST(DualIndexTest, RestrictedRejectsForeignSlope) {
  IndexFixture fx(102);
  fx.Populate(20);
  fx.BuildIndex(DefaultSlopes());
  Result<std::vector<TupleId>> r =
      fx.index->Select(SelectionType::kExist, HalfPlaneQuery(0.123, 0, Cmp::kGE),
                       QueryMethod::kRestricted);
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST(DualIndexTest, T1MatchesNaiveOnArbitrarySlopes) {
  IndexFixture fx(103);
  fx.Populate(250);
  fx.BuildIndex(DefaultSlopes());
  for (int qi = 0; qi < 40; ++qi) {
    // Includes slopes beyond the set range (wrap cases).
    double slope = std::tan(fx.rng.Uniform(-1.5, 1.5));
    HalfPlaneQuery q(slope, fx.rng.Uniform(-80, 80),
                     fx.rng.Chance(0.5) ? Cmp::kGE : Cmp::kLE);
    for (SelectionType type : {SelectionType::kAll, SelectionType::kExist}) {
      Result<std::vector<TupleId>> got =
          fx.index->Select(type, q, QueryMethod::kT1);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(got.value(), fx.Truth(type, q))
          << "qi=" << qi << " slope=" << slope << " b=" << q.intercept
          << " type=" << (type == SelectionType::kAll ? "ALL" : "EXIST")
          << " cmp=" << (q.cmp == Cmp::kGE ? ">=" : "<=");
    }
  }
}

TEST(DualIndexTest, T2MatchesNaiveOnArbitrarySlopes) {
  IndexFixture fx(104);
  fx.Populate(250);
  fx.BuildIndex(DefaultSlopes());
  int wrap = 0;
  for (int qi = 0; qi < 60; ++qi) {
    double slope = std::tan(fx.rng.Uniform(-1.5, 1.5));
    HalfPlaneQuery q(slope, fx.rng.Uniform(-80, 80),
                     fx.rng.Chance(0.5) ? Cmp::kGE : Cmp::kLE);
    for (SelectionType type : {SelectionType::kAll, SelectionType::kExist}) {
      QueryStats stats;
      Result<std::vector<TupleId>> got =
          fx.index->Select(type, q, QueryMethod::kT2, &stats);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(got.value(), fx.Truth(type, q))
          << "qi=" << qi << " slope=" << slope << " b=" << q.intercept
          << " type=" << (type == SelectionType::kAll ? "ALL" : "EXIST")
          << " cmp=" << (q.cmp == Cmp::kGE ? ">=" : "<=");
      if (stats.used_wrap_fallback) ++wrap;
    }
  }
  EXPECT_GT(wrap, 0);  // The slope range intentionally exceeds S.
}

TEST(DualIndexTest, T2RawCandidatesAreSupersetAndDuplicateFree) {
  IndexFixture fx(105);
  fx.Populate(250);
  DualIndexOptions opts;
  opts.refine = false;
  fx.BuildIndex(DefaultSlopes(), opts);
  for (int qi = 0; qi < 40; ++qi) {
    // Stay inside the slope range so T2 proper (not the T1 fallback) runs.
    double lo = fx.index->slopes().slope(0);
    double hi = fx.index->slopes().slope(fx.index->slopes().size() - 1);
    double slope = fx.rng.Uniform(lo, hi);
    HalfPlaneQuery q(slope, fx.rng.Uniform(-80, 80),
                     fx.rng.Chance(0.5) ? Cmp::kGE : Cmp::kLE);
    for (SelectionType type : {SelectionType::kAll, SelectionType::kExist}) {
      QueryStats stats;
      Result<std::vector<TupleId>> got =
          fx.index->Select(type, q, QueryMethod::kT2, &stats);
      ASSERT_TRUE(got.ok());
      if (stats.used_wrap_fallback) continue;
      const std::vector<TupleId>& raw = got.value();
      // Duplicate-free: T2's two sweeps cover disjoint key ranges.
      for (size_t i = 1; i < raw.size(); ++i) {
        ASSERT_NE(raw[i - 1], raw[i]) << "duplicate candidate";
      }
      // Superset of the exact answer.
      for (TupleId id : fx.Truth(type, q)) {
        EXPECT_TRUE(std::binary_search(raw.begin(), raw.end(), id))
            << "T2 lost tuple " << id << " (slope=" << slope
            << " b=" << q.intercept << ")";
      }
    }
  }
}

TEST(DualIndexTest, UnboundedTuplesAreIndexedAndFound) {
  IndexFixture fx(106);
  fx.Populate(150, /*include_unbounded=*/true);
  fx.BuildIndex(DefaultSlopes());
  int nonempty = 0;
  for (int qi = 0; qi < 30; ++qi) {
    double slope = std::tan(fx.rng.Uniform(-1.3, 1.3));
    HalfPlaneQuery q(slope, fx.rng.Uniform(-60, 60),
                     fx.rng.Chance(0.5) ? Cmp::kGE : Cmp::kLE);
    for (SelectionType type : {SelectionType::kAll, SelectionType::kExist}) {
      for (QueryMethod m : {QueryMethod::kT1, QueryMethod::kT2}) {
        Result<std::vector<TupleId>> got = fx.index->Select(type, q, m);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        std::vector<TupleId> truth = fx.Truth(type, q);
        EXPECT_EQ(got.value(), truth);
        if (!truth.empty()) ++nonempty;
      }
    }
  }
  EXPECT_GT(nonempty, 10);
}

TEST(DualIndexTest, PaperFigure1Scenario) {
  // The introduction's Figure 1: an unbounded tuple and a query half-plane
  // that intersect only outside any finite window — the dual index must
  // find the intersection where window-clipping approaches fail.
  IndexFixture fx(107);
  GeneralizedTuple t2;  // Thin upward wedge far right: x >= 100, y >= x.
  t2.Add(1, 0, -100, Cmp::kGE);
  t2.Add(-1, 1, 0, Cmp::kGE);
  ASSERT_TRUE(fx.relation->Insert(t2).ok());
  fx.BuildIndex(DefaultSlopes());
  // Query q: y >= 2x - 50 intersects the wedge at x >= 100? At x=100 the
  // wedge starts at y=100; the query line there is y=150 — the wedge
  // reaches it for large y. EXIST must hold.
  HalfPlaneQuery q(2.0, -50.0, Cmp::kGE);
  Result<std::vector<TupleId>> got =
      fx.index->Select(SelectionType::kExist, q, QueryMethod::kT2);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), std::vector<TupleId>{0});
}

TEST(DualIndexTest, InsertRemoveKeepCorrectness) {
  IndexFixture fx(108);
  fx.Populate(150);
  fx.BuildIndex(DefaultSlopes());
  WorkloadOptions w;
  // Interleave removals and insertions, then re-check all query methods.
  std::vector<TupleId> live;
  for (TupleId id = 0; id < 150; ++id) live.push_back(id);
  for (int step = 0; step < 60; ++step) {
    if (!live.empty() && fx.rng.Chance(0.5)) {
      size_t pos = static_cast<size_t>(
          fx.rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
      TupleId id = live[pos];
      GeneralizedTuple t;
      ASSERT_TRUE(fx.relation->Get(id, &t).ok());
      ASSERT_TRUE(fx.index->Remove(id, t).ok());
      ASSERT_TRUE(fx.relation->Delete(id).ok());
      live.erase(live.begin() + static_cast<long>(pos));
    } else {
      GeneralizedTuple t = RandomBoundedTuple(&fx.rng, w);
      Result<TupleId> id = fx.relation->Insert(t);
      ASSERT_TRUE(id.ok());
      ASSERT_TRUE(fx.index->Insert(id.value(), t).ok());
      live.push_back(id.value());
    }
  }
  for (int qi = 0; qi < 25; ++qi) {
    double slope = std::tan(fx.rng.Uniform(-1.4, 1.4));
    HalfPlaneQuery q(slope, fx.rng.Uniform(-80, 80),
                     fx.rng.Chance(0.5) ? Cmp::kGE : Cmp::kLE);
    for (SelectionType type : {SelectionType::kAll, SelectionType::kExist}) {
      for (QueryMethod m : {QueryMethod::kT1, QueryMethod::kT2}) {
        Result<std::vector<TupleId>> got = fx.index->Select(type, q, m);
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(got.value(), fx.Truth(type, q)) << "qi=" << qi;
      }
    }
  }
  // Rebuilding handicaps must preserve correctness (and can only tighten).
  ASSERT_TRUE(fx.index->RebuildHandicaps().ok());
  for (int qi = 0; qi < 15; ++qi) {
    double slope = std::tan(fx.rng.Uniform(-1.4, 1.4));
    HalfPlaneQuery q(slope, fx.rng.Uniform(-80, 80),
                     fx.rng.Chance(0.5) ? Cmp::kGE : Cmp::kLE);
    for (SelectionType type : {SelectionType::kAll, SelectionType::kExist}) {
      Result<std::vector<TupleId>> got =
          fx.index->Select(type, q, QueryMethod::kT2);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(got.value(), fx.Truth(type, q));
    }
  }
}

TEST(DualIndexTest, TightAssignmentMatchesAndNeverWidensSweeps) {
  IndexFixture paper_fx(109);
  paper_fx.Populate(200);
  paper_fx.BuildIndex(DefaultSlopes());

  IndexFixture tight_fx(109);  // Same seed -> identical relation.
  tight_fx.Populate(200);
  DualIndexOptions tight;
  tight.tight_assignment = true;
  tight_fx.BuildIndex(DefaultSlopes(), tight);

  for (int qi = 0; qi < 30; ++qi) {
    double lo = paper_fx.index->slopes().slope(0);
    double hi = paper_fx.index->slopes().slope(3);
    HalfPlaneQuery q(paper_fx.rng.Uniform(lo, hi),
                     paper_fx.rng.Uniform(-60, 60),
                     paper_fx.rng.Chance(0.5) ? Cmp::kGE : Cmp::kLE);
    // Keep the two fixtures' RNGs in lockstep.
    HalfPlaneQuery q2(tight_fx.rng.Uniform(lo, hi),
                      tight_fx.rng.Uniform(-60, 60),
                      tight_fx.rng.Chance(0.5) ? Cmp::kGE : Cmp::kLE);
    ASSERT_EQ(q.slope, q2.slope);
    for (SelectionType type : {SelectionType::kAll, SelectionType::kExist}) {
      QueryStats sp, st;
      auto rp = paper_fx.index->Select(type, q, QueryMethod::kT2, &sp);
      auto rt = tight_fx.index->Select(type, q, QueryMethod::kT2, &st);
      ASSERT_TRUE(rp.ok() && rt.ok());
      EXPECT_EQ(rp.value(), rt.value());
      EXPECT_EQ(rp.value(), paper_fx.Truth(type, q));
      // Tight assignments can only narrow the second sweep.
      EXPECT_LE(st.candidates, sp.candidates);
    }
  }
}

TEST(DualIndexTest, AnchorChoiceNeverAffectsResults) {
  // The T1 anchor point trades false hits for duplicates (Section 4.1) but
  // must never change the refined answer.
  for (double anchor : {-30.0, 0.0, 30.0}) {
    IndexFixture fx(130);
    fx.Populate(120);
    DualIndexOptions opts;
    opts.anchor_x = anchor;
    fx.BuildIndex(DefaultSlopes(), opts);
    for (int qi = 0; qi < 12; ++qi) {
      double slope = std::tan(fx.rng.Uniform(-1.2, 1.2));
      HalfPlaneQuery q(slope, fx.rng.Uniform(-60, 60),
                       fx.rng.Chance(0.5) ? Cmp::kGE : Cmp::kLE);
      for (SelectionType type :
           {SelectionType::kAll, SelectionType::kExist}) {
        Result<std::vector<TupleId>> got =
            fx.index->Select(type, q, QueryMethod::kT1);
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(got.value(), fx.Truth(type, q))
            << "anchor=" << anchor << " slope=" << slope;
      }
    }
  }
}

TEST(DualIndexTest, StatsAccounting) {
  IndexFixture fx(110);
  fx.Populate(300);
  fx.BuildIndex(DefaultSlopes());
  Result<CalibratedQuery> cq = GenerateQuery(
      *fx.relation, SelectionType::kExist, 0.10, 0.15, &fx.rng);
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  ASSERT_TRUE(fx.idx_pager->DropCache().ok());
  ASSERT_TRUE(fx.rel_pager->DropCache().ok());  // Tuple reads are physical.
  QueryStats stats;
  Result<std::vector<TupleId>> got = fx.index->Select(
      SelectionType::kExist, cq.value().query, QueryMethod::kT2, &stats);
  ASSERT_TRUE(got.ok());
  EXPECT_GT(stats.index_page_fetches, 0u);
  EXPECT_GT(stats.candidates, 0u);
  EXPECT_GE(stats.candidates, stats.results);
  EXPECT_EQ(stats.results, got.value().size());
  EXPECT_GT(stats.tuple_page_fetches, 0u);  // Refinement reads tuples.
  // ~10-15% selectivity on 300 tuples.
  EXPECT_GT(stats.results, 15u);
  EXPECT_LT(stats.results, 80u);
}

TEST(DualIndexTest, WrapFallbackIsFlagged) {
  IndexFixture fx(111);
  fx.Populate(50);
  fx.BuildIndex(SlopeSet({-0.5, 0.5}));
  QueryStats stats;
  Result<std::vector<TupleId>> got =
      fx.index->Select(SelectionType::kExist, HalfPlaneQuery(5.0, 0, Cmp::kGE),
                       QueryMethod::kT2, &stats);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(stats.used_wrap_fallback);
  EXPECT_EQ(got.value(),
            fx.Truth(SelectionType::kExist, HalfPlaneQuery(5.0, 0, Cmp::kGE)));
}

TEST(DualIndexTest, RejectsUnsatisfiableTuple) {
  IndexFixture fx(112);
  fx.Populate(10);
  fx.BuildIndex(DefaultSlopes());
  GeneralizedTuple bad;
  bad.Add(1, 0, 0, Cmp::kGE);   // x >= 0
  bad.Add(1, 0, 1, Cmp::kLE);   // x <= -1
  EXPECT_TRUE(fx.index->Insert(999, bad).IsInvalidArgument());
}

// A tuple wholly outside the former LP box (|x|, |y| <= 1e9) is
// satisfiable, so it is indexed and found like any other.
TEST(DualIndexTest, IndexesTuplesBeyondTheFormerLpBox) {
  IndexFixture fx(113);
  fx.Populate(40);
  GeneralizedTuple far;
  far.Add(1, 0, -2e9, Cmp::kGE);  // 2e9 <= x <= 3e9
  far.Add(1, 0, -3e9, Cmp::kLE);
  far.Add(0, 1, 0, Cmp::kGE);     // 0 <= y <= 1
  far.Add(0, 1, -1, Cmp::kLE);
  Result<TupleId> id = fx.relation->Insert(far);
  ASSERT_TRUE(id.ok());
  fx.BuildIndex(DefaultSlopes());
  for (const HalfPlaneQuery& q :
       {HalfPlaneQuery(0.0, 0.5, Cmp::kGE), HalfPlaneQuery(0.0, 2.0, Cmp::kLE),
        HalfPlaneQuery(0.3, -6e8 + 0.5, Cmp::kGE)}) {
    for (SelectionType type : {SelectionType::kExist, SelectionType::kAll}) {
      Result<std::vector<TupleId>> got =
          fx.index->Select(type, q, QueryMethod::kAuto);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(got.value(), fx.Truth(type, q));
    }
  }
  Result<std::vector<TupleId>> hit = fx.index->Select(
      SelectionType::kAll, HalfPlaneQuery(0.0, 2.0, Cmp::kLE),
      QueryMethod::kAuto);
  ASSERT_TRUE(hit.ok());
  EXPECT_NE(std::find(hit.value().begin(), hit.value().end(), id.value()),
            hit.value().end());
}

// Property sweep across k and seeds: all methods agree with the naive
// evaluator on calibrated workload queries.
struct ParamCase {
  uint64_t seed;
  size_t k;
};

class DualIndexPropertyTest
    : public ::testing::TestWithParam<ParamCase> {};

TEST_P(DualIndexPropertyTest, AllMethodsMatchNaive) {
  IndexFixture fx(GetParam().seed);
  fx.Populate(180);
  fx.BuildIndex(DefaultSlopes(GetParam().k));
  for (SelectionType type : {SelectionType::kAll, SelectionType::kExist}) {
    for (int qi = 0; qi < 6; ++qi) {
      Result<CalibratedQuery> cq =
          GenerateQuery(*fx.relation, type, 0.05, 0.60, &fx.rng);
      ASSERT_TRUE(cq.ok()) << cq.status().ToString();
      const HalfPlaneQuery& q = cq.value().query;
      std::vector<TupleId> truth = fx.Truth(type, q);
      for (QueryMethod m : {QueryMethod::kT1, QueryMethod::kT2,
                            QueryMethod::kAuto}) {
        Result<std::vector<TupleId>> got = fx.index->Select(type, q, m);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_EQ(got.value(), truth)
            << "k=" << GetParam().k << " seed=" << GetParam().seed
            << " slope=" << q.slope << " b=" << q.intercept;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    KSweep, DualIndexPropertyTest,
    ::testing::Values(ParamCase{1, 2}, ParamCase{2, 2}, ParamCase{3, 3},
                      ParamCase{4, 3}, ParamCase{5, 4}, ParamCase{6, 4},
                      ParamCase{7, 5}, ParamCase{8, 5}),
    [](const ::testing::TestParamInfo<ParamCase>& info) {
      return "seed" + std::to_string(info.param.seed) + "_k" +
             std::to_string(info.param.k);
    });

}  // namespace
}  // namespace cdb
