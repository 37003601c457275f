// Filter-precision accounting (ISSUE 6): every query path — dual (exact /
// T1 / T2 / refine-off / vertical / slab), d-dim, and the R+-tree
// comparison path — must fill QueryStats::filter so that the phase counts
// partition the candidates exactly, the result side matches the naive
// ground truth, and the precision ratio is reproducible from the naive
// answer. Candidate supersets are *proven* supersets: refine-off results
// must contain every naive hit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "common/rng.h"
#include "dualindex/ddim_index.h"
#include "dualindex/dual_index.h"
#include "obs/metrics.h"
#include "pager_test_util.h"
#include "rtree/rtree_query.h"
#include "storage/file.h"
#include "workload/generator.h"

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

// The invariants every filled FilterCounts must satisfy, cross-checked
// against the returned ids and the naive ground truth.
void CheckFilter(const QueryStats& stats, const std::vector<TupleId>& got,
                 const std::vector<TupleId>& want, const char* what) {
  SCOPED_TRACE(what);
  EXPECT_TRUE(stats.filter.Balances())
      << stats.filter.candidates << " cand = " << stats.filter.dedup_dropped
      << " dedup + " << stats.filter.early_accepts << " early + "
      << stats.filter.refine_accepts << " acc + "
      << stats.filter.refine_rejects << " rej -> " << stats.filter.results;
  EXPECT_EQ(stats.filter.candidates, stats.candidates);
  EXPECT_EQ(stats.filter.results, stats.results);
  EXPECT_EQ(stats.filter.results, got.size());
  EXPECT_GE(stats.filter.candidates, stats.filter.results);
  EXPECT_EQ(got, want);
  // Precision is reproducible from the naive answer and the candidates.
  double expected = stats.filter.candidates == 0
                        ? 1.0
                        : static_cast<double>(want.size()) /
                              static_cast<double>(stats.filter.candidates);
  EXPECT_DOUBLE_EQ(stats.filter.precision(), expected);
  // Per-query precision can hit exactly 0 (all candidates rejected); only
  // the bench-row average carries the strict lower bound.
  EXPECT_GE(stats.filter.precision(), 0.0);
  EXPECT_LE(stats.filter.precision(), 1.0);
  if (!want.empty()) {
    EXPECT_GT(stats.filter.precision(), 0.0);
  }
}

void ExpectFilterEq(const obs::FilterCounts& a, const obs::FilterCounts& b) {
  EXPECT_EQ(a.candidates, b.candidates);
  EXPECT_EQ(a.dedup_dropped, b.dedup_dropped);
  EXPECT_EQ(a.early_accepts, b.early_accepts);
  EXPECT_EQ(a.refine_accepts, b.refine_accepts);
  EXPECT_EQ(a.refine_rejects, b.refine_rejects);
  EXPECT_EQ(a.results, b.results);
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

  ~IndexFixture() {
    ExpectNoPinnedFrames(*rel_pager);
    ExpectNoPinnedFrames(*idx_pager);
  }

  void Populate(int n) {
    WorkloadOptions w;
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(relation->Insert(RandomBoundedTuple(&rng, w)).ok());
    }
  }

  void BuildIndex(DualIndexOptions opts = {}) {
    ASSERT_TRUE(DualIndex::Build(idx_pager.get(), relation.get(),
                                 SlopeSet::UniformInAngle(4, -1.3, 1.3),
                                 opts, &index)
                    .ok());
  }

  std::vector<TupleId> Truth(SelectionType type, const HalfPlaneQuery& q) {
    Result<std::vector<TupleId>> r = NaiveSelect(*relation, type, q);
    EXPECT_TRUE(r.ok());
    return r.value_or({});
  }
};

TEST(FilterPrecisionTest, DualMethodsBalanceAndMatchNaive) {
  IndexFixture fx(601);
  fx.Populate(220);
  fx.BuildIndex();
  for (int qi = 0; qi < 12; ++qi) {
    HalfPlaneQuery q(fx.rng.Uniform(-1.2, 1.2), fx.rng.Uniform(-70, 70),
                     fx.rng.Chance(0.5) ? Cmp::kGE : Cmp::kLE);
    for (SelectionType type : {SelectionType::kAll, SelectionType::kExist}) {
      std::vector<TupleId> want = fx.Truth(type, q);
      for (QueryMethod method :
           {QueryMethod::kAuto, QueryMethod::kT1, QueryMethod::kT2}) {
        QueryStats stats;
        obs::ExplainProfile profile;
        Result<std::vector<TupleId>> got =
            fx.index->Select(type, q, method, &stats, &profile);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        CheckFilter(stats, got.value(), want, "arbitrary slope");
        // The attached profile carries the same counts and still passes
        // its own I/O balance invariant.
        ExpectFilterEq(profile.filter, stats.filter);
        EXPECT_TRUE(profile.SumsBalance());
        EXPECT_TRUE(profile.filter.Balances());
      }
    }
  }
}

TEST(FilterPrecisionTest, ExactSlopeIsAllEarlyAccepts) {
  IndexFixture fx(602);
  fx.Populate(150);
  fx.BuildIndex();
  for (size_t i = 0; i < fx.index->slopes().size(); ++i) {
    HalfPlaneQuery q(fx.index->slopes().slope(i), fx.rng.Uniform(-60, 60),
                     fx.rng.Chance(0.5) ? Cmp::kGE : Cmp::kLE);
    for (SelectionType type : {SelectionType::kAll, SelectionType::kExist}) {
      QueryStats stats;
      Result<std::vector<TupleId>> got =
          fx.index->Select(type, q, QueryMethod::kRestricted, &stats);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      CheckFilter(stats, got.value(), fx.Truth(type, q), "slope in S");
      // Exact queries never refine: precision is exactly 1.
      EXPECT_EQ(stats.filter.early_accepts, stats.filter.candidates);
      EXPECT_EQ(stats.filter.refine_accepts, 0u);
      EXPECT_EQ(stats.filter.refine_rejects, 0u);
      EXPECT_DOUBLE_EQ(stats.filter.precision(), 1.0);
    }
  }
}

TEST(FilterPrecisionTest, RefineOffBooksProvenSupersetAsEarlyAccepts) {
  IndexFixture fx(603);
  fx.Populate(180);
  DualIndexOptions opts;
  opts.refine = false;
  fx.BuildIndex(opts);
  for (int qi = 0; qi < 10; ++qi) {
    HalfPlaneQuery q(fx.rng.Uniform(-1.2, 1.2), fx.rng.Uniform(-70, 70),
                     fx.rng.Chance(0.5) ? Cmp::kGE : Cmp::kLE);
    for (SelectionType type : {SelectionType::kAll, SelectionType::kExist}) {
      QueryStats stats;
      Result<std::vector<TupleId>> got =
          fx.index->Select(type, q, QueryMethod::kT1, &stats);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_TRUE(stats.filter.Balances());
      EXPECT_EQ(stats.filter.refine_accepts, 0u);
      EXPECT_EQ(stats.filter.refine_rejects, 0u);
      EXPECT_EQ(stats.filter.early_accepts, got.value().size());
      // Proven superset: every naive hit is among the raw candidates.
      std::vector<TupleId> want = fx.Truth(type, q);
      for (TupleId id : want) {
        EXPECT_TRUE(std::binary_search(got.value().begin(),
                                       got.value().end(), id))
            << "raw candidate set lost naive hit " << id;
      }
      EXPECT_GE(stats.filter.candidates, want.size());
    }
  }
}

TEST(FilterPrecisionTest, VerticalAndSlabPathsBalance) {
  IndexFixture fx(604);
  fx.Populate(160);
  DualIndexOptions opts;
  opts.support_vertical = true;
  fx.BuildIndex(opts);

  for (int qi = 0; qi < 8; ++qi) {
    VerticalQuery vq;
    vq.boundary = fx.rng.Uniform(-60, 60);
    vq.cmp = fx.rng.Chance(0.5) ? Cmp::kGE : Cmp::kLE;
    for (SelectionType type : {SelectionType::kAll, SelectionType::kExist}) {
      QueryStats stats;
      obs::ExplainProfile profile;
      Result<std::vector<TupleId>> got =
          fx.index->SelectVertical(type, vq, &stats, &profile);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      Result<std::vector<TupleId>> want =
          NaiveSelectVertical(*fx.relation, type, vq);
      ASSERT_TRUE(want.ok());
      CheckFilter(stats, got.value(), want.value(), "vertical");
      ExpectFilterEq(profile.filter, stats.filter);
      // Vertical queries are exact: everything kept is an early accept.
      EXPECT_EQ(stats.filter.refine_rejects, 0u);
      EXPECT_DOUBLE_EQ(stats.filter.precision(), 1.0);
    }
  }

  // Slab: exact set algebra; dedup_dropped books the ids outside the
  // sweep intersection/union bookkeeping.
  for (int qi = 0; qi < 8; ++qi) {
    double slope = fx.index->slopes().slope(static_cast<size_t>(
        fx.rng.UniformInt(0,
                          static_cast<int64_t>(fx.index->slopes().size()) - 1)));
    double a = fx.rng.Uniform(-60, 60), b = fx.rng.Uniform(-60, 60);
    double lo = std::min(a, b), hi = std::max(a, b);
    for (SelectionType type : {SelectionType::kAll, SelectionType::kExist}) {
      QueryStats stats;
      obs::ExplainProfile profile;
      Result<std::vector<TupleId>> got =
          fx.index->SelectSlab(type, slope, lo, hi, &stats, &profile);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      // Brute-force slab truth via TOP/BOT (the slab test's evaluator).
      std::vector<TupleId> want;
      ASSERT_TRUE(fx.relation
                      ->ForEach([&](TupleId id, const GeneralizedTuple& t) {
                        double top = t.Top(slope), bot = t.Bot(slope);
                        bool hit = type == SelectionType::kAll
                                       ? (bot >= lo && top <= hi)
                                       : (top >= lo && bot <= hi);
                        if (hit) want.push_back(id);
                        return Status::OK();
                      })
                      .ok());
      CheckFilter(stats, got.value(), want, "slab");
      ExpectFilterEq(profile.filter, stats.filter);
      EXPECT_EQ(stats.filter.refine_rejects, 0u);  // Slab is exact.
    }
  }
}

TEST(FilterPrecisionTest, DDimPathsBalanceAndMatchBruteForce) {
  auto rel_pager = MakePager();
  auto idx_pager = MakePager();
  std::unique_ptr<RelationD> relation;
  ASSERT_TRUE(
      RelationD::Open(rel_pager.get(), 3, kInvalidPageId, &relation).ok());
  // 3x3 grid of slope points covering [-1, 1]^2.
  std::vector<std::vector<double>> slopes;
  for (int x = -1; x <= 1; ++x) {
    for (int y = -1; y <= 1; ++y) {
      slopes.push_back({static_cast<double>(x), static_cast<double>(y)});
    }
  }
  std::unique_ptr<DDimDualIndex> index;
  ASSERT_TRUE(
      DDimDualIndex::Create(idx_pager.get(), relation.get(), slopes, &index)
          .ok());
  Rng rng(605);
  std::vector<GeneralizedTupleD> tuples;
  for (int i = 0; i < 100; ++i) {
    GeneralizedTupleD t = RandomBoundedTupleD(&rng, 3, 25.0);
    ASSERT_TRUE(index->Insert(t).ok());
    tuples.push_back(t);
  }
  auto brute = [&](SelectionType type, const HalfPlaneQueryD& q) {
    std::vector<TupleId> out;
    for (size_t i = 0; i < tuples.size(); ++i) {
      bool hit = type == SelectionType::kAll
                     ? ExactAllD(tuples[i].constraints(), q)
                     : ExactExistD(tuples[i].constraints(), q);
      if (hit) out.push_back(static_cast<TupleId>(i));
    }
    return out;
  };
  for (int qi = 0; qi < 10; ++qi) {
    HalfPlaneQueryD q;
    q.slope = {rng.Uniform(-0.9, 0.9), rng.Uniform(-0.9, 0.9)};
    q.intercept = rng.Uniform(-50, 50);
    q.cmp = rng.Chance(0.5) ? Cmp::kGE : Cmp::kLE;
    for (SelectionType type : {SelectionType::kAll, SelectionType::kExist}) {
      QueryStats stats;
      obs::ExplainProfile profile;
      Result<std::vector<TupleId>> got =
          index->Select(type, q, &stats, &profile);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      CheckFilter(stats, got.value(), brute(type, q), "ddim");
      ExpectFilterEq(profile.filter, stats.filter);
    }
  }
  // Exact slope points: all early accepts, precision 1.
  for (int qi = 0; qi < 4; ++qi) {
    HalfPlaneQueryD q;
    q.slope = slopes[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(slopes.size()) - 1))];
    q.intercept = rng.Uniform(-50, 50);
    q.cmp = rng.Chance(0.5) ? Cmp::kGE : Cmp::kLE;
    QueryStats stats;
    Result<std::vector<TupleId>> got =
        index->Select(SelectionType::kExist, q, &stats);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    CheckFilter(stats, got.value(), brute(SelectionType::kExist, q),
                "ddim exact");
    EXPECT_EQ(stats.filter.early_accepts, stats.filter.candidates);
    EXPECT_DOUBLE_EQ(stats.filter.precision(), 1.0);
  }
}

TEST(FilterPrecisionTest, RTreePathBalancesAndMatchesNaive) {
  auto rel_pager = MakePager();
  auto idx_pager = MakePager();
  std::unique_ptr<Relation> relation;
  ASSERT_TRUE(
      Relation::Open(rel_pager.get(), kInvalidPageId, &relation).ok());
  Rng rng(606);
  WorkloadOptions w;
  std::vector<std::pair<Rect, TupleId>> rects;
  for (int i = 0; i < 220; ++i) {
    GeneralizedTuple t = RandomBoundedTuple(&rng, w);
    Result<TupleId> id = relation->Insert(t);
    ASSERT_TRUE(id.ok());
    Rect box;
    ASSERT_TRUE(t.GetBoundingRect(&box));
    rects.push_back({box, id.value()});
  }
  std::unique_ptr<RPlusTree> tree;
  ASSERT_TRUE(RPlusTree::BulkBuild(idx_pager.get(), rects, &tree).ok());
  obs::GlobalMetrics().SetEnabled(true);
  obs::Counter* bbox_accepts =
      obs::GlobalMetrics().counter("refine.batch.bbox_accepts");
  for (int qi = 0; qi < 12; ++qi) {
    HalfPlaneQuery q(rng.Uniform(-2, 2), rng.Uniform(-70, 70),
                     rng.Chance(0.5) ? Cmp::kGE : Cmp::kLE);
    for (SelectionType type : {SelectionType::kAll, SelectionType::kExist}) {
      QueryStats stats;
      obs::ExplainProfile profile;
      const uint64_t accepts_before = bbox_accepts->value();
      Result<std::vector<TupleId>> got = RTreeSelect(
          tree.get(), relation.get(), type, q, &stats, &profile);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      Result<std::vector<TupleId>> want = NaiveSelect(*relation, type, q);
      ASSERT_TRUE(want.ok());
      CheckFilter(stats, got.value(), want.value(), "rtree");
      ExpectFilterEq(profile.filter, stats.filter);
      // The shared refiner's box accepts are the family's only early
      // accepts.
      EXPECT_EQ(stats.filter.early_accepts,
                bbox_accepts->value() - accepts_before);
    }
  }
  obs::GlobalMetrics().SetEnabled(false);
}

// One argument check guards every half-plane entry point. A NaN or
// infinite slope, or a NaN intercept, is InvalidArgument from Select under
// every method, from Explain and from RTreeSelect alike, and the rejected
// query's books read zero. An infinite intercept is a valid, degenerate
// query that all of them answer as the naive evaluator does.
TEST(FilterPrecisionTest, EveryHalfPlaneEntryPointChecksItsArguments) {
  IndexFixture fx(707);
  WorkloadOptions w;
  std::vector<std::pair<Rect, TupleId>> rects;
  for (int i = 0; i < 120; ++i) {
    GeneralizedTuple t = RandomBoundedTuple(&fx.rng, w);
    Result<TupleId> id = fx.relation->Insert(t);
    ASSERT_TRUE(id.ok());
    Rect box;
    ASSERT_TRUE(t.GetBoundingRect(&box));
    rects.push_back({box, id.value()});
  }
  fx.BuildIndex();
  auto rtree_pager = MakePager();
  std::unique_ptr<RPlusTree> tree;
  ASSERT_TRUE(RPlusTree::BulkBuild(rtree_pager.get(), rects, &tree).ok());

  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  const double in_s = fx.index->slopes().slope(1);
  const std::vector<HalfPlaneQuery> bad = {
      HalfPlaneQuery(kNaN, 0, Cmp::kGE), HalfPlaneQuery(kInf, 0, Cmp::kLE),
      HalfPlaneQuery(-kInf, 5, Cmp::kGE), HalfPlaneQuery(0.3, kNaN, Cmp::kLE),
      HalfPlaneQuery(in_s, kNaN, Cmp::kGE)};
  const std::vector<HalfPlaneQuery> degenerate = {
      HalfPlaneQuery(0.3, kInf, Cmp::kGE), HalfPlaneQuery(0.3, -kInf, Cmp::kGE),
      HalfPlaneQuery(in_s, kInf, Cmp::kLE),
      HalfPlaneQuery(in_s, -kInf, Cmp::kLE)};
  for (SelectionType type : {SelectionType::kAll, SelectionType::kExist}) {
    for (QueryMethod method : {QueryMethod::kAuto, QueryMethod::kRestricted,
                               QueryMethod::kT1, QueryMethod::kT2}) {
      for (const HalfPlaneQuery& q : bad) {
        SCOPED_TRACE("slope " + std::to_string(q.slope) + " intercept " +
                     std::to_string(q.intercept));
        QueryStats stats;
        stats.candidates = stats.index_page_fetches = 7;
        EXPECT_TRUE(fx.index->Select(type, q, method, &stats)
                        .status()
                        .IsInvalidArgument());
        EXPECT_EQ(stats.candidates, 0u);
        EXPECT_EQ(stats.index_page_fetches, 0u);
        EXPECT_TRUE(
            fx.index->Explain(type, q, method).status().IsInvalidArgument());
      }
      for (const HalfPlaneQuery& q : degenerate) {
        if (method == QueryMethod::kRestricted && q.slope != in_s) continue;
        Result<std::vector<TupleId>> got = fx.index->Select(type, q, method);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_EQ(got.value(), fx.Truth(type, q));
        EXPECT_TRUE(fx.index->Explain(type, q, method).ok());
      }
    }
    for (const HalfPlaneQuery& q : bad) {
      QueryStats stats;
      stats.candidates = stats.tuple_page_fetches = 7;
      EXPECT_TRUE(RTreeSelect(tree.get(), fx.relation.get(), type, q, &stats)
                      .status()
                      .IsInvalidArgument());
      EXPECT_EQ(stats.candidates, 0u);
      EXPECT_EQ(stats.tuple_page_fetches, 0u);
    }
    for (const HalfPlaneQuery& q : degenerate) {
      Result<std::vector<TupleId>> got =
          RTreeSelect(tree.get(), fx.relation.get(), type, q);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(got.value(), fx.Truth(type, q));
    }
  }
}

}  // namespace
}  // namespace cdb
