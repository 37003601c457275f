// An untraced selection keeps no span tree (obs/trace.h): its Tracer only
// brackets the pager totals and the clock. These tests hold it to the
// profiled selection, query by query, on every query family — dual index
// under kAuto, T1, T2 and exact slopes, vertical, slab, d-dimensional and
// R+-tree — so QueryStats keeps one accounting mechanism whether or not a
// profile is attached. Both runs start from dropped caches, so the
// physical relation reads are comparable too. A selection inside a
// recording outer tracer still keeps its spans to itself.

#include <gtest/gtest.h>

#include <functional>
#include <initializer_list>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "dualindex/ddim_index.h"
#include "dualindex/dual_index.h"
#include "pager_test_util.h"
#include "rtree/rtree_query.h"
#include "storage/file.h"
#include "workload/generator.h"

namespace cdb {
namespace {

std::unique_ptr<Pager> MakePager() {
  PagerOptions opts;
  opts.cache_frames = 16;
  std::unique_ptr<Pager> pager;
  EXPECT_TRUE(Pager::Open(std::make_unique<MemFile>(kDefaultPageSize), opts,
                          &pager)
                  .ok());
  return pager;
}

using SelectFn = std::function<Result<std::vector<TupleId>>(
    QueryStats*, obs::ExplainProfile*)>;

// Runs `select` untraced and then profiled, each from dropped caches, and
// requires the same answer and the same QueryStats.
void ExpectUntracedMatchesProfiled(std::initializer_list<Pager*> pagers,
                                   const SelectFn& select, const char* what) {
  SCOPED_TRACE(what);
  for (Pager* p : pagers) ASSERT_TRUE(p->DropCache().ok());
  QueryStats plain;
  Result<std::vector<TupleId>> plain_ids = select(&plain, nullptr);
  ASSERT_TRUE(plain_ids.ok()) << plain_ids.status().ToString();

  for (Pager* p : pagers) ASSERT_TRUE(p->DropCache().ok());
  QueryStats traced;
  obs::ExplainProfile profile;
  Result<std::vector<TupleId>> traced_ids = select(&traced, &profile);
  ASSERT_TRUE(traced_ids.ok()) << traced_ids.status().ToString();

  EXPECT_EQ(plain_ids.value(), traced_ids.value());
  EXPECT_EQ(plain.index_page_fetches, traced.index_page_fetches);
  EXPECT_EQ(plain.tuple_page_fetches, traced.tuple_page_fetches);
  EXPECT_EQ(plain.candidates, traced.candidates);
  EXPECT_EQ(plain.results, traced.results);
  EXPECT_EQ(plain.filter, traced.filter);
  EXPECT_TRUE(plain.filter.Balances());
  // The profile really was recorded, and it is the same books.
  EXPECT_FALSE(profile.root.children.empty());
  EXPECT_TRUE(profile.SumsBalance());
  EXPECT_EQ(profile.totals.index_fetches, traced.index_page_fetches);
  EXPECT_EQ(profile.totals.tuple_reads, traced.tuple_page_fetches);
  for (Pager* p : pagers) ExpectNoPinnedFrames(*p);
}

struct DualFixture {
  std::unique_ptr<Pager> rel_pager = MakePager();
  std::unique_ptr<Pager> idx_pager = MakePager();
  std::unique_ptr<Relation> relation;
  std::unique_ptr<DualIndex> index;
  Rng rng{3401};

  DualFixture() {
    EXPECT_TRUE(
        Relation::Open(rel_pager.get(), kInvalidPageId, &relation).ok());
    WorkloadOptions w;
    for (int i = 0; i < 300; ++i) {
      EXPECT_TRUE(relation->Insert(RandomBoundedTuple(&rng, w)).ok());
    }
    DualIndexOptions opts;
    opts.support_vertical = true;
    EXPECT_TRUE(DualIndex::Build(idx_pager.get(), relation.get(),
                                 SlopeSet::UniformInAngle(4, -1.3, 1.3),
                                 opts, &index)
                    .ok());
  }
};

TEST(SelectTraceTest, DualHalfPlaneStatsMatchProfiledUnderEveryMethod) {
  DualFixture fx;
  for (int qi = 0; qi < 16; ++qi) {
    // Every other query takes a slope of S, the exact path under kAuto.
    const double slope =
        qi % 2 == 0 ? fx.index->slopes().slope(static_cast<size_t>(qi / 2) %
                                               fx.index->slopes().size())
                    : fx.rng.Uniform(-1.2, 1.2);
    HalfPlaneQuery q(slope, fx.rng.Uniform(-60, 60),
                     qi % 4 < 2 ? Cmp::kGE : Cmp::kLE);
    for (SelectionType type : {SelectionType::kAll, SelectionType::kExist}) {
      for (QueryMethod method :
           {QueryMethod::kAuto, QueryMethod::kT1, QueryMethod::kT2}) {
        ExpectUntracedMatchesProfiled(
            {fx.rel_pager.get(), fx.idx_pager.get()},
            [&](QueryStats* st, obs::ExplainProfile* profile) {
              return fx.index->Select(type, q, method, st, profile);
            },
            "dual");
      }
    }
  }
}

TEST(SelectTraceTest, VerticalAndSlabStatsMatchProfiled) {
  DualFixture fx;
  for (int qi = 0; qi < 6; ++qi) {
    VerticalQuery vq;
    vq.boundary = fx.rng.Uniform(-60, 60);
    vq.cmp = qi % 2 == 0 ? Cmp::kGE : Cmp::kLE;
    const double slope = fx.index->slopes().slope(
        static_cast<size_t>(qi) % fx.index->slopes().size());
    const double lo = fx.rng.Uniform(-60, 0);
    const double hi = lo + fx.rng.Uniform(0, 60);
    for (SelectionType type : {SelectionType::kAll, SelectionType::kExist}) {
      ExpectUntracedMatchesProfiled(
          {fx.rel_pager.get(), fx.idx_pager.get()},
          [&](QueryStats* st, obs::ExplainProfile* profile) {
            return fx.index->SelectVertical(type, vq, st, profile);
          },
          "vertical");
      ExpectUntracedMatchesProfiled(
          {fx.rel_pager.get(), fx.idx_pager.get()},
          [&](QueryStats* st, obs::ExplainProfile* profile) {
            return fx.index->SelectSlab(type, slope, lo, hi, st, profile);
          },
          "slab");
    }
  }
}

TEST(SelectTraceTest, DDimStatsMatchProfiled) {
  auto rel_pager = MakePager();
  auto idx_pager = MakePager();
  std::unique_ptr<RelationD> relation;
  ASSERT_TRUE(
      RelationD::Open(rel_pager.get(), 3, kInvalidPageId, &relation).ok());
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
  Rng rng(3402);
  for (int i = 0; i < 120; ++i) {
    ASSERT_TRUE(index->Insert(RandomBoundedTupleD(&rng, 3, 25.0)).ok());
  }
  for (int qi = 0; qi < 10; ++qi) {
    HalfPlaneQueryD q;
    // Every other query takes a slope point of the index: the exact path.
    q.slope = qi % 2 == 0 ? slopes[static_cast<size_t>(qi) % slopes.size()]
                          : std::vector<double>{rng.Uniform(-0.9, 0.9),
                                                rng.Uniform(-0.9, 0.9)};
    q.intercept = rng.Uniform(-50, 50);
    q.cmp = qi % 4 < 2 ? Cmp::kGE : Cmp::kLE;
    for (SelectionType type : {SelectionType::kAll, SelectionType::kExist}) {
      ExpectUntracedMatchesProfiled(
          {rel_pager.get(), idx_pager.get()},
          [&](QueryStats* st, obs::ExplainProfile* profile) {
            return index->Select(type, q, st, profile);
          },
          "ddim");
    }
  }
}

TEST(SelectTraceTest, RTreeStatsMatchProfiled) {
  auto rel_pager = MakePager();
  auto idx_pager = MakePager();
  std::unique_ptr<Relation> relation;
  ASSERT_TRUE(
      Relation::Open(rel_pager.get(), kInvalidPageId, &relation).ok());
  Rng rng(3403);
  WorkloadOptions w;
  std::vector<std::pair<Rect, TupleId>> rects;
  for (int i = 0; i < 300; ++i) {
    GeneralizedTuple t = RandomBoundedTuple(&rng, w);
    Result<TupleId> id = relation->Insert(t);
    ASSERT_TRUE(id.ok());
    Rect box;
    ASSERT_TRUE(t.GetBoundingRect(&box));
    rects.push_back({box, id.value()});
  }
  std::unique_ptr<RPlusTree> tree;
  ASSERT_TRUE(RPlusTree::BulkBuild(idx_pager.get(), rects, &tree).ok());
  for (int qi = 0; qi < 10; ++qi) {
    HalfPlaneQuery q(rng.Uniform(-2, 2), rng.Uniform(-60, 60),
                     qi % 2 == 0 ? Cmp::kGE : Cmp::kLE);
    for (SelectionType type : {SelectionType::kAll, SelectionType::kExist}) {
      ExpectUntracedMatchesProfiled(
          {rel_pager.get(), idx_pager.get()},
          [&](QueryStats* st, obs::ExplainProfile* profile) {
            return RTreeSelect(tree.get(), relation.get(), type, q, st,
                               profile);
          },
          "rtree");
    }
  }
}

// Inside a recording outer tracer a selection records into its own
// tracer, profiled or not: the outer tree shows it as one childless span
// whose cost is the selection's, and both trees balance.
TEST(SelectTraceTest, SelectInsideOuterTracerIsItsOwnBalancedSubtree) {
  DualFixture fx;
  ASSERT_TRUE(fx.rel_pager->DropCache().ok());
  ASSERT_TRUE(fx.idx_pager->DropCache().ok());
  const HalfPlaneQuery q(0.37, 5.0, Cmp::kGE);
  obs::Tracer outer("outer", fx.idx_pager.get(), fx.rel_pager.get());
  QueryStats profiled_stats;
  QueryStats plain_stats;
  obs::ExplainProfile inner;
  {
    CDB_TRACE_SPAN("profiled");
    ASSERT_TRUE(fx.index
                    ->Select(SelectionType::kExist, q, QueryMethod::kAuto,
                             &profiled_stats, &inner)
                    .ok());
  }
  {
    CDB_TRACE_SPAN("plain");
    ASSERT_TRUE(fx.index
                    ->Select(SelectionType::kAll, q, QueryMethod::kAuto,
                             &plain_stats, nullptr)
                    .ok());
  }
  obs::ExplainProfile whole;
  obs::FinishQueryTrace(&outer, &whole);
  EXPECT_TRUE(whole.SumsBalance());
  EXPECT_TRUE(inner.SumsBalance());
  EXPECT_EQ(inner.root.name, "dual/select");
  EXPECT_NE(inner.root.Find("filter"), nullptr);

  const obs::ProfileNode* profiled = whole.root.Find("profiled");
  const obs::ProfileNode* plain = whole.root.Find("plain");
  ASSERT_NE(profiled, nullptr);
  ASSERT_NE(plain, nullptr);
  EXPECT_TRUE(profiled->children.empty());
  EXPECT_TRUE(plain->children.empty());
  EXPECT_TRUE(profiled->Total().IoEquals(inner.totals));
  EXPECT_EQ(profiled->Total().index_fetches,
            profiled_stats.index_page_fetches);
  EXPECT_EQ(plain->Total().index_fetches, plain_stats.index_page_fetches);
  EXPECT_EQ(plain->Total().tuple_reads, plain_stats.tuple_page_fetches);
  EXPECT_GT(plain_stats.index_page_fetches, 0u);
}

}  // namespace
}  // namespace cdb
