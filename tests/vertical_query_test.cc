#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "dualindex/dual_index.h"
#include "storage/file.h"
#include "workload/generator.h"

namespace cdb {
namespace {

std::unique_ptr<Pager> MakePager() {
  PagerOptions opts;
  std::unique_ptr<Pager> pager;
  EXPECT_TRUE(
      Pager::Open(std::make_unique<MemFile>(opts.page_size), opts, &pager)
          .ok());
  return pager;
}

struct Fixture {
  std::unique_ptr<Pager> rel_pager = MakePager();
  std::unique_ptr<Pager> idx_pager = MakePager();
  std::unique_ptr<Relation> relation;
  std::unique_ptr<DualIndex> index;
  Rng rng;

  explicit Fixture(uint64_t seed, bool vertical, bool unbounded = false)
      : rng(seed) {
    EXPECT_TRUE(
        Relation::Open(rel_pager.get(), kInvalidPageId, &relation).ok());
    WorkloadOptions w;
    for (int i = 0; i < 150; ++i) {
      GeneralizedTuple t = (unbounded && rng.Chance(0.3))
                               ? RandomUnboundedTuple(&rng, w)
                               : RandomBoundedTuple(&rng, w);
      EXPECT_TRUE(relation->Insert(t).ok());
    }
    DualIndexOptions opts;
    opts.support_vertical = vertical;
    EXPECT_TRUE(DualIndex::Build(idx_pager.get(), relation.get(),
                                 SlopeSet::UniformInAngle(3, -0.9, 0.9),
                                 opts, &index)
                    .ok());
  }
};

TEST(VerticalQueryTest, ExactPredicatesOnKnownTuples) {
  // Box [1, 3] x [0, 1].
  std::vector<Constraint2D> box = {
      {1, 0, -1, Cmp::kGE}, {1, 0, -3, Cmp::kLE},
      {0, 1, 0, Cmp::kGE},  {0, 1, -1, Cmp::kLE},
  };
  EXPECT_TRUE(ExactAllVertical(box, {0.5, Cmp::kGE}));
  EXPECT_FALSE(ExactAllVertical(box, {2.0, Cmp::kGE}));
  EXPECT_TRUE(ExactExistVertical(box, {2.0, Cmp::kGE}));
  EXPECT_FALSE(ExactExistVertical(box, {3.5, Cmp::kGE}));
  EXPECT_TRUE(ExactAllVertical(box, {3.0, Cmp::kLE}));
  EXPECT_TRUE(ExactExistVertical(box, {1.0, Cmp::kLE}));
  EXPECT_FALSE(ExactExistVertical(box, {0.5, Cmp::kLE}));

  // Unbounded to the right: x >= 2.
  std::vector<Constraint2D> ray = {{1, 0, -2, Cmp::kGE}};
  EXPECT_TRUE(ExactAllVertical(ray, {1.0, Cmp::kGE}));
  EXPECT_FALSE(ExactAllVertical(ray, {5.0, Cmp::kGE}));  // Region starts at 2.
  EXPECT_TRUE(ExactExistVertical(ray, {100.0, Cmp::kGE}));  // Unbounded.
  EXPECT_FALSE(ExactAllVertical(ray, {100.0, Cmp::kLE}));   // x unbounded.
}

TEST(VerticalQueryTest, RequiresOptIn) {
  Fixture fx(1, /*vertical=*/false);
  Result<std::vector<TupleId>> r =
      fx.index->SelectVertical(SelectionType::kExist, {0.0, Cmp::kGE});
  EXPECT_TRUE(r.status().IsNotSupported());
}

TEST(VerticalQueryTest, MatchesNaiveOnBoundedWorkload) {
  Fixture fx(2, /*vertical=*/true);
  for (int qi = 0; qi < 25; ++qi) {
    VerticalQuery q{fx.rng.Uniform(-60, 60),
                    fx.rng.Chance(0.5) ? Cmp::kGE : Cmp::kLE};
    for (SelectionType type : {SelectionType::kAll, SelectionType::kExist}) {
      QueryStats stats;
      Result<std::vector<TupleId>> got =
          fx.index->SelectVertical(type, q, &stats);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      Result<std::vector<TupleId>> want =
          NaiveSelectVertical(*fx.relation, type, q);
      ASSERT_TRUE(want.ok());
      EXPECT_EQ(got.value(), want.value())
          << "x=" << q.boundary << " cmp=" << (q.cmp == Cmp::kGE ? ">=" : "<=");
      // Vertical selections are exact.
      EXPECT_EQ(stats.filter.refine_rejects, 0u);
      EXPECT_EQ(stats.results, got.value().size());
    }
  }
}

TEST(VerticalQueryTest, MatchesNaiveWithUnboundedTuples) {
  Fixture fx(3, /*vertical=*/true, /*unbounded=*/true);
  for (int qi = 0; qi < 20; ++qi) {
    VerticalQuery q{fx.rng.Uniform(-60, 60),
                    fx.rng.Chance(0.5) ? Cmp::kGE : Cmp::kLE};
    for (SelectionType type : {SelectionType::kAll, SelectionType::kExist}) {
      Result<std::vector<TupleId>> got = fx.index->SelectVertical(type, q);
      ASSERT_TRUE(got.ok());
      Result<std::vector<TupleId>> want =
          NaiveSelectVertical(*fx.relation, type, q);
      ASSERT_TRUE(want.ok());
      EXPECT_EQ(got.value(), want.value());
    }
  }
}

TEST(VerticalQueryTest, SurvivesUpdates) {
  Fixture fx(4, /*vertical=*/true);
  WorkloadOptions w;
  for (int step = 0; step < 40; ++step) {
    if (fx.rng.Chance(0.5) && fx.relation->size() > 10) {
      // Delete the smallest live id.
      TupleId victim = 0;
      bool found = false;
      EXPECT_TRUE(fx.relation
                      ->ForEach([&](TupleId id, const GeneralizedTuple&) {
                        if (!found) {
                          victim = id;
                          found = true;
                        }
                        return Status::OK();
                      })
                      .ok());
      GeneralizedTuple t;
      ASSERT_TRUE(fx.relation->Get(victim, &t).ok());
      ASSERT_TRUE(fx.index->Remove(victim, t).ok());
      ASSERT_TRUE(fx.relation->Delete(victim).ok());
    } else {
      GeneralizedTuple t = RandomBoundedTuple(&fx.rng, w);
      Result<TupleId> id = fx.relation->Insert(t);
      ASSERT_TRUE(id.ok());
      ASSERT_TRUE(fx.index->Insert(id.value(), t).ok());
    }
  }
  for (int qi = 0; qi < 10; ++qi) {
    VerticalQuery q{fx.rng.Uniform(-60, 60),
                    fx.rng.Chance(0.5) ? Cmp::kGE : Cmp::kLE};
    for (SelectionType type : {SelectionType::kAll, SelectionType::kExist}) {
      Result<std::vector<TupleId>> got = fx.index->SelectVertical(type, q);
      ASSERT_TRUE(got.ok());
      Result<std::vector<TupleId>> want =
          NaiveSelectVertical(*fx.relation, type, q);
      ASSERT_TRUE(want.ok());
      EXPECT_EQ(got.value(), want.value());
    }
  }
}

TEST(VerticalQueryTest, RejectsNonFiniteBoundary) {
  Fixture fx(5, /*vertical=*/true);
  EXPECT_TRUE(fx.index
                  ->SelectVertical(SelectionType::kExist,
                                   {std::nan(""), Cmp::kGE})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(fx.index
                  ->SelectVertical(
                      SelectionType::kExist,
                      {std::numeric_limits<double>::infinity(), Cmp::kGE})
                  .status()
                  .IsInvalidArgument());
}

// A rejected vertical query reports zeroed books, not the previous
// query's: a bad boundary, and a vertical query on an index without the
// support trees.
TEST(VerticalQueryTest, RejectedQueryZeroesStats) {
  Fixture fx(6, /*vertical=*/true);
  QueryStats stats;
  ASSERT_TRUE(fx.index
                  ->SelectVertical(SelectionType::kExist, {0.0, Cmp::kGE},
                                   &stats)
                  .ok());
  ASSERT_GT(stats.candidates, 0u);
  EXPECT_TRUE(fx.index
                  ->SelectVertical(SelectionType::kExist,
                                   {std::nan(""), Cmp::kGE}, &stats)
                  .status()
                  .IsInvalidArgument());
  EXPECT_EQ(stats.candidates, 0u);
  EXPECT_EQ(stats.results, 0u);

  Fixture plain(7, /*vertical=*/false);
  ASSERT_TRUE(plain.index
                  ->Select(SelectionType::kExist,
                           HalfPlaneQuery(0.0, 0.0, Cmp::kGE),
                           QueryMethod::kAuto, &stats)
                  .ok());
  ASSERT_GT(stats.candidates, 0u);
  EXPECT_TRUE(plain.index
                  ->SelectVertical(SelectionType::kExist, {0.0, Cmp::kGE},
                                   &stats)
                  .status()
                  .IsNotSupported());
  EXPECT_EQ(stats.candidates, 0u);
  EXPECT_EQ(stats.results, 0u);
}

}  // namespace
}  // namespace cdb
