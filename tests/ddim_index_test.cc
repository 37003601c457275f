#include "dualindex/ddim_index.h"

#include <gtest/gtest.h>

#include <limits>

#include "common/rng.h"
#include "storage/file.h"
#include "workload/generator.h"

namespace cdb {
namespace {

std::unique_ptr<Pager> MakePager() {
  PagerOptions opts;
  opts.page_size = 1024;
  std::unique_ptr<Pager> pager;
  EXPECT_TRUE(
      Pager::Open(std::make_unique<MemFile>(1024), opts, &pager).ok());
  return pager;
}

// Grid of slope points covering [-r, r]^(d-1).
std::vector<std::vector<double>> GridSlopes(size_t dim, int per_axis,
                                            double r) {
  std::vector<std::vector<double>> points;
  std::vector<int> idx(dim - 1, 0);
  while (true) {
    std::vector<double> p(dim - 1);
    for (size_t t = 0; t < dim - 1; ++t) {
      p[t] = per_axis == 1 ? 0.0
                           : -r + 2 * r * idx[t] / (per_axis - 1);
    }
    points.push_back(p);
    size_t t = 0;
    for (; t < dim - 1; ++t) {
      if (++idx[t] < per_axis) break;
      idx[t] = 0;
    }
    if (t == dim - 1) break;
  }
  return points;
}

// Bundles the paged relation with the index for tests.
struct DdimFixture {
  std::unique_ptr<Pager> rel_pager = MakePager();
  std::unique_ptr<Pager> idx_pager = MakePager();
  std::unique_ptr<RelationD> relation;
  std::unique_ptr<DDimDualIndex> index;

  bool Init(size_t dim, std::vector<std::vector<double>> slopes) {
    if (!RelationD::Open(rel_pager.get(), dim, kInvalidPageId, &relation)
             .ok()) {
      return false;
    }
    return DDimDualIndex::Create(idx_pager.get(), relation.get(),
                                 std::move(slopes), &index)
        .ok();
  }
};

std::vector<TupleId> BruteSelect(const std::vector<GeneralizedTupleD>& tuples,
                                 SelectionType type,
                                 const HalfPlaneQueryD& q) {
  std::vector<TupleId> out;
  for (size_t i = 0; i < tuples.size(); ++i) {
    bool hit = type == SelectionType::kAll
                   ? ExactAllD(tuples[i].constraints(), q)
                   : ExactExistD(tuples[i].constraints(), q);
    if (hit) out.push_back(static_cast<TupleId>(i));
  }
  return out;
}

class DDimIndexTest : public ::testing::TestWithParam<size_t> {};

TEST_P(DDimIndexTest, ExactAndT1MatchBruteForce) {
  const size_t dim = GetParam();
  auto slopes = GridSlopes(dim, 3, 1.0);
  DdimFixture fx;
  ASSERT_TRUE(fx.Init(dim, slopes));
  DDimDualIndex* index = fx.index.get();

  Rng rng(1000 + dim);
  std::vector<GeneralizedTupleD> tuples;
  for (int i = 0; i < 80; ++i) {
    GeneralizedTupleD t = RandomBoundedTupleD(&rng, dim, 20.0);
    Result<TupleId> id = index->Insert(t);
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(id.value(), static_cast<TupleId>(i));
    tuples.push_back(t);
  }

  // Exact queries: slope point in S.
  for (int qi = 0; qi < 10; ++qi) {
    HalfPlaneQueryD q;
    q.slope = slopes[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(slopes.size()) - 1))];
    q.intercept = rng.Uniform(-40, 40);
    q.cmp = rng.Chance(0.5) ? Cmp::kGE : Cmp::kLE;
    for (SelectionType type : {SelectionType::kAll, SelectionType::kExist}) {
      Result<std::vector<TupleId>> got = index->Select(type, q);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(got.value(), BruteSelect(tuples, type, q));
    }
  }

  // T1 queries: random slope points inside the hull of the grid.
  for (int qi = 0; qi < 15; ++qi) {
    HalfPlaneQueryD q;
    q.slope.resize(dim - 1);
    for (size_t t = 0; t < dim - 1; ++t) q.slope[t] = rng.Uniform(-0.9, 0.9);
    q.intercept = rng.Uniform(-40, 40);
    q.cmp = rng.Chance(0.5) ? Cmp::kGE : Cmp::kLE;
    for (SelectionType type : {SelectionType::kAll, SelectionType::kExist}) {
      QueryStats stats;
      Result<std::vector<TupleId>> got = index->Select(type, q, &stats);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(got.value(), BruteSelect(tuples, type, q))
          << "dim=" << dim << " qi=" << qi;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, DDimIndexTest, ::testing::Values(2, 3, 4));

// Create over a relation that already holds tuples loads every live tuple:
// exact and T1 answers equal brute force and an index built by Insert.
TEST_P(DDimIndexTest, CreateLoadsExistingTuples) {
  const size_t dim = GetParam();
  auto slopes = GridSlopes(dim, 3, 1.0);
  Rng rng(3000 + dim);
  std::vector<GeneralizedTupleD> tuples;
  for (int i = 0; i < 150; ++i) {
    tuples.push_back(RandomBoundedTupleD(&rng, dim, 20.0));
  }

  DdimFixture loaded;
  ASSERT_TRUE(RelationD::Open(loaded.rel_pager.get(), dim, kInvalidPageId,
                              &loaded.relation)
                  .ok());
  for (size_t i = 0; i < tuples.size(); ++i) {
    Result<TupleId> id = loaded.relation->Insert(tuples[i]);
    ASSERT_TRUE(id.ok());
    ASSERT_EQ(id.value(), static_cast<TupleId>(i));
  }
  ASSERT_TRUE(DDimDualIndex::Create(loaded.idx_pager.get(),
                                    loaded.relation.get(), slopes,
                                    &loaded.index)
                  .ok());
  EXPECT_EQ(loaded.index->tuple_count(), tuples.size());

  DdimFixture inserted;
  ASSERT_TRUE(inserted.Init(dim, slopes));
  for (const GeneralizedTupleD& t : tuples) {
    ASSERT_TRUE(inserted.index->Insert(t).ok());
  }

  for (int qi = 0; qi < 20; ++qi) {
    HalfPlaneQueryD q;
    if (qi % 2 == 0) {
      q.slope = slopes[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(slopes.size()) - 1))];
    } else {
      q.slope.resize(dim - 1);
      for (double& s : q.slope) s = rng.Uniform(-0.9, 0.9);
    }
    q.intercept = rng.Uniform(-40, 40);
    q.cmp = rng.Chance(0.5) ? Cmp::kGE : Cmp::kLE;
    for (SelectionType type : {SelectionType::kAll, SelectionType::kExist}) {
      Result<std::vector<TupleId>> got = loaded.index->Select(type, q);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      Result<std::vector<TupleId>> want = inserted.index->Select(type, q);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      EXPECT_EQ(got.value(), BruteSelect(tuples, type, q))
          << "dim=" << dim << " qi=" << qi;
      EXPECT_EQ(got.value(), want.value()) << "dim=" << dim << " qi=" << qi;
    }
  }
}

TEST(DDimIndexTest2, RejectsOutsideHull) {
  DdimFixture fx;
  ASSERT_TRUE(fx.Init(3, GridSlopes(3, 2, 0.5)));
  Rng rng(7);
  ASSERT_TRUE(fx.index->Insert(RandomBoundedTupleD(&rng, 3, 10)).ok());
  HalfPlaneQueryD q;
  q.slope = {5.0, 5.0};  // Far outside the hull of [-0.5, 0.5]^2.
  q.intercept = 0;
  q.cmp = Cmp::kGE;
  Result<std::vector<TupleId>> r = fx.index->Select(SelectionType::kExist, q);
  EXPECT_TRUE(r.status().IsNotSupported());
}

// A non-finite slope component or a NaN intercept is rejected before any
// sweep: an infinite slope point would otherwise pass the covering-simplex
// LP and return wrong ids.
TEST(DDimIndexTest2, RejectsNonFiniteQueries) {
  DdimFixture fx;
  ASSERT_TRUE(fx.Init(3, GridSlopes(3, 3, 1.0)));
  Rng rng(11);
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(fx.index->Insert(RandomBoundedTupleD(&rng, 3, 20.0)).ok());
  }
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  struct Bad {
    std::vector<double> slope;
    double intercept;
  };
  for (const Bad& bad : {Bad{{inf, 0.0}, 0.0}, Bad{{0.0, -inf}, 0.0},
                         Bad{{nan, 0.0}, 0.0}, Bad{{0.0, nan}, 0.0},
                         Bad{{0.0, 0.0}, nan}}) {
    HalfPlaneQueryD q;
    q.slope = bad.slope;
    q.intercept = bad.intercept;
    for (SelectionType type : {SelectionType::kAll, SelectionType::kExist}) {
      for (Cmp cmp : {Cmp::kGE, Cmp::kLE}) {
        q.cmp = cmp;
        Result<std::vector<TupleId>> r = fx.index->Select(type, q);
        EXPECT_TRUE(r.status().IsInvalidArgument())
            << "slope=(" << q.slope[0] << ", " << q.slope[1]
            << ") b=" << q.intercept << " " << r.status().ToString();
      }
    }
  }
}

// A traced T1 query off S runs one exact sweep per simplex corner, each
// booked under "filter" as "sweep/exact", so the filter keeps no index
// fetch as self cost and the span tree balances.
TEST(DDimIndexTest2, T1SweepsAreTracedUnderFilter) {
  DdimFixture fx;
  // One triangle of slope points: a query point strictly inside it is
  // covered by all three corners.
  ASSERT_TRUE(fx.Init(3, {{0.0, 0.0}, {1.0, 0.0}, {0.0, 1.0}}));
  Rng rng(2211);
  std::vector<GeneralizedTupleD> tuples;
  for (int i = 0; i < 200; ++i) {
    tuples.push_back(RandomBoundedTupleD(&rng, 3, 20.0));
    ASSERT_TRUE(fx.index->Insert(tuples.back()).ok());
  }
  HalfPlaneQueryD q;
  q.slope = {0.25, 0.25};
  q.intercept = 5;
  for (SelectionType type : {SelectionType::kAll, SelectionType::kExist}) {
    for (Cmp cmp : {Cmp::kGE, Cmp::kLE}) {
      q.cmp = cmp;
      QueryStats stats;
      obs::ExplainProfile profile;
      Result<std::vector<TupleId>> got =
          fx.index->Select(type, q, &stats, &profile);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(got.value(), BruteSelect(tuples, type, q));
      EXPECT_TRUE(profile.SumsBalance()) << profile.ToString();
      const obs::ProfileNode* filter = profile.root.Find("filter");
      ASSERT_NE(filter, nullptr) << profile.ToString();
      ASSERT_EQ(filter->children.size(), 1u) << profile.ToString();
      const obs::ProfileNode& sweep = filter->children[0];
      EXPECT_EQ(sweep.name, "sweep/exact");
      EXPECT_EQ(sweep.invocations, 3u);
      EXPECT_EQ(filter->self.index_fetches, 0u) << profile.ToString();
      EXPECT_GT(sweep.self.index_fetches, 0u);
    }
  }
}

// A rejected query reports zeroed books, not the previous query's.
TEST(DDimIndexTest2, RejectedQueryZeroesStats) {
  DdimFixture fx;
  ASSERT_TRUE(fx.Init(3, GridSlopes(3, 3, 1.0)));
  Rng rng(12);
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(fx.index->Insert(RandomBoundedTupleD(&rng, 3, 20.0)).ok());
  }
  HalfPlaneQueryD q;
  q.slope = {0.0, 0.0};
  q.intercept = 0.0;
  q.cmp = Cmp::kGE;
  QueryStats stats;
  ASSERT_TRUE(fx.index->Select(SelectionType::kExist, q, &stats).ok());
  ASSERT_GT(stats.candidates, 0u);
  q.intercept = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(fx.index->Select(SelectionType::kExist, q, &stats)
                  .status()
                  .IsInvalidArgument());
  EXPECT_EQ(stats.candidates, 0u);
  EXPECT_EQ(stats.results, 0u);
}

TEST(DDimIndexTest2, DimensionValidation) {
  auto pager = MakePager();
  std::unique_ptr<RelationD> bad_rel;
  EXPECT_TRUE(RelationD::Open(pager.get(), 1, kInvalidPageId, &bad_rel)
                  .IsInvalidArgument());

  DdimFixture fx;
  ASSERT_TRUE(RelationD::Open(fx.rel_pager.get(), 3, kInvalidPageId,
                              &fx.relation)
                  .ok());
  // Slope points must have dimension d-1 = 2.
  EXPECT_TRUE(DDimDualIndex::Create(fx.idx_pager.get(), fx.relation.get(),
                                    {{1.0}}, &fx.index)
                  .IsInvalidArgument());
  ASSERT_TRUE(DDimDualIndex::Create(fx.idx_pager.get(), fx.relation.get(),
                                    GridSlopes(3, 2, 1.0), &fx.index)
                  .ok());
  Rng rng(3);
  GeneralizedTupleD wrong = RandomBoundedTupleD(&rng, 4, 10.0);
  EXPECT_TRUE(fx.index->Insert(wrong).status().IsInvalidArgument());
}

}  // namespace
}  // namespace cdb
