#include <gtest/gtest.h>

#include "common/rng.h"
#include "dualindex/dual_index.h"
#include "geometry/dual.h"
#include "storage/file.h"
#include "workload/generator.h"

namespace cdb {
namespace {

struct Fixture {
  std::unique_ptr<Pager> rel_pager, idx_pager;
  std::unique_ptr<Relation> relation;
  std::unique_ptr<DualIndex> index;
  Rng rng;

  explicit Fixture(uint64_t seed, bool unbounded = false) : rng(seed) {
    PagerOptions opts;
    EXPECT_TRUE(
        Pager::Open(std::make_unique<MemFile>(opts.page_size), opts,
                    &rel_pager)
            .ok());
    EXPECT_TRUE(
        Pager::Open(std::make_unique<MemFile>(opts.page_size), opts,
                    &idx_pager)
            .ok());
    EXPECT_TRUE(
        Relation::Open(rel_pager.get(), kInvalidPageId, &relation).ok());
    WorkloadOptions w;
    for (int i = 0; i < 200; ++i) {
      GeneralizedTuple t = (unbounded && rng.Chance(0.3))
                               ? RandomUnboundedTuple(&rng, w)
                               : RandomBoundedTuple(&rng, w);
      EXPECT_TRUE(relation->Insert(t).ok());
    }
    EXPECT_TRUE(DualIndex::Build(idx_pager.get(), relation.get(),
                                 SlopeSet({-0.7, 0.0, 0.7}),
                                 DualIndexOptions(), &index)
                    .ok());
  }

  // Brute-force slab evaluation via TOP/BOT.
  std::vector<TupleId> Truth(SelectionType type, double slope, double lo,
                             double hi) {
    std::vector<TupleId> out;
    EXPECT_TRUE(relation
                    ->ForEach([&](TupleId id, const GeneralizedTuple& t) {
                      double top = t.Top(slope), bot = t.Bot(slope);
                      bool hit = type == SelectionType::kAll
                                     ? (bot >= lo && top <= hi)
                                     : (top >= lo && bot <= hi);
                      if (hit) out.push_back(id);
                      return Status::OK();
                    })
                    .ok());
    return out;
  }
};

TEST(SlabQueryTest, MatchesBruteForce) {
  Fixture fx(51);
  for (int qi = 0; qi < 30; ++qi) {
    double slope = fx.index->slopes().slope(
        static_cast<size_t>(fx.rng.UniformInt(0, 2)));
    double a = fx.rng.Uniform(-60, 60), b = fx.rng.Uniform(-60, 60);
    double lo = std::min(a, b), hi = std::max(a, b);
    for (SelectionType type : {SelectionType::kAll, SelectionType::kExist}) {
      QueryStats stats;
      Result<std::vector<TupleId>> got =
          fx.index->SelectSlab(type, slope, lo, hi, &stats);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(got.value(), fx.Truth(type, slope, lo, hi))
          << "slope=" << slope << " [" << lo << "," << hi << "]";
      EXPECT_EQ(stats.results, got.value().size());
      EXPECT_GT(stats.index_page_fetches, 0u);
    }
  }
}

TEST(SlabQueryTest, UnboundedTuplesBehave) {
  Fixture fx(52, /*unbounded=*/true);
  for (int qi = 0; qi < 20; ++qi) {
    double slope = fx.index->slopes().slope(
        static_cast<size_t>(fx.rng.UniformInt(0, 2)));
    double a = fx.rng.Uniform(-40, 40), b = fx.rng.Uniform(-40, 40);
    double lo = std::min(a, b), hi = std::max(a, b);
    for (SelectionType type : {SelectionType::kAll, SelectionType::kExist}) {
      Result<std::vector<TupleId>> got =
          fx.index->SelectSlab(type, slope, lo, hi);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(got.value(), fx.Truth(type, slope, lo, hi));
    }
  }
}

TEST(SlabQueryTest, AllWithinImpliesExist) {
  Fixture fx(53);
  double slope = 0.0;
  Result<std::vector<TupleId>> all =
      fx.index->SelectSlab(SelectionType::kAll, slope, -30, 30);
  Result<std::vector<TupleId>> exist =
      fx.index->SelectSlab(SelectionType::kExist, slope, -30, 30);
  ASSERT_TRUE(all.ok() && exist.ok());
  for (TupleId id : all.value()) {
    EXPECT_TRUE(std::binary_search(exist.value().begin(),
                                   exist.value().end(), id));
  }
}

TEST(SlabQueryTest, DegenerateSlabIsLineStabbing) {
  // b_lo == b_hi: EXIST = tuples whose [BOT, TOP] interval contains the
  // value — tuples intersecting the *line* y = slope*x + b.
  Fixture fx(54);
  double slope = 0.7, b = 5.0;
  Result<std::vector<TupleId>> got =
      fx.index->SelectSlab(SelectionType::kExist, slope, b, b);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), fx.Truth(SelectionType::kExist, slope, b, b));
}

TEST(SlabQueryTest, Validation) {
  Fixture fx(55);
  EXPECT_TRUE(fx.index->SelectSlab(SelectionType::kAll, 0.0, 2.0, 1.0)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(fx.index->SelectSlab(SelectionType::kAll, 0.123, 0.0, 1.0)
                  .status()
                  .IsInvalidArgument());
}

// A rejected slab query reports zeroed books, not the previous query's.
TEST(SlabQueryTest, RejectedQueryZeroesStats) {
  Fixture fx(57);
  QueryStats stats;
  ASSERT_TRUE(
      fx.index->SelectSlab(SelectionType::kExist, 0.0, -20, 20, &stats).ok());
  ASSERT_GT(stats.candidates, 0u);
  EXPECT_TRUE(fx.index->SelectSlab(SelectionType::kExist, 0.0, 20, -20, &stats)
                  .status()
                  .IsInvalidArgument());
  EXPECT_EQ(stats.candidates, 0u);
  EXPECT_EQ(stats.results, 0u);
}

}  // namespace
}  // namespace cdb
