// Sweeps whose start key is stored many times over.
//
// A downward sweep collects key <= b. When b is itself a stored key held
// by more entries than fit one leaf, the entries equal to b span several
// leaves; every one of them must still be collected. The fixtures below
// store 300 copies of each of two shapes, so every surface value is a key
// shared by 300 (or 600) entries, and query every family exactly on those
// keys: exact, T1 and T2 in both θ directions, vertical and slab
// selections, ordinary and augmented trees, and the d-dimensional index.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>

#include "dualindex/ddim_index.h"
#include "dualindex/dual_index.h"
#include "pager_test_util.h"
#include "storage/file.h"

namespace cdb {
namespace {

constexpr int kCopies = 300;

std::unique_ptr<Pager> MakePager() {
  PagerOptions opts;
  opts.page_size = 1024;
  opts.cache_frames = 64;
  std::unique_ptr<Pager> pager;
  EXPECT_TRUE(
      Pager::Open(std::make_unique<MemFile>(1024), opts, &pager).ok());
  return pager;
}

// The triangle x, y >= 0, x + y <= 4 and the box [0, 4]^2: at the slopes
// {-1, 0, 1} their TOP/BOT keys are -4, 0, 4 or 8, their x extent [0, 4].
GeneralizedTuple Triangle() {
  return GeneralizedTuple({{1, 0, 0, Cmp::kGE},
                           {0, 1, 0, Cmp::kGE},
                           {1, 1, -4, Cmp::kLE}});
}

GeneralizedTuple Box() {
  return GeneralizedTuple({{1, 0, 0, Cmp::kGE},
                           {1, 0, -4, Cmp::kLE},
                           {0, 1, 0, Cmp::kGE},
                           {0, 1, -4, Cmp::kLE}});
}

struct DuplicateFixture {
  std::unique_ptr<Pager> rel_pager = MakePager();
  std::unique_ptr<Pager> idx_pager = MakePager();
  std::unique_ptr<Relation> relation;
  std::unique_ptr<DualIndex> index;

  explicit DuplicateFixture(bool augmented) {
    EXPECT_TRUE(
        Relation::Open(rel_pager.get(), kInvalidPageId, &relation).ok());
    for (int i = 0; i < kCopies; ++i) {
      EXPECT_TRUE(relation->Insert(Triangle()).ok());
      EXPECT_TRUE(relation->Insert(Box()).ok());
    }
    DualIndexOptions opts;
    opts.incremental_handicaps = augmented;
    opts.support_vertical = true;
    EXPECT_TRUE(DualIndex::Build(idx_pager.get(), relation.get(),
                                 SlopeSet({-1.0, 0.0, 1.0}), opts, &index)
                    .ok());
  }

  ~DuplicateFixture() {
    ExpectNoPinnedFrames(*rel_pager);
    ExpectNoPinnedFrames(*idx_pager);
  }

  std::vector<TupleId> Truth(SelectionType type, const HalfPlaneQuery& q) {
    Result<std::vector<TupleId>> r = NaiveSelect(*relation, type, q);
    EXPECT_TRUE(r.ok());
    return r.value_or({});
  }
};

const double kKeys[] = {-4, -2, 0, 2, 4, 8};
const SelectionType kTypes[] = {SelectionType::kAll, SelectionType::kExist};
const Cmp kCmps[] = {Cmp::kGE, Cmp::kLE};

class DuplicateKeySweepTest : public ::testing::TestWithParam<bool> {};

TEST_P(DuplicateKeySweepTest, HalfPlaneSelectionsCollectEveryEqualKey) {
  DuplicateFixture fx(/*augmented=*/GetParam());
  struct Case {
    double slope;
    QueryMethod method;
  };
  const Case cases[] = {
      {-1.0, QueryMethod::kRestricted}, {0.0, QueryMethod::kRestricted},
      {1.0, QueryMethod::kRestricted},  {0.0, QueryMethod::kT1},
      {0.0, QueryMethod::kT2},          {-0.5, QueryMethod::kT1},
      {0.1, QueryMethod::kT1},          {-0.1, QueryMethod::kT2},
      {0.1, QueryMethod::kT2},          {0.5, QueryMethod::kT2},
      {-0.9, QueryMethod::kAuto},       {-0.9, QueryMethod::kT2},
      {2.0, QueryMethod::kT2},
  };
  int nonempty = 0;
  for (const Case& c : cases) {
    for (double b : kKeys) {
      for (SelectionType type : kTypes) {
        for (Cmp cmp : kCmps) {
          HalfPlaneQuery q(c.slope, b, cmp);
          Result<std::vector<TupleId>> got =
              fx.index->Select(type, q, c.method);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          std::vector<TupleId> want = fx.Truth(type, q);
          EXPECT_EQ(got.value().size(), want.size())
              << (type == SelectionType::kAll ? "ALL" : "EXIST") << " y "
              << (cmp == Cmp::kGE ? ">=" : "<=") << " " << c.slope
              << "*x + " << b << " via method "
              << static_cast<int>(c.method);
          EXPECT_EQ(got.value(), want);
          if (!want.empty()) ++nonempty;
        }
      }
    }
  }
  EXPECT_GT(nonempty, 100);
}

TEST_P(DuplicateKeySweepTest, VerticalAndSlabSelectionsCollectEveryEqualKey) {
  DuplicateFixture fx(/*augmented=*/GetParam());
  for (double c : kKeys) {
    for (SelectionType type : kTypes) {
      for (Cmp cmp : kCmps) {
        VerticalQuery q{c, cmp};
        Result<std::vector<TupleId>> got = fx.index->SelectVertical(type, q);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        Result<std::vector<TupleId>> want =
            NaiveSelectVertical(*fx.relation, type, q);
        ASSERT_TRUE(want.ok());
        EXPECT_EQ(got.value(), want.value())
            << "vertical x " << (cmp == Cmp::kGE ? ">=" : "<=") << " " << c;
      }
    }
  }
  // ALL: BOT >= b_lo and TOP <= b_hi; EXIST: TOP >= b_lo and BOT <= b_hi —
  // each the intersection of two naive half-plane selections.
  for (double slope : {-1.0, 0.0, 1.0}) {
    for (double lo : kKeys) {
      for (double hi : kKeys) {
        if (hi < lo) continue;
        for (SelectionType type : kTypes) {
          Result<std::vector<TupleId>> got =
              fx.index->SelectSlab(type, slope, lo, hi);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          std::vector<TupleId> a = fx.Truth(type, {slope, lo, Cmp::kGE});
          std::vector<TupleId> b = fx.Truth(type, {slope, hi, Cmp::kLE});
          std::vector<TupleId> want;
          std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                                std::back_inserter(want));
          EXPECT_EQ(got.value(), want)
              << "slab [" << lo << ", " << hi << "] at slope " << slope;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Trees, DuplicateKeySweepTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Augmented" : "Ordinary";
                         });

// Unit cubes in E^3: at the slope point (0, 0) every TOP is 1 and every
// BOT 0, shared by all entries. (0, 0) is in S and runs the exact sweep;
// (0.1, 0.1) is not and runs T1.
TEST(DuplicateKeySweepDDimTest, ExactT1AndT2CollectEveryEqualKey) {
  std::unique_ptr<Pager> rel_pager = MakePager();
  std::unique_ptr<Pager> idx_pager = MakePager();
  std::unique_ptr<RelationD> relation;
  ASSERT_TRUE(
      RelationD::Open(rel_pager.get(), 3, kInvalidPageId, &relation).ok());
  std::vector<std::vector<double>> slopes;
  for (double s0 : {-1.0, 0.0, 1.0}) {
    for (double s1 : {-1.0, 0.0, 1.0}) slopes.push_back({s0, s1});
  }
  std::unique_ptr<DDimDualIndex> index;
  ASSERT_TRUE(DDimDualIndex::Create(idx_pager.get(), relation.get(), slopes,
                                    &index)
                  .ok());
  std::vector<ConstraintD> cube;
  for (size_t axis = 0; axis < 3; ++axis) {
    std::vector<double> e(3, 0.0);
    e[axis] = 1.0;
    cube.emplace_back(e, 0.0, Cmp::kGE);
    cube.emplace_back(e, -1.0, Cmp::kLE);
  }
  const GeneralizedTupleD tuple(3, cube);
  for (int i = 0; i < kCopies; ++i) ASSERT_TRUE(index->Insert(tuple).ok());

  for (std::vector<double> slope :
       {std::vector<double>{0.0, 0.0}, std::vector<double>{0.1, 0.1}}) {
    for (double b : {0.0, 1.0}) {
      for (SelectionType type : kTypes) {
        for (Cmp cmp : kCmps) {
          HalfPlaneQueryD q;
          q.slope = slope;
          q.intercept = b;
          q.cmp = cmp;
          Result<std::vector<TupleId>> got = index->Select(type, q);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          const bool hit = type == SelectionType::kAll ? ExactAllD(cube, q)
                                                       : ExactExistD(cube, q);
          EXPECT_EQ(got.value().size(), hit ? size_t{kCopies} : 0u)
              << (type == SelectionType::kAll ? "ALL" : "EXIST") << " x3 "
              << (cmp == Cmp::kGE ? ">=" : "<=") << " (" << slope[0] << ", "
              << slope[1] << ") . x + " << b;
        }
      }
    }
  }
  ExpectNoPinnedFrames(*rel_pager);
  ExpectNoPinnedFrames(*idx_pager);
}

}  // namespace
}  // namespace cdb
