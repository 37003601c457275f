#include "dualindex/app_query.h"

#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "common/rng.h"

namespace cdb {
namespace {

HalfPlaneQuery ToHalfPlane(const SlopeSet& s, const AppQuery& aq) {
  return HalfPlaneQuery(s.slope(aq.slope_index), aq.intercept, aq.cmp);
}

TEST(AppQueryTest, BetweenCaseKeepsTheta) {
  // Table 1 row 1: a1 < a < a2 -> θ1 = θ2 = θ.
  SlopeSet s({0.0, 2.0});
  std::array<AppQuery, 2> plan = PlanAppQueries(
      s, SelectionType::kExist, HalfPlaneQuery(1.0, 5.0, Cmp::kGE));
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan[0].cmp, Cmp::kGE);
  EXPECT_EQ(plan[1].cmp, Cmp::kGE);
  // Anchor 0: both intercepts equal the original.
  EXPECT_DOUBLE_EQ(plan[0].intercept, 5.0);
  EXPECT_DOUBLE_EQ(plan[1].intercept, 5.0);
}

TEST(AppQueryTest, AboveMaxFlipsSecondTheta) {
  // Table 1 row 2: a1 < a, a2 < a -> θ1 = θ, θ2 = ¬θ.
  SlopeSet s({-1.0, 1.0});
  std::array<AppQuery, 2> plan = PlanAppQueries(
      s, SelectionType::kExist, HalfPlaneQuery(4.0, 0.0, Cmp::kGE));
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan[0].slope_index, 1u);  // Clockwise: max(S).
  EXPECT_EQ(plan[0].cmp, Cmp::kGE);
  EXPECT_EQ(plan[1].slope_index, 0u);  // Wrap to min(S).
  EXPECT_EQ(plan[1].cmp, Cmp::kLE);
}

TEST(AppQueryTest, BelowMinFlipsFirstTheta) {
  // Table 1 row 3: a < a1, a < a2 -> θ1 = ¬θ, θ2 = θ.
  SlopeSet s({-1.0, 1.0});
  std::array<AppQuery, 2> plan = PlanAppQueries(
      s, SelectionType::kExist, HalfPlaneQuery(-4.0, 0.0, Cmp::kLE));
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan[0].slope_index, 1u);  // Clockwise wraps to max(S).
  EXPECT_EQ(plan[0].cmp, Cmp::kGE);    // ¬(<=).
  EXPECT_EQ(plan[1].slope_index, 0u);
  EXPECT_EQ(plan[1].cmp, Cmp::kLE);
}

TEST(AppQueryTest, AllQueriesGetOneAllAndOneExist) {
  SlopeSet s({0.0, 2.0});
  std::array<AppQuery, 2> plan = PlanAppQueries(
      s, SelectionType::kAll, HalfPlaneQuery(0.4, 1.0, Cmp::kGE));
  ASSERT_EQ(plan.size(), 2u);
  // 0.4 is angularly nearer to slope 0 than to slope 2.
  EXPECT_EQ(plan[0].type, SelectionType::kAll);
  EXPECT_EQ(plan[1].type, SelectionType::kExist);

  plan = PlanAppQueries(s, SelectionType::kAll,
                        HalfPlaneQuery(1.8, 1.0, Cmp::kGE));
  EXPECT_EQ(plan[0].type, SelectionType::kExist);
  EXPECT_EQ(plan[1].type, SelectionType::kAll);
}

// The covering property (correctness of T1): every point of the original
// half-plane lies in the union of the two app-query half-planes, for all
// three Table 1 cases, random slopes and anchors.
TEST(AppQueryTest, UnionCoversOriginalHalfPlane) {
  Rng rng(808);
  SlopeSet s({-2.0, -0.5, 0.5, 2.0});
  int wrap_cases = 0, between_cases = 0;
  for (int trial = 0; trial < 400; ++trial) {
    double slope = std::tan(rng.Uniform(-1.4, 1.4));
    if (s.Locate(slope).kind == SlopeLocation::Kind::kExact) continue;
    HalfPlaneQuery q(slope, rng.Uniform(-30, 30),
                     rng.Chance(0.5) ? Cmp::kGE : Cmp::kLE);
    double anchor = rng.Chance(0.5) ? 0.0 : rng.Uniform(-10, 10);
    std::array<AppQuery, 2> plan =
        PlanAppQueries(s, SelectionType::kExist, q, anchor);
    ASSERT_EQ(plan.size(), 2u);
    HalfPlaneQuery q1 = ToHalfPlane(s, plan[0]);
    HalfPlaneQuery q2 = ToHalfPlane(s, plan[1]);
    EXPECT_TRUE(CoversSampled(q, q1, q2, /*extent=*/120.0, /*steps=*/60))
        << "slope=" << slope << " b=" << q.intercept << " anchor=" << anchor
        << " cmp=" << (q.cmp == Cmp::kGE ? ">=" : "<=");
    if (s.Locate(slope).kind == SlopeLocation::Kind::kBetween) {
      ++between_cases;
    } else {
      ++wrap_cases;
    }
  }
  EXPECT_GT(wrap_cases, 20);
  EXPECT_GT(between_cases, 100);
}

}  // namespace
}  // namespace cdb
