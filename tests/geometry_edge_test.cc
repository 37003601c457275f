// Edge cases of the geometry layer that the randomized suites are unlikely
// to hit: degenerate constraints, vertical boundaries, equality-only
// regions, extreme slopes, and the x-extent support values.

#include <gtest/gtest.h>

#include <cmath>

#include "geometry/dual.h"
#include "geometry/lp2d.h"
#include "geometry/polyhedron2d.h"

namespace cdb {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(GeometryEdgeTest, TrivialConstraints) {
  // 0x + 0y + c θ 0 constraints are either tautologies or contradictions.
  std::vector<Constraint2D> taut = {{0, 0, -1, Cmp::kLE}};  // -1 <= 0: true.
  EXPECT_TRUE(IsSatisfiable2D(taut));
  EXPECT_EQ(MaximizeLinear2D(taut, 1, 0).status, LpStatus::kUnbounded);

  std::vector<Constraint2D> contra = {{0, 0, 1, Cmp::kLE}};  // 1 <= 0: false.
  EXPECT_FALSE(IsSatisfiable2D(contra));
  Polyhedron2D p = Polyhedron2D::FromConstraints(contra);
  EXPECT_FALSE(p.feasible);
}

TEST(GeometryEdgeTest, VerticalBoundariesInTuples) {
  // Tuple boundaries may be vertical even though queries must not be: a
  // tall thin column x in [1,2], y in [0,100].
  std::vector<Constraint2D> col = {
      {1, 0, -1, Cmp::kGE}, {1, 0, -2, Cmp::kLE},
      {0, 1, 0, Cmp::kGE},  {0, 1, -100, Cmp::kLE},
  };
  EXPECT_NEAR(TopValue(col, 0.0), 100.0, 1e-6);
  EXPECT_NEAR(TopValue(col, 10.0), 90.0, 1e-6);    // 100 - 10*1.
  EXPECT_NEAR(BotValue(col, -10.0), 10.0, 1e-6);   // 0 + 10*... min y+10x at x=1.
  EXPECT_NEAR(XMaxValue(col), 2.0, 1e-6);
  EXPECT_NEAR(XMinValue(col), 1.0, 1e-6);
}

TEST(GeometryEdgeTest, LineSegmentRegion) {
  // Equality y = x constrained to x in [0, 2]: a segment.
  std::vector<Constraint2D> seg = {
      {-1, 1, 0, Cmp::kLE}, {-1, 1, 0, Cmp::kGE},  // y = x.
      {1, 0, 0, Cmp::kGE},  {1, 0, -2, Cmp::kLE},
  };
  EXPECT_TRUE(IsSatisfiable2D(seg));
  EXPECT_NEAR(TopValue(seg, 0.0), 2.0, 1e-6);
  EXPECT_NEAR(BotValue(seg, 0.0), 0.0, 1e-6);
  EXPECT_NEAR(TopValue(seg, 1.0), 0.0, 1e-6);  // y - x == 0 on the line.
  EXPECT_NEAR(BotValue(seg, 1.0), 0.0, 1e-6);
  Polyhedron2D p = Polyhedron2D::FromConstraints(seg);
  EXPECT_TRUE(p.bounded);
}

TEST(GeometryEdgeTest, FullLineRegionIsNotPointed) {
  std::vector<Constraint2D> line = {
      {-1, 1, -3, Cmp::kLE}, {-1, 1, -3, Cmp::kGE},  // y = x + 3.
  };
  Polyhedron2D p = Polyhedron2D::FromConstraints(line);
  EXPECT_TRUE(p.feasible);
  EXPECT_FALSE(p.bounded);
  EXPECT_FALSE(p.pointed);
  // TOP/BOT finite exactly at the line's slope.
  EXPECT_NEAR(TopValue(line, 1.0), 3.0, 1e-6);
  EXPECT_NEAR(BotValue(line, 1.0), 3.0, 1e-6);
  EXPECT_EQ(TopValue(line, 0.0), kInf);
  EXPECT_EQ(BotValue(line, 0.0), -kInf);
}

TEST(GeometryEdgeTest, SteepSlopes) {
  std::vector<Constraint2D> sq = {
      {1, 0, 0, Cmp::kGE},  {1, 0, -1, Cmp::kLE},
      {0, 1, 0, Cmp::kGE},  {0, 1, -1, Cmp::kLE},
  };
  // slope 1e3: TOP = max(y - 1000x) at (0,1) = 1; BOT at (1,0) = -1000.
  EXPECT_NEAR(TopValue(sq, 1e3), 1.0, 1e-4);
  EXPECT_NEAR(BotValue(sq, 1e3), -1000.0, 1e-4);
  EXPECT_NEAR(TopValue(sq, -1e3), 1001.0, 1e-4);
}

TEST(GeometryEdgeTest, ExactPredicatesAtTangency) {
  // Query line tangent to the unit square's top edge.
  std::vector<Constraint2D> sq = {
      {1, 0, 0, Cmp::kGE},  {1, 0, -1, Cmp::kLE},
      {0, 1, 0, Cmp::kGE},  {0, 1, -1, Cmp::kLE},
  };
  HalfPlaneQuery touch_above(0.0, 1.0, Cmp::kGE);  // y >= 1.
  EXPECT_TRUE(ExactExist(sq, touch_above));        // Shares the edge.
  EXPECT_FALSE(ExactAll(sq, touch_above));
  HalfPlaneQuery cover(0.0, 0.0, Cmp::kGE);        // y >= 0.
  EXPECT_TRUE(ExactAll(sq, cover));                // Closed containment.
}

TEST(GeometryEdgeTest, XSupportOfUnboundedRegions) {
  std::vector<Constraint2D> right = {{1, 0, -2, Cmp::kGE}};  // x >= 2.
  EXPECT_EQ(XMaxValue(right), kInf);
  EXPECT_NEAR(XMinValue(right), 2.0, 1e-6);
  std::vector<Constraint2D> plane;
  EXPECT_EQ(XMaxValue(plane), kInf);
  EXPECT_EQ(XMinValue(plane), -kInf);
  std::vector<Constraint2D> bad = {{1, 0, 0, Cmp::kGE}, {1, 0, 1, Cmp::kLE}};
  EXPECT_TRUE(std::isnan(XMaxValue(bad)));
}

TEST(GeometryEdgeTest, IntervalExtremaDegenerateInterval) {
  std::vector<Constraint2D> sq = {
      {1, 0, 0, Cmp::kGE},  {1, 0, -1, Cmp::kLE},
      {0, 1, 0, Cmp::kGE},  {0, 1, -1, Cmp::kLE},
  };
  // Zero-width interval: all four extrema collapse to point evaluations.
  EXPECT_NEAR(MaxTopOverInterval(sq, 0.5, 0.5), TopValue(sq, 0.5), 1e-6);
  EXPECT_NEAR(MinBotOverInterval(sq, 0.5, 0.5), BotValue(sq, 0.5), 1e-6);
  EXPECT_NEAR(MaxBotOverInterval(sq, 0.5, 0.5), BotValue(sq, 0.5), 1e-5);
  EXPECT_NEAR(MinTopOverInterval(sq, 0.5, 0.5), TopValue(sq, 0.5), 1e-5);
}

// The support arithmetic has no bounding box: regions beyond the former
// LP box (|x|, |y| <= 1e9) keep their exact support values.
TEST(GeometryEdgeTest, SupportBeyondTheFormerLpBox) {
  // Triangle (-5e9, 0), (5e9, 0), (0, 5e9).
  std::vector<Constraint2D> spike = {
      {0, 1, 0, Cmp::kGE},        // y >= 0
      {1, 1, -5e9, Cmp::kLE},     // x + y <= 5e9
      {-1, 1, -5e9, Cmp::kLE},    // -x + y <= 5e9
  };
  EXPECT_EQ(TopValue(spike, 0.0), 5e9);
  EXPECT_EQ(BotValue(spike, 0.0), 0.0);
  Rect r;
  ASSERT_TRUE(BoundingRect(spike, &r));
  EXPECT_EQ(r.yhi, 5e9);

  // A needle: apex half-angle 2e-10 rad is still a genuine angle, so the
  // region stays bounded rather than growing a ray.
  std::vector<Constraint2D> needle = {
      {0, 1, 0, Cmp::kGE},
      {5e9, 1, -5e9, Cmp::kLE},
      {-5e9, 1, -5e9, Cmp::kLE},
  };
  EXPECT_TRUE(Polyhedron2D::FromConstraints(needle).bounded);
  EXPECT_EQ(TopValue(needle, 0.0), 5e9);

  // The box 2e9 <= x <= 3e9, 0 <= y <= 1 lies wholly outside the old box.
  std::vector<Constraint2D> far = {
      {1, 0, -2e9, Cmp::kGE}, {1, 0, -3e9, Cmp::kLE},
      {0, 1, 0, Cmp::kGE},    {0, 1, -1, Cmp::kLE},
  };
  EXPECT_TRUE(IsSatisfiable2D(far));
  EXPECT_EQ(XMinValue(far), 2e9);
  EXPECT_EQ(XMaxValue(far), 3e9);
  EXPECT_EQ(TopValue(far, 0.5), 1.0 - 0.5 * 2e9);
  EXPECT_TRUE(ExactExist(far, HalfPlaneQuery(0.0, 0.5, Cmp::kGE)));
}

}  // namespace
}  // namespace cdb
