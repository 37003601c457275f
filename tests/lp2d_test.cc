// 2-variable linear programs, answered by the geometry oracle directly:
// Polyhedron2D::FromConstraints builds the V-representation of the
// conjunction and Maximize reads one support value from it.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "geometry/polyhedron2d.h"

namespace cdb {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// max cx*x + cy*y over `cons`: NaN when infeasible, +inf when unbounded.
// `at`, if given, receives the maximizing point.
double Max(const std::vector<Constraint2D>& cons, double cx, double cy,
           Vec2* at = nullptr) {
  return Polyhedron2D::FromConstraints(cons).view().Maximize(cx, cy, at);
}

bool Satisfiable(const std::vector<Constraint2D>& cons) {
  return Polyhedron2D::FromConstraints(cons).feasible;
}

// Triangle with vertices (0,0), (4,0), (0,4):
//   x >= 0, y >= 0, x + y <= 4.
std::vector<Constraint2D> Triangle() {
  return {
      {1, 0, 0, Cmp::kGE},
      {0, 1, 0, Cmp::kGE},
      {1, 1, -4, Cmp::kLE},
  };
}

TEST(Lp2DTest, OptimalAtTriangleVertex) {
  // max x + y = 4 along the hypotenuse.
  EXPECT_NEAR(Max(Triangle(), 1.0, 1.0), 4.0, 1e-6);

  // max y hits (0, 4).
  EXPECT_NEAR(Max(Triangle(), 0.0, 1.0), 4.0, 1e-6);

  // max -x - y hits the origin.
  Vec2 at;
  EXPECT_NEAR(Max(Triangle(), -1.0, -1.0, &at), 0.0, 1e-6);
  EXPECT_NEAR(at.x, 0.0, 1e-6);
  EXPECT_NEAR(at.y, 0.0, 1e-6);
}

TEST(Lp2DTest, InfeasibleConjunction) {
  std::vector<Constraint2D> cons = {
      {1, 0, 0, Cmp::kGE},   // x >= 0
      {1, 0, 1, Cmp::kLE},   // x <= -1
  };
  EXPECT_TRUE(std::isnan(Max(cons, 1.0, 0.0)));
  EXPECT_FALSE(Satisfiable(cons));
}

TEST(Lp2DTest, UnboundedHalfPlane) {
  std::vector<Constraint2D> cons = {{0, 1, -3, Cmp::kGE}};  // y >= 3.
  EXPECT_EQ(Max(cons, 0.0, 1.0), kInf);
  // Minimizing y over y >= 3 is bounded: value -3 at y = 3.
  EXPECT_NEAR(Max(cons, 0.0, -1.0), -3.0, 1e-6);
  // x is unbounded in both directions.
  EXPECT_EQ(Max(cons, 1.0, 0.0), kInf);
}

TEST(Lp2DTest, StripIsVertexFree) {
  // 1 <= y <= 2, all x: maximize y must still find 2.
  std::vector<Constraint2D> cons = {
      {0, 1, -1, Cmp::kGE},
      {0, 1, -2, Cmp::kLE},
  };
  EXPECT_NEAR(Max(cons, 0.0, 1.0), 2.0, 1e-6);
  EXPECT_EQ(Max(cons, 1.0, 0.0), kInf);
  // Diagonal objective escapes along the strip.
  EXPECT_EQ(Max(cons, 1.0, 1.0), kInf);
}

TEST(Lp2DTest, WholePlane) {
  std::vector<Constraint2D> cons;
  EXPECT_TRUE(Satisfiable(cons));
  EXPECT_EQ(Max(cons, 1.0, 2.0), kInf);
  // Zero objective over the whole plane is trivially optimal at 0.
  EXPECT_NEAR(Max(cons, 0.0, 0.0), 0.0, 1e-9);
}

TEST(Lp2DTest, SinglePointRegion) {
  // x = 2 (two inequalities), y = -1.
  std::vector<Constraint2D> cons = {
      {1, 0, -2, Cmp::kLE}, {1, 0, -2, Cmp::kGE},
      {0, 1, 1, Cmp::kLE},  {0, 1, 1, Cmp::kGE},
  };
  EXPECT_NEAR(Max(cons, 3.0, 5.0), 3.0 * 2 + 5.0 * -1, 1e-6);
}

TEST(Lp2DTest, UnboundedWedge) {
  // Cone opening to +x: y <= x, y >= -x.
  std::vector<Constraint2D> cons = {
      {-1, 1, 0, Cmp::kLE},
      {1, 1, 0, Cmp::kGE},
  };
  EXPECT_EQ(Max(cons, 1.0, 0.0), kInf);
  // max -x is bounded at the apex (0,0).
  EXPECT_NEAR(Max(cons, -1.0, 0.0), 0.0, 1e-6);
}

// Property: on random bounded polygons the LP optimum dominates every
// sampled feasible point and is attained (within tolerance) by some corner
// of the sampled hull.
TEST(Lp2DTest, RandomizedDominatesSampledPoints) {
  Rng rng(20260704);
  for (int trial = 0; trial < 200; ++trial) {
    // Random box plus random cutting half-planes through it; box keeps the
    // region bounded.
    double cx0 = rng.Uniform(-40, 40), cy0 = rng.Uniform(-40, 40);
    double w = rng.Uniform(1, 20), h = rng.Uniform(1, 20);
    std::vector<Constraint2D> cons = {
        {1, 0, -(cx0 + w), Cmp::kLE},
        {1, 0, -cx0, Cmp::kGE},
        {0, 1, -(cy0 + h), Cmp::kLE},
        {0, 1, -cy0, Cmp::kGE},
    };
    int extra = static_cast<int>(rng.UniformInt(0, 3));
    for (int e = 0; e < extra; ++e) {
      double a = rng.Uniform(-2, 2), b = rng.Uniform(-2, 2);
      // Cut through the box center so the region stays non-empty.
      double mx = cx0 + w / 2, my = cy0 + h / 2;
      double c = -(a * mx + b * my) - rng.Uniform(0, 3);
      cons.push_back({a, b, c, Cmp::kLE});
    }
    double ox = rng.Uniform(-1, 1), oy = rng.Uniform(-1, 1);
    Vec2 at;
    const double best = Max(cons, ox, oy, &at);
    ASSERT_TRUE(std::isfinite(best)) << "trial " << trial;
    // Monte-Carlo feasible samples must not beat the optimum.
    for (int s = 0; s < 300; ++s) {
      Vec2 p{rng.Uniform(cx0, cx0 + w), rng.Uniform(cy0, cy0 + h)};
      bool feas = true;
      for (const auto& c : cons) feas = feas && c.Satisfies(p);
      if (!feas) continue;
      EXPECT_LE(ox * p.x + oy * p.y, best + 1e-6)
          << "trial " << trial << " sample beats LP optimum";
    }
    // The reported optimal point is feasible.
    for (const auto& c : cons) {
      EXPECT_TRUE(c.Satisfies(at, 1e-6)) << "trial " << trial;
    }
  }
}

}  // namespace
}  // namespace cdb
