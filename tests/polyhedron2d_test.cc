#include "geometry/polyhedron2d.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.h"

namespace cdb {
namespace {

std::vector<Constraint2D> UnitSquare() {
  return {
      {1, 0, 0, Cmp::kGE},  {1, 0, -1, Cmp::kLE},
      {0, 1, 0, Cmp::kGE},  {0, 1, -1, Cmp::kLE},
  };
}

bool HasVertex(const Polyhedron2D& p, double x, double y) {
  return std::any_of(p.vertices.begin(), p.vertices.end(), [&](const Vec2& v) {
    return ApproxEq(v.x, x, 1e-6) && ApproxEq(v.y, y, 1e-6);
  });
}

TEST(Polyhedron2DTest, UnitSquareVertices) {
  Polyhedron2D p = Polyhedron2D::FromConstraints(UnitSquare());
  EXPECT_TRUE(p.feasible);
  EXPECT_TRUE(p.bounded);
  EXPECT_TRUE(p.pointed);
  ASSERT_EQ(p.vertices.size(), 4u);
  EXPECT_TRUE(HasVertex(p, 0, 0));
  EXPECT_TRUE(HasVertex(p, 1, 0));
  EXPECT_TRUE(HasVertex(p, 1, 1));
  EXPECT_TRUE(HasVertex(p, 0, 1));
  EXPECT_TRUE(p.rays.empty());
}

TEST(Polyhedron2DTest, VerticesKeepPairEnumerationOrder) {
  // Vertices come in the order their constraint pairs (i < j) are
  // enumerated, the order that decides which of equal maxima a support
  // value reports: (x>=0, y>=0), (x>=0, y<=1), (x<=1, y>=0), (x<=1, y<=1).
  Polyhedron2D p = Polyhedron2D::FromConstraints(UnitSquare());
  ASSERT_EQ(p.vertices.size(), 4u);
  const Vec2 want[4] = {{0, 0}, {0, 1}, {1, 0}, {1, 1}};
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(p.vertices[i].x, want[i].x) << i;
    EXPECT_EQ(p.vertices[i].y, want[i].y) << i;
  }
}

TEST(Polyhedron2DTest, InfeasibleConjunction) {
  std::vector<Constraint2D> cons = {{1, 1, 0, Cmp::kGE}, {1, 1, 1, Cmp::kLE}};
  Polyhedron2D p = Polyhedron2D::FromConstraints(cons);
  EXPECT_FALSE(p.feasible);
}

TEST(Polyhedron2DTest, UnboundedWedgeHasRaysAndApex) {
  // Wedge from apex (1, 2) opening along +x: y <= x + 1, y >= -x + 3.
  std::vector<Constraint2D> cons = {
      {-1, 1, -1, Cmp::kLE},
      {1, 1, -3, Cmp::kGE},
  };
  Polyhedron2D p = Polyhedron2D::FromConstraints(cons);
  EXPECT_TRUE(p.feasible);
  EXPECT_FALSE(p.bounded);
  EXPECT_TRUE(p.pointed);
  ASSERT_EQ(p.vertices.size(), 1u);
  EXPECT_TRUE(HasVertex(p, 1, 2));
  ASSERT_EQ(p.rays.size(), 2u);
  // Extreme rays along the wedge edges: (1,1)/sqrt2 and (1,-1)/sqrt2.
  for (const Vec2& r : p.rays) {
    EXPECT_NEAR(std::fabs(r.y), std::sqrt(0.5), 1e-6);
    EXPECT_NEAR(r.x, std::sqrt(0.5), 1e-6);
  }
}

TEST(Polyhedron2DTest, HalfPlaneIsNotPointed) {
  std::vector<Constraint2D> cons = {{0, 1, -3, Cmp::kGE}};  // y >= 3.
  Polyhedron2D p = Polyhedron2D::FromConstraints(cons);
  EXPECT_TRUE(p.feasible);
  EXPECT_FALSE(p.bounded);
  EXPECT_FALSE(p.pointed);
  EXPECT_TRUE(p.vertices.empty());
}

TEST(Polyhedron2DTest, StripIsNotPointed) {
  std::vector<Constraint2D> cons = {
      {0, 1, -1, Cmp::kGE},
      {0, 1, -2, Cmp::kLE},
  };
  Polyhedron2D p = Polyhedron2D::FromConstraints(cons);
  EXPECT_TRUE(p.feasible);
  EXPECT_FALSE(p.bounded);
  EXPECT_FALSE(p.pointed);
}

TEST(Polyhedron2DTest, WholePlane) {
  Polyhedron2D p = Polyhedron2D::FromConstraints({});
  EXPECT_TRUE(p.feasible);
  EXPECT_FALSE(p.bounded);
  EXPECT_FALSE(p.pointed);
  EXPECT_FALSE(p.rays.empty());
}

TEST(Polyhedron2DTest, BoundingRectOfTriangle) {
  std::vector<Constraint2D> cons = {
      {1, 0, 2, Cmp::kGE},        // x >= -2
      {0, 1, 0, Cmp::kGE},        // y >= 0
      {1, 1, -3, Cmp::kLE},       // x + y <= 3
  };
  Rect r;
  ASSERT_TRUE(BoundingRect(cons, &r));
  EXPECT_NEAR(r.xlo, -2, 1e-6);
  EXPECT_NEAR(r.ylo, 0, 1e-6);
  EXPECT_NEAR(r.xhi, 3, 1e-6);
  EXPECT_NEAR(r.yhi, 5, 1e-6);
}

TEST(Polyhedron2DTest, BoundingRectRejectsUnbounded) {
  Rect r;
  EXPECT_FALSE(BoundingRect({{0, 1, -3, Cmp::kGE}}, &r));
}

TEST(Polyhedron2DTest, BoundingRectRejectsInfeasible) {
  Rect r;
  EXPECT_FALSE(BoundingRect({{1, 0, 0, Cmp::kGE}, {1, 0, 1, Cmp::kLE}}, &r));
}

TEST(Polyhedron2DTest, ContainsPoint) {
  auto sq = UnitSquare();
  EXPECT_TRUE(ContainsPoint(sq, {0.5, 0.5}));
  EXPECT_TRUE(ContainsPoint(sq, {0, 0}));  // Boundary counts.
  EXPECT_FALSE(ContainsPoint(sq, {1.5, 0.5}));
}

// Property: every enumerated vertex satisfies all constraints and the
// bounding rect encloses all vertices; random sampled feasible points lie
// inside the bounding rect too.
TEST(Polyhedron2DTest, RandomizedVertexAndRectConsistency) {
  Rng rng(7);
  for (int trial = 0; trial < 150; ++trial) {
    double cx = rng.Uniform(-40, 40), cy = rng.Uniform(-40, 40);
    std::vector<Constraint2D> cons;
    int m = static_cast<int>(rng.UniformInt(3, 6));
    for (int i = 0; i < m; ++i) {
      double ang = rng.Uniform(0, 2 * M_PI);
      double a = std::cos(ang), b = std::sin(ang);
      double offset = rng.Uniform(0.5, 8);
      // Half-plane containing the center point (cx, cy).
      cons.push_back({a, b, -(a * cx + b * cy) - offset, Cmp::kLE});
    }
    Polyhedron2D p = Polyhedron2D::FromConstraints(cons);
    ASSERT_TRUE(p.feasible) << "center point construction keeps feasibility";
    for (const Vec2& v : p.vertices) {
      EXPECT_TRUE(ContainsPoint(cons, v)) << "trial " << trial;
    }
    Rect r;
    if (BoundingRect(cons, &r)) {
      EXPECT_TRUE(p.bounded);
      for (const Vec2& v : p.vertices) {
        EXPECT_GE(v.x, r.xlo - 1e-6);
        EXPECT_LE(v.x, r.xhi + 1e-6);
        EXPECT_GE(v.y, r.ylo - 1e-6);
        EXPECT_LE(v.y, r.yhi + 1e-6);
      }
    } else {
      EXPECT_FALSE(p.bounded);
    }
  }
}

}  // namespace
}  // namespace cdb
