#include "geometry/lpd.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "geometry/dual.h"
#include "geometry/polyhedron2d.h"

namespace cdb {
namespace {

// d-dimensional axis-aligned box [lo, hi]^d.
std::vector<ConstraintD> BoxD(size_t d, double lo, double hi) {
  std::vector<ConstraintD> cons;
  for (size_t i = 0; i < d; ++i) {
    std::vector<double> up(d, 0.0), down(d, 0.0);
    up[i] = 1.0;
    down[i] = 1.0;
    cons.emplace_back(up, -hi, Cmp::kLE);
    cons.emplace_back(down, -lo, Cmp::kGE);
  }
  return cons;
}

TEST(LpDTest, BoxOptimum3D) {
  auto cons = BoxD(3, -1, 2);
  LpDResult r = MaximizeLinearD(cons, {1, 1, 1});
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.value, 6.0, 1e-6);
  r = MaximizeLinearD(cons, {-1, 2, 0});
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.value, 1.0 + 4.0, 1e-6);
}

TEST(LpDTest, Infeasible) {
  std::vector<ConstraintD> cons = {
      {{1, 0, 0}, 0, Cmp::kGE},   // x >= 0
      {{1, 0, 0}, 1, Cmp::kLE},   // x <= -1
  };
  EXPECT_EQ(MaximizeLinearD(cons, {1, 0, 0}).status, LpStatus::kInfeasible);
  EXPECT_FALSE(IsSatisfiableD(cons, 3));
}

TEST(LpDTest, UnboundedDirection) {
  // Only a floor: z >= 0, maximize z is unbounded, minimize z is 0.
  std::vector<ConstraintD> cons = {{{0, 0, 1}, 0, Cmp::kGE}};
  EXPECT_EQ(MaximizeLinearD(cons, {0, 0, 1}).status, LpStatus::kUnbounded);
  LpDResult r = MaximizeLinearD(cons, {0, 0, -1});
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.value, 0.0, 1e-6);
}

TEST(LpDTest, NegativeCoordinatesReachable) {
  // Variables are free; optimum at x = (-3, -4).
  std::vector<ConstraintD> cons = {
      {{1, 0}, 3, Cmp::kLE},   // x <= -3
      {{0, 1}, 4, Cmp::kLE},   // y <= -4
  };
  LpDResult r = MaximizeLinearD(cons, {1, 1});
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.value, -7.0, 1e-6);
  EXPECT_NEAR(r.point[0], -3.0, 1e-6);
  EXPECT_NEAR(r.point[1], -4.0, 1e-6);
}

// Cross-validation: in 2 dimensions the simplex must agree with the
// geometry oracle (Polyhedron2D) on status and value.
TEST(LpDTest, AgreesWithLp2DOnRandomPrograms) {
  Rng rng(1618);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<Constraint2D> cons2;
    std::vector<ConstraintD> consd;
    int m = static_cast<int>(rng.UniformInt(1, 6));
    for (int i = 0; i < m; ++i) {
      double a = rng.Uniform(-3, 3), b = rng.Uniform(-3, 3);
      double c = rng.Uniform(-10, 10);
      Cmp cmp = rng.Chance(0.5) ? Cmp::kLE : Cmp::kGE;
      cons2.push_back({a, b, c, cmp});
      consd.push_back({{a, b}, c, cmp});
    }
    double ox = rng.Uniform(-2, 2), oy = rng.Uniform(-2, 2);
    const double v2 =
        Polyhedron2D::FromConstraints(cons2).view().Maximize(ox, oy);
    const LpStatus s2 = std::isnan(v2)   ? LpStatus::kInfeasible
                        : std::isinf(v2) ? LpStatus::kUnbounded
                                         : LpStatus::kOptimal;
    LpDResult rd = MaximizeLinearD(consd, {ox, oy});
    EXPECT_EQ(static_cast<int>(s2), static_cast<int>(rd.status))
        << "trial " << trial;
    if (s2 == LpStatus::kOptimal && rd.status == LpStatus::kOptimal) {
      EXPECT_NEAR(v2, rd.value, 1e-5) << "trial " << trial;
    }
  }
}

TEST(LpDTest, TopBotAgreeWith2DEvaluator) {
  Rng rng(271828);
  for (int trial = 0; trial < 150; ++trial) {
    // Bounded random polygon around a center.
    double cx = rng.Uniform(-30, 30), cy = rng.Uniform(-30, 30);
    std::vector<Constraint2D> cons2;
    std::vector<ConstraintD> consd;
    double w = rng.Uniform(1, 8), h = rng.Uniform(1, 8);
    auto add = [&](double a, double b, double c, Cmp cmp) {
      cons2.push_back({a, b, c, cmp});
      consd.push_back({{a, b}, c, cmp});
    };
    add(1, 0, -(cx + w), Cmp::kLE);
    add(1, 0, -(cx - w), Cmp::kGE);
    add(0, 1, -(cy + h), Cmp::kLE);
    add(0, 1, -(cy - h), Cmp::kGE);
    double s = rng.Uniform(-3, 3);
    EXPECT_NEAR(TopValueD(consd, {s}), TopValue(cons2, s), 1e-5);
    EXPECT_NEAR(BotValueD(consd, {s}), BotValue(cons2, s), 1e-5);
  }
}

TEST(LpDTest, Prop22PredicatesIn3D) {
  // Axis box in 3-D; queries x3 θ s1*x1 + s2*x2 + b.
  auto cons = BoxD(3, 0, 1);
  // TOP(s1,s2) = max(x3 - s1 x1 - s2 x2); for s1,s2 >= 0 it is 1 at origin
  // corner; BOT = -s1 - s2 at (1,1,0).
  HalfPlaneQueryD q_all;
  q_all.slope = {0.5, 0.5};
  q_all.intercept = -1.1;
  q_all.cmp = Cmp::kGE;
  EXPECT_TRUE(ExactAllD(cons, q_all));  // b = -1.1 <= BOT = -1.0.
  q_all.intercept = -0.9;
  EXPECT_FALSE(ExactAllD(cons, q_all));
  EXPECT_TRUE(ExactExistD(cons, q_all));  // -0.9 <= TOP = 1.
  q_all.intercept = 1.5;
  EXPECT_FALSE(ExactExistD(cons, q_all));  // Above TOP.
}

TEST(LpDTest, DegenerateEqualityConjunction) {
  // x = 1 expressed as two inequalities, plus y free; maximize y -> unbounded,
  // maximize -x -> -1.
  std::vector<ConstraintD> cons = {
      {{1, 0}, -1, Cmp::kLE},
      {{1, 0}, -1, Cmp::kGE},
  };
  EXPECT_EQ(MaximizeLinearD(cons, {0, 1}).status, LpStatus::kUnbounded);
  LpDResult r = MaximizeLinearD(cons, {-1, 0});
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.value, -1.0, 1e-6);
}

}  // namespace
}  // namespace cdb
