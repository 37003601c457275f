#include "geometry/dual.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/rng.h"
#include "geometry/polyhedron2d.h"

namespace cdb {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<Constraint2D> UnitSquare() {
  return {
      {1, 0, 0, Cmp::kGE},  {1, 0, -1, Cmp::kLE},
      {0, 1, 0, Cmp::kGE},  {0, 1, -1, Cmp::kLE},
  };
}

// Random bounded polygon containing (cx, cy).
std::vector<Constraint2D> RandomBoundedPolygon(Rng* rng) {
  double cx = rng->Uniform(-40, 40), cy = rng->Uniform(-40, 40);
  std::vector<Constraint2D> cons;
  // A box guarantees boundedness; extra half-planes cut corners.
  double w = rng->Uniform(1, 10), h = rng->Uniform(1, 10);
  cons.push_back({1, 0, -(cx + w), Cmp::kLE});
  cons.push_back({1, 0, -(cx - w), Cmp::kGE});
  cons.push_back({0, 1, -(cy + h), Cmp::kLE});
  cons.push_back({0, 1, -(cy - h), Cmp::kGE});
  int extra = static_cast<int>(rng->UniformInt(0, 2));
  for (int i = 0; i < extra; ++i) {
    double ang = rng->Uniform(0, 2 * M_PI);
    double a = std::cos(ang), b = std::sin(ang);
    cons.push_back(
        {a, b, -(a * cx + b * cy) - rng->Uniform(0.3, 6), Cmp::kLE});
  }
  return cons;
}

TEST(DualTransformTest, LinePointRoundTrip) {
  Vec2 dual = DualOfLine(2.0, -3.0);
  EXPECT_EQ(dual.x, 2.0);
  EXPECT_EQ(dual.y, -3.0);
  Vec2 dl = DualOfPoint({5.0, 7.0});
  EXPECT_EQ(dl.x, -5.0);
  EXPECT_EQ(dl.y, 7.0);
}

// The key duality property (Section 2.1): point p lies above line H iff
// D(H) lies below D(p).
TEST(DualTransformTest, AboveBelowReversal) {
  Rng rng(99);
  for (int i = 0; i < 500; ++i) {
    double a = rng.Uniform(-5, 5), b = rng.Uniform(-20, 20);
    Vec2 p{rng.Uniform(-20, 20), rng.Uniform(-20, 20)};
    double p_minus_line = p.y - (a * p.x + b);
    // D(H) = (a, b); D(p): y = -p.x * x + p.y evaluated at a.
    Vec2 dual_h = DualOfLine(a, b);
    Vec2 dp = DualOfPoint(p);  // slope, intercept
    double dh_minus_dp = dual_h.y - (dp.x * dual_h.x + dp.y);
    // Same magnitude, opposite side.
    EXPECT_NEAR(p_minus_line, -dh_minus_dp, 1e-9);
  }
}

TEST(TopBotTest, UnitSquareClosedForm) {
  auto sq = UnitSquare();
  // TOP(a) = max(y - a x) over square: a >= 0 -> 1 (corner (0,1));
  // a < 0 -> 1 - a (corner (1,1)).
  EXPECT_NEAR(TopValue(sq, 0.0), 1.0, 1e-6);
  EXPECT_NEAR(TopValue(sq, 2.0), 1.0, 1e-6);
  EXPECT_NEAR(TopValue(sq, -2.0), 3.0, 1e-6);
  // BOT(a) = min(y - a x): a >= 0 -> -a (corner (1,0)); a < 0 -> 0.
  EXPECT_NEAR(BotValue(sq, 0.0), 0.0, 1e-6);
  EXPECT_NEAR(BotValue(sq, 2.0), -2.0, 1e-6);
  EXPECT_NEAR(BotValue(sq, -2.0), 0.0, 1e-6);
}

TEST(TopBotTest, UnboundedAboveGivesInfiniteTop) {
  std::vector<Constraint2D> cons = {{0, 1, -3, Cmp::kGE}};  // y >= 3.
  EXPECT_EQ(TopValue(cons, 0.7), kInf);
  EXPECT_EQ(TopValue(cons, 0.0), kInf);
  // BOT is finite only at slope 0.
  EXPECT_NEAR(BotValue(cons, 0.0), 3.0, 1e-6);
  EXPECT_EQ(BotValue(cons, 0.5), -kInf);
}

TEST(TopBotTest, InfeasibleGivesNaN) {
  std::vector<Constraint2D> cons = {{1, 0, 0, Cmp::kGE}, {1, 0, 1, Cmp::kLE}};
  EXPECT_TRUE(std::isnan(TopValue(cons, 1.0)));
  EXPECT_TRUE(std::isnan(BotValue(cons, 1.0)));
}

TEST(TopBotTest, TopDominatesBot) {
  Rng rng(12345);
  for (int i = 0; i < 100; ++i) {
    auto cons = RandomBoundedPolygon(&rng);
    double s = rng.Uniform(-3, 3);
    double top = TopValue(cons, s);
    double bot = BotValue(cons, s);
    ASSERT_FALSE(std::isnan(top));
    EXPECT_GE(top, bot - 1e-6);  // Proposition 2.1.
  }
}

// Paper Example 2.1 analogue: build a concrete pentagon and verify all four
// Proposition 2.2 predicate directions against primal-space checks.
TEST(Prop22Test, MatchesPrimalSatisfiability) {
  Rng rng(4242);
  int checked = 0;
  for (int i = 0; i < 300; ++i) {
    auto cons = RandomBoundedPolygon(&rng);
    double slope = rng.Uniform(-3, 3);
    double icept = rng.Uniform(-80, 80);
    for (Cmp cmp : {Cmp::kGE, Cmp::kLE}) {
      HalfPlaneQuery q(slope, icept, cmp);
      // Primal EXIST: tuple ∧ query satisfiable.
      auto with_query = cons;
      with_query.push_back(q.AsConstraint());
      bool primal_exist =
          Polyhedron2D::FromConstraints(with_query).feasible;
      // Primal ALL: tuple ∧ ¬query (strict complement, eps-shifted)
      // unsatisfiable.
      auto with_negation = cons;
      Constraint2D neg = q.AsConstraint();
      neg.cmp = Negate(neg.cmp);
      // Shift to make the complement strict: skip near-boundary cases.
      double top = TopValue(cons, slope);
      double bot = BotValue(cons, slope);
      if (ApproxEq(top, icept, 1e-6) || ApproxEq(bot, icept, 1e-6)) continue;
      with_negation.push_back(neg);
      bool primal_all =
          !Polyhedron2D::FromConstraints(with_negation).feasible;

      EXPECT_EQ(ExactExist(cons, q), primal_exist)
          << "EXIST mismatch slope=" << slope << " b=" << icept;
      EXPECT_EQ(ExactAll(cons, q), primal_all)
          << "ALL mismatch slope=" << slope << " b=" << icept;
      ++checked;
    }
  }
  EXPECT_GT(checked, 400);
}

TEST(Prop22Test, AllImpliesExist) {
  Rng rng(777);
  for (int i = 0; i < 200; ++i) {
    auto cons = RandomBoundedPolygon(&rng);
    HalfPlaneQuery q(rng.Uniform(-3, 3), rng.Uniform(-80, 80),
                     rng.Chance(0.5) ? Cmp::kGE : Cmp::kLE);
    if (ExactAll(cons, q)) {
      EXPECT_TRUE(ExactExist(cons, q));
    }
  }
}

TEST(IntervalExtremaTest, CheapBoundsAreExactForTopMaxBotMin) {
  Rng rng(31337);
  for (int i = 0; i < 100; ++i) {
    auto cons = RandomBoundedPolygon(&rng);
    double s1 = rng.Uniform(-2, 0), s2 = s1 + rng.Uniform(0.1, 2);
    double max_top = MaxTopOverInterval(cons, s1, s2);
    double min_bot = MinBotOverInterval(cons, s1, s2);
    // Dense sampling never exceeds the endpoint extrema (convexity).
    for (int k = 0; k <= 20; ++k) {
      double s = s1 + (s2 - s1) * k / 20.0;
      EXPECT_LE(TopValue(cons, s), max_top + 1e-6);
      EXPECT_GE(BotValue(cons, s), min_bot - 1e-6);
    }
  }
}

TEST(IntervalExtremaTest, TightBotMaxDominatesSamplesAndIsAttained) {
  Rng rng(555);
  for (int i = 0; i < 100; ++i) {
    auto cons = RandomBoundedPolygon(&rng);
    double s1 = rng.Uniform(-2, 0), s2 = s1 + rng.Uniform(0.1, 2);
    double tight = MaxBotOverInterval(cons, s1, s2);
    double sampled = -kInf;
    for (int k = 0; k <= 40; ++k) {
      double s = s1 + (s2 - s1) * k / 40.0;
      sampled = std::max(sampled, BotValue(cons, s));
    }
    EXPECT_GE(tight, sampled - 1e-6) << "tight bound must dominate samples";
    EXPECT_LE(tight, sampled + 0.5) << "tight bound should be near the "
                                       "sampled max for smooth cases";
    // Tight is never above the safe TOP-based bound.
    EXPECT_LE(tight, MaxTopOverInterval(cons, s1, s2) + 1e-6);
  }
}

TEST(IntervalExtremaTest, TightTopMinSymmetric) {
  Rng rng(556);
  for (int i = 0; i < 100; ++i) {
    auto cons = RandomBoundedPolygon(&rng);
    double s1 = rng.Uniform(-2, 0), s2 = s1 + rng.Uniform(0.1, 2);
    double tight = MinTopOverInterval(cons, s1, s2);
    double sampled = kInf;
    for (int k = 0; k <= 40; ++k) {
      double s = s1 + (s2 - s1) * k / 40.0;
      sampled = std::min(sampled, TopValue(cons, s));
    }
    EXPECT_LE(tight, sampled + 1e-6);
    EXPECT_GE(tight, MinBotOverInterval(cons, s1, s2) - 1e-6);
  }
}

TEST(IntervalExtremaTest, NonPointedFallsBackSafely) {
  // Strip 1 <= y <= 2: BOT(s) finite only at s=0; MaxBot falls back to
  // MaxTop (which is 2 at s=0, +inf elsewhere... TOP(s) for the strip is
  // +inf except s=0 where it is 2; endpoints nonzero -> +inf, safe).
  std::vector<Constraint2D> strip = {
      {0, 1, -1, Cmp::kGE},
      {0, 1, -2, Cmp::kLE},
  };
  double v = MaxBotOverInterval(strip, -1.0, 1.0);
  EXPECT_EQ(v, kInf);  // Conservative but safe.
}

}  // namespace
}  // namespace cdb
