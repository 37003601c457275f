#include "geometry/dual.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/float_cmp.h"

namespace cdb {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

Polyhedron2D Build(const std::vector<Constraint2D>& constraints) {
  return Polyhedron2D::FromConstraints(constraints);
}

}  // namespace

double TopValue(const Polyhedron2DView& poly, double slope) {
  return poly.Maximize(-slope, 1.0);
}

double BotValue(const Polyhedron2DView& poly, double slope) {
  return -poly.Maximize(slope, -1.0);
}

double XMaxValue(const Polyhedron2DView& poly) {
  return poly.Maximize(1.0, 0.0);
}

double XMinValue(const Polyhedron2DView& poly) {
  return -poly.Maximize(-1.0, 0.0);
}

bool ExactAll(const Polyhedron2DView& poly, const HalfPlaneQuery& q) {
  if (q.cmp == Cmp::kGE) {
    double bot = BotValue(poly, q.slope);
    return !std::isnan(bot) && LessOrEq(q.intercept, bot);
  }
  double top = TopValue(poly, q.slope);
  return !std::isnan(top) && GreaterOrEq(q.intercept, top);
}

bool ExactExist(const Polyhedron2DView& poly, const HalfPlaneQuery& q) {
  if (q.cmp == Cmp::kGE) {
    double top = TopValue(poly, q.slope);
    return !std::isnan(top) && LessOrEq(q.intercept, top);
  }
  double bot = BotValue(poly, q.slope);
  return !std::isnan(bot) && GreaterOrEq(q.intercept, bot);
}

double MaxTopOverInterval(const Polyhedron2DView& poly, double s1,
                          double s2) {
  double a = TopValue(poly, s1);
  double b = TopValue(poly, s2);
  if (std::isnan(a) || std::isnan(b)) return kNaN;
  return std::max(a, b);
}

double MinBotOverInterval(const Polyhedron2DView& poly, double s1,
                          double s2) {
  double a = BotValue(poly, s1);
  double b = BotValue(poly, s2);
  if (std::isnan(a) || std::isnan(b)) return kNaN;
  return std::min(a, b);
}

namespace {

// The minimax region over (s, z), as half-planes built from the
// V-representation. For the BOT case, maximize z subject to
//   z <= v_y - s * v_x              for every vertex v (BOT is the min)
//   s * d_x - d_y <= 0              for every ray d (BOT finite at s)
//   s1 <= s <= s2.
// For the TOP case signs flip (minimize z, z >= ..., rays bound above).
// The region's vertices are the envelope's breakpoints inside the interval
// and its ends, so the optimum is the best of them.
double IntervalMinimax(const Polyhedron2DView& poly, double s1, double s2,
                       bool bot_case) {
  std::vector<Constraint2D> lines;
  lines.reserve(poly.points.size() + poly.rays.size() + 2);
  for (const Vec2& v : poly.points) {
    if (bot_case) {
      // z - v_y + s*v_x <= 0  ->  (a=v_x)s + (b=1)z + (c=-v_y) <= 0.
      lines.emplace_back(v.x, 1.0, -v.y, Cmp::kLE);
    } else {
      // v_y - s*v_x - z <= 0  ->  (a=-v_x)s + (b=-1)z + (c=v_y) <= 0.
      lines.emplace_back(-v.x, -1.0, v.y, Cmp::kLE);
    }
  }
  for (const Vec2& d : poly.rays) {
    if (bot_case) {
      // Finiteness of BOT at s: d_y - s*d_x >= 0  ->  s*d_x - d_y <= 0.
      lines.emplace_back(d.x, 0.0, -d.y, Cmp::kLE);
    } else {
      // Finiteness of TOP at s: d_y - s*d_x <= 0  ->  -s*d_x + d_y <= 0.
      lines.emplace_back(-d.x, 0.0, d.y, Cmp::kLE);
    }
  }
  lines.emplace_back(1.0, 0.0, -s2, Cmp::kLE);  // s <= s2
  lines.emplace_back(1.0, 0.0, -s1, Cmp::kGE);  // s >= s1

  Polyhedron2D region = Polyhedron2D::FromConstraints(lines);
  if (!region.feasible) {
    // The surface is infinite over the whole interval.
    return bot_case ? -kInf : kInf;
  }
  double z = region.view().Maximize(0.0, bot_case ? 1.0 : -1.0);
  // An unbounded optimum cannot happen with a vertex line; be conservative.
  if (std::isinf(z)) return bot_case ? kInf : -kInf;
  return bot_case ? z : -z;
}

}  // namespace

double MaxBotOverInterval(const Polyhedron2DView& poly, double s1,
                          double s2) {
  if (!poly.feasible) return kNaN;
  if (!poly.pointed) {
    return MaxTopOverInterval(poly, s1, s2);  // Safe dominating bound.
  }
  return IntervalMinimax(poly, s1, s2, /*bot_case=*/true);
}

double MinTopOverInterval(const Polyhedron2DView& poly, double s1,
                          double s2) {
  if (!poly.feasible) return kNaN;
  if (!poly.pointed) {
    return MinBotOverInterval(poly, s1, s2);  // Safe dominated bound.
  }
  return IntervalMinimax(poly, s1, s2, /*bot_case=*/false);
}

// --- Constraint-vector forms ------------------------------------------------

double TopValue(const std::vector<Constraint2D>& constraints, double slope) {
  return TopValue(Build(constraints).view(), slope);
}

double BotValue(const std::vector<Constraint2D>& constraints, double slope) {
  return BotValue(Build(constraints).view(), slope);
}

double XMaxValue(const std::vector<Constraint2D>& constraints) {
  return XMaxValue(Build(constraints).view());
}

double XMinValue(const std::vector<Constraint2D>& constraints) {
  return XMinValue(Build(constraints).view());
}

bool ExactAll(const std::vector<Constraint2D>& constraints,
              const HalfPlaneQuery& q) {
  return ExactAll(Build(constraints).view(), q);
}

bool ExactExist(const std::vector<Constraint2D>& constraints,
                const HalfPlaneQuery& q) {
  return ExactExist(Build(constraints).view(), q);
}

double MaxTopOverInterval(const std::vector<Constraint2D>& constraints,
                          double s1, double s2) {
  return MaxTopOverInterval(Build(constraints).view(), s1, s2);
}

double MinBotOverInterval(const std::vector<Constraint2D>& constraints,
                          double s1, double s2) {
  return MinBotOverInterval(Build(constraints).view(), s1, s2);
}

double MaxBotOverInterval(const std::vector<Constraint2D>& constraints,
                          double s1, double s2) {
  return MaxBotOverInterval(Build(constraints).view(), s1, s2);
}

double MinTopOverInterval(const std::vector<Constraint2D>& constraints,
                          double s1, double s2) {
  return MinTopOverInterval(Build(constraints).view(), s1, s2);
}

}  // namespace cdb
