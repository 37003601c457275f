#include "dualindex/app_query.h"

#include <cassert>
#include <cmath>

namespace cdb {

namespace {

// Angular distance between two slopes, in line-angle space (period pi).
// Used to decide which app-query is "nearer" in the wrap-around cases.
double AngleDistance(double a1, double a2) {
  double d = std::fabs(std::atan(a1) - std::atan(a2));
  return std::min(d, M_PI - d);
}

}  // namespace

std::array<AppQuery, 2> PlanAppQueries(const SlopeSet& slopes,
                                       SelectionType type,
                                       const HalfPlaneQuery& q,
                                       double anchor_x) {
  const SlopeLocation loc = slopes.Locate(q.slope);
  assert(loc.kind != SlopeLocation::Kind::kExact);

  // a1 = slope reached by clockwise rotation of the query line, a2 by
  // anti-clockwise rotation; rotations wrap through the vertical (Table 1).
  size_t i1, i2;
  Cmp theta1, theta2;
  switch (loc.kind) {
    case SlopeLocation::Kind::kBetween:
      // a1 < a < a2 — row 1: both operators keep θ.
      i1 = loc.index;
      i2 = loc.index + 1;
      theta1 = q.cmp;
      theta2 = q.cmp;
      break;
    case SlopeLocation::Kind::kAboveMax:
      // Clockwise reaches max(S) < a; anti-clockwise wraps through the
      // vertical to min(S) < a — row 2: θ1 = θ, θ2 = ¬θ.
      i1 = slopes.size() - 1;
      i2 = 0;
      theta1 = q.cmp;
      theta2 = Negate(q.cmp);
      break;
    case SlopeLocation::Kind::kBelowMin:
    default:
      // Clockwise wraps through the vertical to max(S) > a; anti-clockwise
      // reaches min(S) > a — row 3: θ1 = ¬θ, θ2 = θ.
      i1 = slopes.size() - 1;
      i2 = 0;
      theta1 = Negate(q.cmp);
      theta2 = q.cmp;
      break;
  }

  // Both app-query lines pass through the shared point P on the query line.
  double py = q.slope * anchor_x + q.intercept;
  double b1 = py - slopes.slope(i1) * anchor_x;
  double b2 = py - slopes.slope(i2) * anchor_x;

  // Query types: EXIST -> EXIST + EXIST. ALL -> ALL on the angularly nearer
  // app-query, EXIST on the other (Section 4.1 / Figure 4).
  SelectionType t1 = SelectionType::kExist, t2 = SelectionType::kExist;
  if (type == SelectionType::kAll) {
    bool first_nearer = AngleDistance(q.slope, slopes.slope(i1)) <=
                        AngleDistance(q.slope, slopes.slope(i2));
    (first_nearer ? t1 : t2) = SelectionType::kAll;
  }

  return {{{i1, t1, theta1, b1}, {i2, t2, theta2, b2}}};
}

bool CoversSampled(const HalfPlaneQuery& q, const HalfPlaneQuery& q1,
                   const HalfPlaneQuery& q2, double extent, int steps) {
  auto inside = [](const HalfPlaneQuery& h, double x, double y) {
    double rhs = h.slope * x + h.intercept;
    return h.cmp == Cmp::kGE ? y >= rhs - 1e-9 : y <= rhs + 1e-9;
  };
  for (int ix = 0; ix <= steps; ++ix) {
    double x = -extent + 2 * extent * ix / steps;
    for (int iy = 0; iy <= steps; ++iy) {
      double y = -extent + 2 * extent * iy / steps;
      if (inside(q, x, y) && !inside(q1, x, y) && !inside(q2, x, y)) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace cdb
