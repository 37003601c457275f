// Axis-aligned rectangle, the approximation unit of the R+-tree baseline.

#ifndef CDB_GEOMETRY_RECT_H_
#define CDB_GEOMETRY_RECT_H_

#include <algorithm>
#include <limits>

#include "common/float_cmp.h"
#include "geometry/linear_constraint.h"
#include "geometry/vec.h"

namespace cdb {

/// Closed axis-aligned rectangle [xlo, xhi] x [ylo, yhi].
struct Rect {
  double xlo = 0.0, ylo = 0.0, xhi = 0.0, yhi = 0.0;

  Rect() = default;
  Rect(double x0, double y0, double x1, double y1)
      : xlo(x0), ylo(y0), xhi(x1), yhi(y1) {}

  /// Rectangle that behaves as the identity under Enclose().
  static Rect Empty() {
    double inf = std::numeric_limits<double>::infinity();
    return Rect(inf, inf, -inf, -inf);
  }

  bool IsEmpty() const { return xlo > xhi || ylo > yhi; }

  double Area() const {
    return IsEmpty() ? 0.0 : (xhi - xlo) * (yhi - ylo);
  }

  Vec2 Center() const { return {(xlo + xhi) / 2, (ylo + yhi) / 2}; }

  bool Intersects(const Rect& o) const {
    return !IsEmpty() && !o.IsEmpty() && xlo <= o.xhi && o.xlo <= xhi &&
           ylo <= o.yhi && o.ylo <= yhi;
  }

  bool Contains(const Rect& o) const {
    return !o.IsEmpty() && xlo <= o.xlo && o.xhi <= xhi && ylo <= o.ylo &&
           o.yhi <= yhi;
  }

  bool ContainsPoint(const Vec2& p) const {
    return xlo <= p.x && p.x <= xhi && ylo <= p.y && p.y <= yhi;
  }

  Rect Intersection(const Rect& o) const {
    return Rect(std::max(xlo, o.xlo), std::max(ylo, o.ylo),
                std::min(xhi, o.xhi), std::min(yhi, o.yhi));
  }

  /// Smallest rectangle covering both.
  Rect Enclose(const Rect& o) const {
    if (IsEmpty()) return o;
    if (o.IsEmpty()) return *this;
    return Rect(std::min(xlo, o.xlo), std::min(ylo, o.ylo),
                std::max(xhi, o.xhi), std::max(yhi, o.yhi));
  }

  /// True when the rectangle and the closed half-plane  y θ s*x + b
  /// intersect. Tested via the extreme corner for the half-plane side.
  bool IntersectsHalfPlane(const HalfPlaneQuery& q) const {
    if (IsEmpty()) return false;
    // Max (for >=) or min (for <=) of y - s*x over the rectangle corners.
    double best;
    if (q.cmp == Cmp::kGE) {
      best = std::max(std::max(yhi - q.slope * xlo, yhi - q.slope * xhi),
                      std::max(ylo - q.slope * xlo, ylo - q.slope * xhi));
      return GreaterOrEq(best, q.intercept);
    }
    best = std::min(std::min(yhi - q.slope * xlo, yhi - q.slope * xhi),
                    std::min(ylo - q.slope * xlo, ylo - q.slope * xhi));
    return LessOrEq(best, q.intercept);
  }

  /// True when the rectangle lies entirely inside the half-plane.
  bool InsideHalfPlane(const HalfPlaneQuery& q) const {
    if (IsEmpty()) return false;
    double worst;
    if (q.cmp == Cmp::kGE) {
      worst = std::min(std::min(yhi - q.slope * xlo, yhi - q.slope * xhi),
                       std::min(ylo - q.slope * xlo, ylo - q.slope * xhi));
      return GreaterOrEq(worst, q.intercept);
    }
    worst = std::max(std::max(yhi - q.slope * xlo, yhi - q.slope * xhi),
                     std::max(ylo - q.slope * xlo, ylo - q.slope * xhi));
    return LessOrEq(worst, q.intercept);
  }
};

}  // namespace cdb

#endif  // CDB_GEOMETRY_RECT_H_
