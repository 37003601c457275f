// The geometric dual transform (Section 2.1 of the paper).
//
// A non-vertical line y = a*x + b maps to the dual point (a, b) and a point
// (px, py) maps to the dual line y = -px*x + py. For a convex polyhedron P
// the pair of functions
//
//   TOP^P(a) = max { b : line y = a*x + b intersects P }
//            = max { y - a*x : (x, y) in P }          (convex in a)
//   BOT^P(a) = min { y - a*x : (x, y) in P }          (concave in a)
//
// characterizes P completely. Both evaluate to +/-infinity for unbounded
// polyhedra; that is the feature that lets the dual index store infinite
// objects. Proposition 2.2 reduces ALL/EXIST half-plane selections to
// comparisons of the query intercept with TOP/BOT at the query slope.
//
// Every function reads the V-representation (geometry/polyhedron2d.h): the
// Polyhedron2DView overloads are O(v) and are what the index and refiner
// call on a relation's mirror; the constraint-vector forms build the
// V-representation first.

#ifndef CDB_GEOMETRY_DUAL_H_
#define CDB_GEOMETRY_DUAL_H_

#include <vector>

#include "geometry/linear_constraint.h"
#include "geometry/polyhedron2d.h"
#include "geometry/vec.h"

namespace cdb {

/// Dual point of a non-vertical line y = slope*x + intercept.
inline Vec2 DualOfLine(double slope, double intercept) {
  return {slope, intercept};
}

/// Dual line of a point p: y = -p.x * x + p.y, returned as (slope,
/// intercept).
inline Vec2 DualOfPoint(const Vec2& p) { return {-p.x, p.y}; }

/// TOP^P(slope) for the region described by `constraints`.
/// Returns +infinity when the region is unbounded in the (-slope, 1)
/// direction, and NaN when the conjunction is unsatisfiable.
double TopValue(const Polyhedron2DView& poly, double slope);
double TopValue(const std::vector<Constraint2D>& constraints, double slope);

/// BOT^P(slope); -infinity when unbounded below, NaN when unsatisfiable.
double BotValue(const Polyhedron2DView& poly, double slope);
double BotValue(const std::vector<Constraint2D>& constraints, double slope);

/// Support values along the x axis: max/min of x over the region (+/-inf
/// when unbounded, NaN when unsatisfiable). These play the role of TOP/BOT
/// for *vertical* half-plane queries x θ c — the footnote-4 extension the
/// slope-based dual transform cannot express.
double XMaxValue(const Polyhedron2DView& poly);
double XMinValue(const Polyhedron2DView& poly);
double XMaxValue(const std::vector<Constraint2D>& constraints);
double XMinValue(const std::vector<Constraint2D>& constraints);

/// Exact ALL(q, t) via Proposition 2.2:
///   ALL(q(>=), t)  iff  b <= BOT^t(a);   ALL(q(<=), t)  iff  b >= TOP^t(a).
/// An unsatisfiable region (NaN surface) matches nothing.
bool ExactAll(const Polyhedron2DView& poly, const HalfPlaneQuery& q);
bool ExactAll(const std::vector<Constraint2D>& constraints,
              const HalfPlaneQuery& q);

/// Exact EXIST(q, t) via Proposition 2.2:
///   EXIST(q(>=), t) iff b <= TOP^t(a);   EXIST(q(<=), t) iff b >= BOT^t(a).
bool ExactExist(const Polyhedron2DView& poly, const HalfPlaneQuery& q);
bool ExactExist(const std::vector<Constraint2D>& constraints,
                const HalfPlaneQuery& q);

// ---------------------------------------------------------------------------
// Interval extrema of the dual surfaces, used by technique T2 to compute
// assignment values (Section 4.2, "handicap" machinery). All four are safe
// in the sense required by T2: the returned value bounds the true interval
// extremum from the side that preserves the superset property.
// ---------------------------------------------------------------------------

/// max over [s1, s2] of TOP^P — exact (convex functions attain interval
/// maxima at endpoints).
double MaxTopOverInterval(const Polyhedron2DView& poly, double s1,
                          double s2);
double MaxTopOverInterval(const std::vector<Constraint2D>& constraints,
                          double s1, double s2);

/// min over [s1, s2] of BOT^P — exact (concave; minimum at an endpoint).
double MinBotOverInterval(const Polyhedron2DView& poly, double s1,
                          double s2);
double MinBotOverInterval(const std::vector<Constraint2D>& constraints,
                          double s1, double s2);

/// max over [s1, s2] of BOT^P (concave: the max may be interior). Exact
/// when the polyhedron is pointed: BOT is the lower envelope of one line
/// z = v_y - s*v_x per vertex, and its maximum is the highest breakpoint of
/// that envelope inside the interval (a scan over the O(v^2) pairwise line
/// crossings, each checked against every line). Otherwise falls back to
/// MaxTopOverInterval, which dominates it (safe over-approximation). This
/// is the "tight" assignment for ALL(q(>=)) queries; the paper's variant
/// uses MaxTopOverInterval.
double MaxBotOverInterval(const Polyhedron2DView& poly, double s1,
                          double s2);
double MaxBotOverInterval(const std::vector<Constraint2D>& constraints,
                          double s1, double s2);

/// min over [s1, s2] of TOP^P (convex: the min may be interior). Exact via
/// the same breakpoint scan when pointed; otherwise falls back to
/// MinBotOverInterval (safe under-approximation). Tight assignment for
/// ALL(q(<=)) queries.
double MinTopOverInterval(const Polyhedron2DView& poly, double s1,
                          double s2);
double MinTopOverInterval(const std::vector<Constraint2D>& constraints,
                          double s1, double s2);

}  // namespace cdb

#endif  // CDB_GEOMETRY_DUAL_H_
