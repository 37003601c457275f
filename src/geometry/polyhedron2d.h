// The 2-D geometry oracle: the V-representation of the convex polyhedron a
// constraint conjunction describes, and every support question asked of it.
//
// Generalized tuples are exactly such (possibly unbounded, possibly empty)
// polyhedra, and Proposition 2.2 of the paper reduces every ALL/EXIST
// decision and every B+-tree key to one support value max c·p over the
// tuple. Built once, the V-representation answers each support question in
// O(v): one multiply-add per vertex, plus one per recession ray to detect
// unboundedness. Relation keeps one per tuple in memory, so the refiner and
// the index read TOP/BOT without decoding a tuple or solving an LP.
//
// Build (O(m^3) in the constraint count m): every pair of non-parallel
// boundary lines is intersected with one fixed expression, and each
// intersection that satisfies all constraints (relative tolerance kEps) is
// kept, in pair-enumeration order and without merging near-duplicates; a
// maximum keeps the first of equal values. The expression, the order and
// the tie rule are load-bearing: the paper tables were produced by a vertex
// enumeration over exactly this candidate list and are checked byte for
// byte. There is no bounding box: ValidateTuple limits coefficient
// magnitudes instead (constraint/generalized_tuple.h), so a region reaching
// 5e9 has TOP = 5e9.
//
// Classification is exact and structural:
//  - empty: some 0x + 0y + c row is violated, no pairwise intersection is
//    feasible, or (all normals parallel) the interval is empty;
//  - pointed: two normals are independent; `vertices` holds the feasible
//    intersections and `rays` the extreme recession directions;
//  - non-pointed: all normals are parallel (half-plane, strip, line, or no
//    constraint at all). The region is an interval across the common normal
//    swept along the lineality direction L; `anchors` holds one point on
//    each finite side and `rays` holds ±L plus the normal when a side is
//    open.

#ifndef CDB_GEOMETRY_POLYHEDRON2D_H_
#define CDB_GEOMETRY_POLYHEDRON2D_H_

#include <span>
#include <vector>

#include "geometry/linear_constraint.h"
#include "geometry/rect.h"
#include "geometry/vec.h"

namespace cdb {

/// Read-only V-representation: what Polyhedron2D owns and what a relation's
/// in-memory mirror stores per tuple. All support evaluation runs on this.
struct Polyhedron2DView {
  bool feasible = false;
  bool bounded = false;
  bool pointed = false;
  /// Vertices when pointed, boundary anchors otherwise.
  std::span<const Vec2> points;
  /// Unit generators of the recession cone (empty when bounded).
  std::span<const Vec2> rays;

  /// max cx*x + cy*y over the region: NaN when empty, +infinity when some
  /// ray gains along c. `arg`, if given, receives the maximizing point
  /// (the first in `points` on ties).
  double Maximize(double cx, double cy, Vec2* arg = nullptr) const;

  /// Minimal bounding rectangle; false when empty or unbounded.
  bool BoundingRect(Rect* out) const;
};

/// V-representation of a 2-D convex polyhedron (see file comment). For a
/// pointed polyhedron P = conv(vertices) + cone(rays).
struct Polyhedron2D {
  bool feasible = false;
  bool bounded = false;
  bool pointed = false;
  /// Feasible pairwise boundary intersections in pair-enumeration order
  /// (i < j); repeated when three boundaries meet. Empty when not pointed.
  std::vector<Vec2> vertices;
  /// Non-pointed only: one point on each finite supporting line (the
  /// origin for the whole plane).
  std::vector<Vec2> anchors;
  /// Unit recession generators (empty when bounded).
  std::vector<Vec2> rays;

  /// Builds the V-representation from a constraint conjunction.
  static Polyhedron2D FromConstraints(
      const std::vector<Constraint2D>& constraints);

  Polyhedron2DView view() const {
    return {feasible, bounded, pointed, pointed ? vertices : anchors, rays};
  }
};

/// Minimal bounding rectangle of the constraint region. Requires the region
/// to be non-empty and bounded; returns false otherwise.
bool BoundingRect(const std::vector<Constraint2D>& constraints, Rect* out);

/// True when `p` satisfies every constraint (within tolerance).
bool ContainsPoint(const std::vector<Constraint2D>& constraints,
                   const Vec2& p);

}  // namespace cdb

#endif  // CDB_GEOMETRY_POLYHEDRON2D_H_
