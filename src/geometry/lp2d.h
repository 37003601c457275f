// 2-variable linear programming over a constraint conjunction.
//
// A one-shot convenience over the geometry oracle (geometry/polyhedron2d.h):
// MaximizeLinear2D builds the V-representation of the conjunction and reads
// one support value from it, classifying the program as infeasible,
// unbounded or optimal. Vertex-free feasible regions (half-planes, strips,
// lines, the whole plane), which the paper's unbounded generalized tuples
// produce, are classified exactly. Hot paths keep the V-representation
// instead (Relation's per-tuple mirror) and never rebuild it per objective.

#ifndef CDB_GEOMETRY_LP2D_H_
#define CDB_GEOMETRY_LP2D_H_

#include <vector>

#include "geometry/linear_constraint.h"
#include "geometry/vec.h"

namespace cdb {

enum class LpStatus { kOptimal, kUnbounded, kInfeasible };

/// Outcome of a 2-D LP. `value`/`point` are meaningful only for kOptimal.
struct Lp2DResult {
  LpStatus status = LpStatus::kInfeasible;
  double value = 0.0;
  Vec2 point;
};

/// Maximizes cx*x + cy*y subject to the conjunction `constraints`.
/// O(m^3) in the constraint count (the V-representation build).
Lp2DResult MaximizeLinear2D(const std::vector<Constraint2D>& constraints,
                            double cx, double cy);

/// True when the conjunction has at least one solution.
bool IsSatisfiable2D(const std::vector<Constraint2D>& constraints);

}  // namespace cdb

#endif  // CDB_GEOMETRY_LP2D_H_
