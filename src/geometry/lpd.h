// Dense d-dimensional linear programming (two-phase simplex).
//
// Supports the paper's Section 4.4 extension to E^d: evaluating
// TOP^P / BOT^P of a d-dimensional generalized tuple at a slope vector
// reduces to maximizing a linear objective over the constraint conjunction.
// Intended for the small instances arising from generalized tuples
// (dimension <= ~8, a dozen constraints); uses Bland's rule, so it
// terminates on degenerate instances.

#ifndef CDB_GEOMETRY_LPD_H_
#define CDB_GEOMETRY_LPD_H_

#include <vector>

#include "geometry/linear_constraint.h"

namespace cdb {

enum class LpStatus { kOptimal, kUnbounded, kInfeasible };

/// Outcome of a d-dimensional LP.
struct LpDResult {
  LpStatus status = LpStatus::kInfeasible;
  double value = 0.0;
  std::vector<double> point;
};

/// Maximizes objective·x over the conjunction `constraints` (variables are
/// free/unrestricted; internally split into positive parts).
LpDResult MaximizeLinearD(const std::vector<ConstraintD>& constraints,
                          const std::vector<double>& objective);

/// True when the conjunction has a solution.
bool IsSatisfiableD(const std::vector<ConstraintD>& constraints, size_t dim);

/// TOP^P(slope) in d dimensions: max of x_d - slope·(x_1..x_{d-1}) over the
/// region; +inf when unbounded, NaN when unsatisfiable.
double TopValueD(const std::vector<ConstraintD>& constraints,
                 const std::vector<double>& slope);

/// BOT^P(slope) in d dimensions; -inf when unbounded below.
double BotValueD(const std::vector<ConstraintD>& constraints,
                 const std::vector<double>& slope);

/// Exact d-dimensional ALL / EXIST predicates (Proposition 2.2).
bool ExactAllD(const std::vector<ConstraintD>& constraints,
               const HalfPlaneQueryD& q);
bool ExactExistD(const std::vector<ConstraintD>& constraints,
                 const HalfPlaneQueryD& q);

}  // namespace cdb

#endif  // CDB_GEOMETRY_LPD_H_
