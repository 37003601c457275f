#include "geometry/lp2d.h"

#include <cmath>

#include "geometry/polyhedron2d.h"

namespace cdb {

Lp2DResult MaximizeLinear2D(const std::vector<Constraint2D>& constraints,
                            double cx, double cy) {
  Polyhedron2D poly = Polyhedron2D::FromConstraints(constraints);
  Lp2DResult r;
  double value = poly.view().Maximize(cx, cy, &r.point);
  if (std::isnan(value)) return {LpStatus::kInfeasible, 0.0, Vec2()};
  if (std::isinf(value)) return {LpStatus::kUnbounded, 0.0, Vec2()};
  r.status = LpStatus::kOptimal;
  r.value = value;
  return r;
}

bool IsSatisfiable2D(const std::vector<Constraint2D>& constraints) {
  return Polyhedron2D::FromConstraints(constraints).feasible;
}

}  // namespace cdb
