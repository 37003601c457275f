#include "constraint/generalized_tuple.h"

#include <cmath>

#include "geometry/lp2d.h"

namespace cdb {

namespace {

Status NonFinite() {
  return Status::InvalidArgument("tuple coefficients must be finite");
}

Status Empty() {
  return Status::InvalidArgument("tuple must have at least one constraint");
}

}  // namespace

bool GeneralizedTuple::IsSatisfiable() const {
  return IsSatisfiable2D(constraints_);
}

Status ValidateTuple(const GeneralizedTuple& tuple) {
  if (tuple.empty()) return Empty();
  for (const Constraint2D& c : tuple.constraints()) {
    if (!std::isfinite(c.a) || !std::isfinite(c.b) || !std::isfinite(c.c)) {
      return NonFinite();
    }
  }
  return Status::OK();
}

Status ValidateTuple(const GeneralizedTupleD& tuple) {
  if (tuple.constraints().empty()) return Empty();
  for (const ConstraintD& c : tuple.constraints()) {
    if (!std::isfinite(c.c)) return NonFinite();
    for (double a : c.a) {
      if (!std::isfinite(a)) return NonFinite();
    }
  }
  return Status::OK();
}

}  // namespace cdb
