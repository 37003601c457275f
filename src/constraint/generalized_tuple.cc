#include "constraint/generalized_tuple.h"

#include <cmath>
#include <string>

namespace cdb {

namespace {

Status NonFinite() {
  return Status::InvalidArgument("tuple coefficients must be finite");
}

// Finite, and zero or inside [kMinCoefficient, kMaxCoefficient].
Status CheckCoefficient(double v) {
  if (!std::isfinite(v)) return NonFinite();
  const double mag = std::fabs(v);
  if (mag != 0.0 && (mag < kMinCoefficient || mag > kMaxCoefficient)) {
    return Status::InvalidArgument(
        "tuple coefficient " + std::to_string(v) +
        " outside the exact range: zero or magnitude in [2^-64, 2^64]");
  }
  return Status::OK();
}

Status Empty() {
  return Status::InvalidArgument("tuple must have at least one constraint");
}

}  // namespace

bool GeneralizedTuple::IsSatisfiable() const {
  return Polyhedron().feasible;
}

Status ValidateTuple(const GeneralizedTuple& tuple) {
  if (tuple.empty()) return Empty();
  for (const Constraint2D& c : tuple.constraints()) {
    for (double v : {c.a, c.b, c.c}) CDB_RETURN_IF_ERROR(CheckCoefficient(v));
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
