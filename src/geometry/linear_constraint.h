// Linear constraints — the atoms of generalized tuples.
//
// A linear constraint over variables x1..xd is  a1*x1 + ... + ad*xd + c θ 0
// with θ in {<=, >=} (Section 2 of the paper; equalities are expanded into a
// conjunction of both directions by the parser / tuple builder).

#ifndef CDB_GEOMETRY_LINEAR_CONSTRAINT_H_
#define CDB_GEOMETRY_LINEAR_CONSTRAINT_H_

#include <cstddef>
#include <vector>

#include "common/float_cmp.h"
#include "geometry/vec.h"

namespace cdb {

/// Comparison operator of a constraint.
enum class Cmp { kLE, kGE };

inline Cmp Negate(Cmp cmp) { return cmp == Cmp::kLE ? Cmp::kGE : Cmp::kLE; }

/// 2-D linear constraint: a*x + b*y + c θ 0.
struct Constraint2D {
  double a = 0.0;
  double b = 0.0;
  double c = 0.0;
  Cmp cmp = Cmp::kLE;

  Constraint2D() = default;
  Constraint2D(double aa, double bb, double cc, Cmp op)
      : a(aa), b(bb), c(cc), cmp(op) {}

  /// Signed residual a*x + b*y + c at point p.
  double Residual(const Vec2& p) const { return a * p.x + b * p.y + c; }

  /// True when p satisfies the constraint (within tolerance).
  bool Satisfies(const Vec2& p, double eps = kEps) const {
    double r = Residual(p);
    return cmp == Cmp::kLE ? LessOrEq(r, 0.0, eps) : GreaterOrEq(r, 0.0, eps);
  }
};

/// d-dimensional linear constraint: sum(a[i]*x[i]) + c θ 0.
struct ConstraintD {
  std::vector<double> a;
  double c = 0.0;
  Cmp cmp = Cmp::kLE;

  ConstraintD() = default;
  ConstraintD(std::vector<double> coeffs, double cc, Cmp op)
      : a(std::move(coeffs)), c(cc), cmp(op) {}

  size_t dim() const { return a.size(); }

  double Residual(const std::vector<double>& x) const {
    double r = c;
    for (size_t i = 0; i < a.size(); ++i) r += a[i] * x[i];
    return r;
  }

  bool Satisfies(const std::vector<double>& x, double eps = kEps) const {
    double r = Residual(x);
    return cmp == Cmp::kLE ? LessOrEq(r, 0.0, eps) : GreaterOrEq(r, 0.0, eps);
  }
};

/// Half-plane query in 2-D:  y θ slope*x + intercept  (Section 2.1 assumes
/// the query line is not vertical).
struct HalfPlaneQuery {
  double slope = 0.0;
  double intercept = 0.0;
  Cmp cmp = Cmp::kGE;

  HalfPlaneQuery() = default;
  HalfPlaneQuery(double s, double b, Cmp op)
      : slope(s), intercept(b), cmp(op) {}

  /// The query as a Constraint2D: y - slope*x - intercept θ 0.
  Constraint2D AsConstraint() const {
    return Constraint2D(-slope, 1.0, -intercept, cmp);
  }
};

/// Half-plane query in d dimensions:
///   x_d θ slope[0]*x_1 + ... + slope[d-2]*x_{d-1} + intercept.
struct HalfPlaneQueryD {
  std::vector<double> slope;  // d-1 coefficients.
  double intercept = 0.0;
  Cmp cmp = Cmp::kGE;

  size_t dim() const { return slope.size() + 1; }

  ConstraintD AsConstraint() const {
    std::vector<double> coeffs(slope.size() + 1);
    for (size_t i = 0; i < slope.size(); ++i) coeffs[i] = -slope[i];
    coeffs[slope.size()] = 1.0;
    return ConstraintD(std::move(coeffs), -intercept, cmp);
  }
};

}  // namespace cdb

#endif  // CDB_GEOMETRY_LINEAR_CONSTRAINT_H_
