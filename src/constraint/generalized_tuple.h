// Generalized tuples — finite representations of (possibly infinite) sets of
// points (Section 2 of the paper).

#ifndef CDB_CONSTRAINT_GENERALIZED_TUPLE_H_
#define CDB_CONSTRAINT_GENERALIZED_TUPLE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "geometry/dual.h"
#include "geometry/linear_constraint.h"
#include "geometry/polyhedron2d.h"

namespace cdb {

/// Identifier of a tuple within a relation.
using TupleId = uint32_t;

/// A 2-D generalized tuple: a conjunction of linear constraints whose
/// extension is a convex (possibly unbounded, possibly empty) polyhedron.
class GeneralizedTuple {
 public:
  GeneralizedTuple() = default;
  explicit GeneralizedTuple(std::vector<Constraint2D> constraints)
      : constraints_(std::move(constraints)) {}

  /// Adds `a*x + b*y + c θ 0`. An equality is modelled by calling this twice
  /// with kLE and kGE (the paper's expansion of '=').
  void Add(double a, double b, double c, Cmp cmp) {
    constraints_.emplace_back(a, b, c, cmp);
  }

  const std::vector<Constraint2D>& constraints() const { return constraints_; }
  size_t size() const { return constraints_.size(); }
  bool empty() const { return constraints_.empty(); }

  /// True when the extension is non-empty.
  bool IsSatisfiable() const;

  /// TOP^P at `slope` (+inf when unbounded above; NaN when unsatisfiable).
  double Top(double slope) const { return TopValue(constraints_, slope); }

  /// BOT^P at `slope` (-inf when unbounded below; NaN when unsatisfiable).
  double Bot(double slope) const { return BotValue(constraints_, slope); }

  /// V-representation of the extension.
  Polyhedron2D Polyhedron() const {
    return Polyhedron2D::FromConstraints(constraints_);
  }

  /// Minimal bounding rectangle; false when unbounded or unsatisfiable.
  bool GetBoundingRect(Rect* out) const {
    return BoundingRect(constraints_, out);
  }

 private:
  std::vector<Constraint2D> constraints_;
};

/// d-dimensional generalized tuple (used by the Section 4.4 extension).
class GeneralizedTupleD {
 public:
  GeneralizedTupleD() = default;
  GeneralizedTupleD(size_t dim, std::vector<ConstraintD> constraints)
      : dim_(dim), constraints_(std::move(constraints)) {}

  size_t dim() const { return dim_; }
  const std::vector<ConstraintD>& constraints() const { return constraints_; }

 private:
  size_t dim_ = 0;
  std::vector<ConstraintD> constraints_;
};

/// Coefficient magnitudes the geometry arithmetic handles exactly: every
/// coefficient (a, b and c alike) is zero or has magnitude in
/// [kMinCoefficient, kMaxCoefficient] = [2^-64, 2^64]. Inside that range no
/// product, difference or quotient of the boundary-intersection and
/// support arithmetic (geometry/polyhedron2d.h) overflows to infinity or
/// underflows into subnormals, so each is correctly rounded; outside it a
/// vertex can come out infinite, zero or wrong without any signal.
inline constexpr double kMinCoefficient = 0x1p-64;
inline constexpr double kMaxCoefficient = 0x1p64;

/// The admission check for a tuple entering the system (Relation::Insert,
/// RelationD::Insert, DualIndex::ValidateForInsert and Insert, the parser,
/// and through them IngestQueue::Submit): InvalidArgument unless the tuple
/// has at least one constraint and every coefficient is finite and inside
/// the magnitude range above. A NaN or infinite coefficient cannot be
/// decided at all — a NaN row reads as satisfiable with TOP = +inf and
/// BOT = -inf, so the index would store a phantom tuple with infinite keys.
Status ValidateTuple(const GeneralizedTuple& tuple);
Status ValidateTuple(const GeneralizedTupleD& tuple);

}  // namespace cdb

#endif  // CDB_CONSTRAINT_GENERALIZED_TUPLE_H_
