#include "constraint/naive_eval.h"

#include <cmath>

#include "geometry/dual.h"

namespace cdb {


Result<std::vector<TupleId>> NaiveSelect(const Relation& relation,
                                         SelectionType type,
                                         const HalfPlaneQuery& query) {
  std::vector<TupleId> out;
  Status st = relation.ForEach(
      [&](TupleId id, const GeneralizedTuple& tuple) -> Status {
        bool hit = type == SelectionType::kAll
                       ? ExactAll(tuple.constraints(), query)
                       : ExactExist(tuple.constraints(), query);
        if (hit) out.push_back(id);
        return Status::OK();
      });
  if (!st.ok()) return st;
  return out;
}

bool ExactAllVertical(const std::vector<Constraint2D>& constraints,
                      const VerticalQuery& q) {
  if (q.cmp == Cmp::kGE) {
    double mn = XMinValue(constraints);
    return !std::isnan(mn) && GreaterOrEq(mn, q.boundary);
  }
  double mx = XMaxValue(constraints);
  return !std::isnan(mx) && LessOrEq(mx, q.boundary);
}

bool ExactExistVertical(const std::vector<Constraint2D>& constraints,
                        const VerticalQuery& q) {
  if (q.cmp == Cmp::kGE) {
    double mx = XMaxValue(constraints);
    return !std::isnan(mx) && GreaterOrEq(mx, q.boundary);
  }
  double mn = XMinValue(constraints);
  return !std::isnan(mn) && LessOrEq(mn, q.boundary);
}

Result<std::vector<TupleId>> NaiveSelectVertical(const Relation& relation,
                                                 SelectionType type,
                                                 const VerticalQuery& query) {
  std::vector<TupleId> out;
  Status st = relation.ForEach(
      [&](TupleId id, const GeneralizedTuple& tuple) -> Status {
        bool hit = type == SelectionType::kAll
                       ? ExactAllVertical(tuple.constraints(), query)
                       : ExactExistVertical(tuple.constraints(), query);
        if (hit) out.push_back(id);
        return Status::OK();
      });
  if (!st.ok()) return st;
  return out;
}

}  // namespace cdb
