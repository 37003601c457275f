// Naive exact evaluation of ALL / EXIST selections by sequential scan.
//
// Serves two roles: the ground truth every index implementation is tested
// against, and the "no index" baseline in benchmarks. Each tuple costs one
// page fetch (through Relation::Get); its V-representation is rebuilt from
// the stored bytes, never read from the relation's mirror, so the scan
// also checks the mirror the index and refiner decide from.

#ifndef CDB_CONSTRAINT_NAIVE_EVAL_H_
#define CDB_CONSTRAINT_NAIVE_EVAL_H_

#include <vector>

#include "common/result.h"
#include "constraint/relation.h"

namespace cdb {

/// Query type per Section 2 of the paper.
enum class SelectionType { kAll, kExist };

/// Exact ALL(q, r) or EXIST(q, r) by scanning the relation. Results are in
/// ascending tuple-id order.
Result<std::vector<TupleId>> NaiveSelect(const Relation& relation,
                                         SelectionType type,
                                         const HalfPlaneQuery& query);

/// Vertical half-plane query: x θ boundary (paper footnote 4; not
/// expressible as y θ a*x + b).
struct VerticalQuery {
  double boundary = 0.0;
  Cmp cmp = Cmp::kGE;  // kGE: x >= boundary; kLE: x <= boundary.
};

/// Exact vertical ALL/EXIST predicates on one tuple, via the x-extent
/// support values (min/max of x over the extension, ±inf when unbounded).
bool ExactAllVertical(const std::vector<Constraint2D>& constraints,
                      const VerticalQuery& q);
bool ExactExistVertical(const std::vector<Constraint2D>& constraints,
                        const VerticalQuery& q);

/// Exact vertical selection by scanning the relation.
Result<std::vector<TupleId>> NaiveSelectVertical(const Relation& relation,
                                                 SelectionType type,
                                                 const VerticalQuery& query);

}  // namespace cdb

#endif  // CDB_CONSTRAINT_NAIVE_EVAL_H_
