// Approximation-query planning for technique T1 (Section 4.1).
//
// A half-plane query whose slope is not in S is replaced by two
// app-queries whose slopes are in S and whose union covers the original
// half-plane. Table 1 of the paper gives the operator choice; the query
// types follow Section 4.1: EXIST -> two EXISTs, ALL -> one ALL (on the
// nearer slope) plus one EXIST.

#ifndef CDB_DUALINDEX_APP_QUERY_H_
#define CDB_DUALINDEX_APP_QUERY_H_

#include <array>

#include "constraint/naive_eval.h"
#include "dualindex/slope_set.h"
#include "geometry/linear_constraint.h"

namespace cdb {

/// One app-query: a half-plane selection whose slope is S[slope_index].
struct AppQuery {
  size_t slope_index;
  SelectionType type;
  Cmp cmp;
  double intercept;
};

/// Builds the T1 plan: the two app-queries whose union covers `q`, reached
/// by clockwise and anti-clockwise rotation of its line. Requires q.slope
/// not in S (a slope in S is answered exactly, without a plan). `anchor_x`
/// is the x coordinate of the shared point P on the query line that both
/// app-query lines pass through (the paper leaves the optimal choice open;
/// 0 — the centre of the paper's working window — is the default).
std::array<AppQuery, 2> PlanAppQueries(const SlopeSet& slopes,
                                       SelectionType type,
                                       const HalfPlaneQuery& q,
                                       double anchor_x = 0.0);

/// True when half-plane `q` is covered by the union of `q1` and `q2`
/// (sampled check used by tests and the Table 1 verification bench).
bool CoversSampled(const HalfPlaneQuery& q, const HalfPlaneQuery& q1,
                   const HalfPlaneQuery& q2, double extent, int steps);

}  // namespace cdb

#endif  // CDB_DUALINDEX_APP_QUERY_H_
