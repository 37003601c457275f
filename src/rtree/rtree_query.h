// ALL/EXIST half-plane selections over an R+-tree, the baseline execution
// of Section 5. EXIST filters leaf entries by rect/half-plane intersection;
// ALL has no direct R+-tree form for non-rectangular queries (Section 1),
// so it runs as an EXIST scan whose candidates are refined by the exact
// containment predicate — the approximation the paper highlights as the
// R+-tree's weakness.

#ifndef CDB_RTREE_RTREE_QUERY_H_
#define CDB_RTREE_RTREE_QUERY_H_

#include "constraint/naive_eval.h"
#include "constraint/relation.h"
#include "dualindex/dual_index.h"  // QueryStats
#include "obs/trace.h"
#include "rtree/rplus_tree.h"

namespace cdb {

/// Executes the selection, refining candidates against the relation's
/// stored constraints. Results sorted by tuple id. Populates the same
/// QueryStats the dual index reports, for apples-to-apples benchmarks.
/// When `profile` is non-null it receives the per-phase span breakdown.
/// A failed page read has the same error contract as DualIndex::Select (no
/// pinned pages, balanced stats, unprocessed candidates booked as
/// `filter.abandoned`).
Result<std::vector<TupleId>> RTreeSelect(
    RPlusTree* tree, Relation* relation, SelectionType type,
    const HalfPlaneQuery& q, QueryStats* stats = nullptr,
    obs::ExplainProfile* profile = nullptr);

}  // namespace cdb

#endif  // CDB_RTREE_RTREE_QUERY_H_
