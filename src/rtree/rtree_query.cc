#include "rtree/rtree_query.h"

#include "constraint/refine_batch.h"
#include "dualindex/sweep.h"
#include "obs/metrics.h"

namespace cdb {

Result<std::vector<TupleId>> RTreeSelect(RPlusTree* tree, Relation* relation,
                                         SelectionType type,
                                         const HalfPlaneQuery& q,
                                         QueryStats* stats,
                                         obs::ExplainProfile* profile) {
  QueryStats local;
  QueryStats* st = stats != nullptr ? stats : &local;
  *st = QueryStats();
  CDB_RETURN_IF_ERROR(CheckHalfPlaneQuery(q));
  obs::Tracer tracer("rtree/select", tree->pager(), relation->pager(),
                     /*clock=*/nullptr, /*profiled=*/profile != nullptr);

  // The whole execution runs inside a lambda so every exit — including a
  // failed page read — closes its books through FinishSelect. A
  // search-phase failure discards its partial candidate set (candidates
  // stay 0); a refine-phase failure leaves the untested tail abandoned.
  Result<std::vector<TupleId>> result = [&]() -> Result<std::vector<TupleId>> {
    RTreeStats rstats;
    Result<std::vector<TupleId>> candidates = [&] {
      CDB_TRACE_SPAN("filter");
      return tree->SearchHalfPlane(q, &rstats);
    }();
    if (!candidates.ok()) return candidates.status();
    st->candidates = candidates.value().size() + rstats.duplicates;
    st->filter.dedup_dropped = rstats.duplicates;

    static obs::Counter* const lp_calls =
        obs::GlobalMetrics().counter("rtree.refine.lp_calls");
    Status s = RefineBatch2D(*relation, type, q, lp_calls, &candidates.value(),
                             &st->filter);
    if (!s.ok()) return {s};
    return std::move(candidates.value());
  }();

  FinishSelect(&tracer, result, st, profile);
  return result;
}

}  // namespace cdb
