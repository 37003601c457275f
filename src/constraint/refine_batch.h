// Shared candidate-batch refiner.
//
// Every query family — dual T1/T2, the d-dimensional index, the R+-tree
// baseline — ends its filter step with the same tail: fetch each surviving
// candidate tuple, run the exact predicate, book the outcome into
// FilterCounts. RefinePageClustered is that tail, one loop for all of
// them. It pins each run of same-page candidates once — candidates arrive
// in ascending TupleId order, which is page-chain order for an append-only
// relation, so O(candidates) logical fetches become O(distinct pages) — and
// owns the refine, fetch-page and lp spans, the refine.batch counters, the
// caller's LP counter and the FilterCounts booking.
//
// A family plugs in two policies, inlined as template arguments because
// they run once per candidate:
//  - a screen decides a candidate before any fetch: +1 accepts it (booked
//    as early_accepts), -1 rejects it (refine_rejects), 0 sends it to its
//    page;
//  - a check's Load(page, id) proves the record live on the pinned page and
//    readies it; its Holds() is the exact predicate, timed as the lp span.
// RefineBatch2D screens by the bounding box of the tuple's mirrored shape
// and decides on that shape (Relation::Shape) with the ExactAll/ExactExist
// of naive evaluation, O(v): the fetched page still pays the paper's
// refinement charge and proves the record live, but its bytes are never
// decoded (DESIGN.md §2h). DDimDualIndex::Refine screens nothing, decodes
// the record and decides by ExactAllD/ExactExistD.
//
// The reference the refiner is tested against is the naive evaluator
// (constraint/naive_eval.h: ExactAll/ExactExist/NaiveSelect), which decides
// every tuple by the same exact predicate without any index or batching.

#ifndef CDB_CONSTRAINT_REFINE_BATCH_H_
#define CDB_CONSTRAINT_REFINE_BATCH_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/status.h"
#include "constraint/naive_eval.h"
#include "constraint/relation.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cdb {

/// Refines the ascending, deduplicated candidate ids in `ids` in place:
/// on success `ids` holds the accepted ids, still ascending. `lp_calls` is
/// the per-family LP counter ("dual.refine.lp_calls" etc. — screened
/// candidates never increment it); `filter` receives the
/// early_accepts/refine_accepts/refine_rejects booking (the rejects are the
/// paper's false hits). On error `ids` is left untouched and the caller
/// books the unprocessed tail as FilterCounts::abandoned.
template <typename RelationT, typename Screen, typename Check>
Status RefinePageClustered(const RelationT& relation, obs::Counter* lp_calls,
                           std::vector<TupleId>* ids,
                           obs::FilterCounts* filter, const Screen& screen,
                           Check& check) {
  static obs::Counter* const batch_pages =
      obs::GlobalMetrics().counter("refine.batch.pages");
  static obs::Counter* const batch_candidates =
      obs::GlobalMetrics().counter("refine.batch.candidates");

  CDB_TRACE_SPAN("refine");
  batch_candidates->Increment(ids->size());
  std::vector<TupleId> kept;
  kept.reserve(ids->size());
  std::optional<PageRef> page;
  PageId pinned = kInvalidPageId;

  for (TupleId id : *ids) {
    const int decision = screen(id);
    if (decision > 0) {
      kept.push_back(id);
      ++filter->early_accepts;
      continue;
    }
    if (decision < 0) {
      ++filter->refine_rejects;
      continue;
    }
    PageId pid;
    CDB_RETURN_IF_ERROR(relation.LocateTuple(id, &pid));
    if (!page.has_value() || pid != pinned) {
      page.reset();  // Unpin before fetching the next page.
      Result<PageRef> ref = [&] {
        CDB_TRACE_SPAN("fetch-page");
        return relation.pager()->Fetch(pid);
      }();
      if (!ref.ok()) return ref.status();
      page.emplace(std::move(ref.value()));
      pinned = pid;
      batch_pages->Increment();
    }
    CDB_RETURN_IF_ERROR(check.Load(*page, id));
    CDB_TRACE_SPAN("lp");
    lp_calls->Increment();
    if (check.Holds()) {
      kept.push_back(id);
      ++filter->refine_accepts;
    } else {
      ++filter->refine_rejects;
    }
  }
  *ids = std::move(kept);
  return Status::OK();
}

/// RefinePageClustered with the 2-D policies (see file comment) for
/// `type`/`q` over `relation`. Box-decided candidates book into the
/// "refine.batch.bbox_accepts"/"refine.batch.bbox_rejects" counters.
Status RefineBatch2D(const Relation& relation, SelectionType type,
                     const HalfPlaneQuery& q, obs::Counter* lp_calls,
                     std::vector<TupleId>* ids, obs::FilterCounts* filter);

/// RefineBatch2D for callers that still pass a null fifth argument where a
/// per-query context used to go, and a false-hit counter of their own
/// (perfbench/src/traced_run.cc): adds this call's refine_rejects to
/// `*false_hits`. Delete it together with those arguments.
inline Status RefineBatch2D(const Relation& relation, SelectionType type,
                            const HalfPlaneQuery& q, obs::Counter* lp_calls,
                            std::nullptr_t, std::vector<TupleId>* ids,
                            obs::FilterCounts* filter, uint64_t* false_hits) {
  const uint64_t before = filter->refine_rejects;
  Status st = RefineBatch2D(relation, type, q, lp_calls, ids, filter);
  *false_hits += filter->refine_rejects - before;
  return st;
}

}  // namespace cdb

#endif  // CDB_CONSTRAINT_REFINE_BATCH_H_
