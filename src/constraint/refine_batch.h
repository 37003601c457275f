// Shared candidate-batch refiner.
//
// Every query family — dual T1/T2, the d-dimensional index, the R+-tree
// baseline — ends its filter step with the same tail: fetch each surviving
// candidate tuple, run the exact predicate, book the outcome into
// FilterCounts. This module is that tail, in exactly one place, with three
// composable optimizations over a per-candidate fetch-and-decide loop:
//
//  (a) page clustering — candidates arrive in ascending TupleId order,
//      which is physical page-chain order for an append-only relation, so
//      consecutive candidates cluster on the same tuple page. The refiner
//      pins each distinct page once and refines every candidate clustered
//      on it while pinned, turning O(candidates) logical fetches into
//      O(distinct pages).
//  (b) mirrored shapes — the 2-D refiner decides from the relation's
//      in-memory V-representation (Relation::Shape) with the same
//      ExactAll/ExactExist as naive evaluation, O(v) per candidate; the
//      fetched page still pays the paper's refinement charge and proves the
//      record live, but its bytes are never decoded (DESIGN.md §2h).
//  (c) bounding-box early decisions — every bounded tuple's AABB, derived
//      from its mirrored shape in O(v), decides the candidates the box
//      already proves without fetching the tuple at all: ALL-accepts book
//      as FilterCounts::early_accepts, EXIST-rejects as refine_rejects, and
//      FilterCounts::Balances() holds unchanged.
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
/// the per-family LP counter ("dual.refine.lp_calls" etc. — box-decided
/// candidates never increment it); `filter` receives the
/// early_accepts/refine_accepts/refine_rejects booking (the rejects are the
/// paper's false hits). On error `ids` is left untouched and the caller
/// books the unprocessed tail as FilterCounts::abandoned.
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

/// Generic page-clustered refinement driver for relation types without a
/// 2-D shape mirror (the d-dimensional family). `pred(tuple)` is
/// the exact predicate. Same contract and booking as RefineBatch2D.
template <typename RelationT, typename TupleT, typename Pred>
Status RefinePageClustered(const RelationT& relation, obs::Counter* lp_calls,
                           std::vector<TupleId>* ids,
                           obs::FilterCounts* filter, const Pred& pred) {
  CDB_TRACE_SPAN("refine");
  std::vector<TupleId> kept;
  kept.reserve(ids->size());

  static obs::Counter* const batch_pages =
      obs::GlobalMetrics().counter("refine.batch.pages");
  static obs::Counter* const batch_candidates =
      obs::GlobalMetrics().counter("refine.batch.candidates");
  batch_candidates->Increment(ids->size());

  std::optional<PageRef> page;
  PageId pinned = kInvalidPageId;
  for (TupleId id : *ids) {
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
    TupleT tuple;
    CDB_RETURN_IF_ERROR(relation.GetFromPage(*page, id, &tuple));
    CDB_TRACE_SPAN("lp");
    lp_calls->Increment();
    if (pred(tuple)) {
      kept.push_back(id);
      ++filter->refine_accepts;
    } else {
      ++filter->refine_rejects;
    }
  }
  *ids = std::move(kept);
  return Status::OK();
}

}  // namespace cdb

#endif  // CDB_CONSTRAINT_REFINE_BATCH_H_
