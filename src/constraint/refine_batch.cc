#include "constraint/refine_batch.h"

#include <algorithm>
#include <string>

#include "geometry/dual.h"

namespace cdb {

namespace {

/// Extremes of f(x, y) = y - slope*x over the corners of `box`. For a tuple
/// whose extension lies inside the box, BOT^t(slope) >= *f_min and
/// TOP^t(slope) <= *f_max — the bounds the early decisions lean on.
inline void BoxSupport(const Rect& box, double slope, double* f_min,
                       double* f_max) {
  double e1 = slope * box.xlo;
  double e2 = slope * box.xhi;
  *f_max = box.yhi - std::min(e1, e2);
  *f_min = box.ylo - std::max(e1, e2);
}

/// Box-provable decision: +1 accept, -1 reject, 0 undecided (refine).
/// The box can prove ALL-accepts (the whole box, hence the whole tuple,
/// satisfies the query) and EXIST-rejects (not even the box touches the
/// query) — never EXIST-accepts or ALL-rejects, which depend on the exact
/// tuple shape. The Definitely* margin (kEps * scale, ~1e-9 relative)
/// dominates the ~1e-16 relative rounding between the corner arithmetic
/// and the exact support values, so every box decision agrees with the
/// decision ExactAll/ExactExist would have made (DESIGN.md §2h).
inline int DecideFromBox(const Rect& box, SelectionType type,
                         const HalfPlaneQuery& q) {
  double f_min, f_max;
  BoxSupport(box, q.slope, &f_min, &f_max);
  if (type == SelectionType::kAll) {
    if (q.cmp == Cmp::kGE) {
      return DefinitelyLess(q.intercept, f_min) ? 1 : 0;
    }
    return DefinitelyGreater(q.intercept, f_max) ? 1 : 0;
  }
  if (q.cmp == Cmp::kGE) {
    return DefinitelyGreater(q.intercept, f_max) ? -1 : 0;
  }
  return DefinitelyLess(q.intercept, f_min) ? -1 : 0;
}

}  // namespace

Status RefineBatch2D(const Relation& relation, SelectionType type,
                     const HalfPlaneQuery& q, obs::Counter* lp_calls,
                     std::vector<TupleId>* ids, obs::FilterCounts* filter) {
  static obs::Counter* const batch_pages =
      obs::GlobalMetrics().counter("refine.batch.pages");
  static obs::Counter* const batch_candidates =
      obs::GlobalMetrics().counter("refine.batch.candidates");
  static obs::Counter* const bbox_accepts =
      obs::GlobalMetrics().counter("refine.batch.bbox_accepts");
  static obs::Counter* const bbox_rejects =
      obs::GlobalMetrics().counter("refine.batch.bbox_rejects");

  CDB_TRACE_SPAN("refine");
  batch_candidates->Increment(ids->size());
  std::vector<TupleId> kept;
  kept.reserve(ids->size());
  std::optional<PageRef> page;
  PageId pinned = kInvalidPageId;

  for (TupleId id : *ids) {
    Polyhedron2DView shape;
    const bool mirrored = relation.Shape(id, &shape);
    // Layer (c): decide box-provable candidates without any fetch.
    Rect box;
    if (mirrored && shape.BoundingRect(&box)) {
      int decision = DecideFromBox(box, type, q);
      if (decision > 0) {
        kept.push_back(id);
        ++filter->early_accepts;
        bbox_accepts->Increment();
        continue;
      }
      if (decision < 0) {
        ++filter->refine_rejects;
        bbox_rejects->Increment();
        continue;
      }
    }
    // Layer (a): ascending ids cluster into consecutive page runs; pin
    // each run's page once.
    PageId pid;
    CDB_RETURN_IF_ERROR(relation.LocateTuple(id, &pid));
    if (!page.has_value() || pid != pinned) {
      page.reset();
      Result<PageRef> ref = [&] {
        CDB_TRACE_SPAN("fetch-page");
        return relation.pager()->Fetch(pid);
      }();
      if (!ref.ok()) return ref.status();
      page.emplace(std::move(ref.value()));
      pinned = pid;
      batch_pages->Increment();
    }
    // The fetched record must be the live tuple the directory promised;
    // the decision itself reads the mirror, not the record's bytes.
    const char* body = nullptr;
    uint16_t m = 0;
    CDB_RETURN_IF_ERROR(relation.heap().Record(*page, id, &body, &m));
    // A writer may have published the id since the first lookup; the heap
    // publishes after the mirror, so a visible record now has its shape.
    if (!mirrored && !relation.Shape(id, &shape)) {
      return Status::Internal("no V-representation for tuple " +
                              std::to_string(id));
    }
    // Layer (b): the exact predicate on the V-representation, O(v).
    CDB_TRACE_SPAN("lp");
    lp_calls->Increment();
    const bool hit = type == SelectionType::kAll ? ExactAll(shape, q)
                                                 : ExactExist(shape, q);
    if (hit) {
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
