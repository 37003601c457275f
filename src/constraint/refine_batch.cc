#include "constraint/refine_batch.h"

#include <cmath>

#include "geometry/dual.h"
#include "geometry/lp2d.h"

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

/// Box-provable decision: +1 accept, -1 reject, 0 undecided (run the LP).
/// The box can prove ALL-accepts (the whole box, hence the whole tuple,
/// satisfies the query) and EXIST-rejects (not even the box touches the
/// query) — never EXIST-accepts or ALL-rejects, which depend on the exact
/// tuple shape. The Definitely* margin (kEps * scale, ~1e-9 relative)
/// dominates the ~1e-16 relative rounding between the corner arithmetic
/// and the LP's support values, so every box decision agrees with the
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

/// ExactAll/ExactExist (geometry/dual.cc) restructured over a
/// pre-normalized SoA slice, decision-identical to that pair:
///
///   ALL(q(>=))  iff  b <= BOT;   ALL(q(<=))  iff  b >= TOP;
///   EXIST(q(>=)) iff b <= TOP;  EXIST(q(<=)) iff b >= BOT.
///
/// ALL(>=) and EXIST(<=) read BOT (objective (slope, -1), support = -value);
/// the other two read TOP (objective (-slope, 1), support = value). The
/// boxed solve runs once; when its finite support value already decides the
/// query the same way on both recession-probe branches (an unbounded
/// surface makes ALL false and EXIST true regardless of b), the probe — the
/// second, equally expensive solve — is skipped.
bool ExactHalfPlaneSlice(const NormSlice2D& slice, SelectionType type,
                         const HalfPlaneQuery& q) {
  const bool bot_side = (type == SelectionType::kAll) == (q.cmp == Cmp::kGE);
  const double cx = bot_side ? q.slope : -q.slope;
  const double cy = bot_side ? -1.0 : 1.0;
  LpBoxed2D base = SolveBoxedNormalized2D(slice, cx, cy, kLpBox, false);
  if (!base.feasible) return false;  // Unsatisfiable (NaN surface): no match.
  const double support = bot_side ? -base.value : base.value;
  const bool finite_ok = q.cmp == Cmp::kGE
                             ? LessOrEq(q.intercept, support)
                             : GreaterOrEq(q.intercept, support);
  if (type == SelectionType::kAll) {
    if (!finite_ok) return false;  // Rejects whether bounded or not.
    return !UnboundedAbove2D(slice, cx, cy);  // ±inf surface rejects ALL.
  }
  if (finite_ok) return true;  // Accepts whether bounded or not.
  return UnboundedAbove2D(slice, cx, cy);  // ±inf surface accepts EXIST.
}

}  // namespace

Status RefineBatch2D(const Relation& relation, SelectionType type,
                     const HalfPlaneQuery& q, obs::Counter* lp_calls,
                     const QueryContext* ctx, std::vector<TupleId>* ids,
                     obs::FilterCounts* filter, uint64_t* false_hits) {
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
  NormSoa2D soa;
  std::optional<PageRef> page;
  PageId pinned = kInvalidPageId;

  for (TupleId id : *ids) {
    // Layer (c): decide box-provable candidates without any fetch or LP.
    Rect box;
    if (relation.CachedBoundingBox(id, &box)) {
      int decision = DecideFromBox(box, type, q);
      if (decision > 0) {
        kept.push_back(id);
        ++filter->early_accepts;
        bbox_accepts->Increment();
        continue;
      }
      if (decision < 0) {
        ++*false_hits;
        ++filter->refine_rejects;
        bbox_rejects->Increment();
        continue;
      }
    }
    // Layer (a): ascending ids cluster into consecutive page runs; pin
    // each run's page once. Checkpoints fire at page granularity.
    PageId pid;
    CDB_RETURN_IF_ERROR(relation.LocateTuple(id, &pid));
    if (!page.has_value() || pid != pinned) {
      page.reset();
      CDB_RETURN_IF_ERROR(CheckQueryContext(ctx));
      Result<PageRef> ref = [&] {
        CDB_TRACE_SPAN("fetch-page");
        return relation.pager()->Fetch(pid);
      }();
      if (!ref.ok()) return ref.status();
      page.emplace(std::move(ref.value()));
      pinned = pid;
      batch_pages->Increment();
    }
    GeneralizedTuple tuple;
    CDB_RETURN_IF_ERROR(relation.GetFromPage(*page, id, &tuple));
    // Layer (b): normalize into the reused SoA buffers and decide via the
    // flat-loop kernels.
    CDB_TRACE_SPAN("lp");
    lp_calls->Increment();
    soa.clear();
    AppendNormalized2D(tuple.constraints(), &soa);
    NormSlice2D slice{&soa, 0, soa.size()};
    if (ExactHalfPlaneSlice(slice, type, q)) {
      kept.push_back(id);
      ++filter->refine_accepts;
    } else {
      ++*false_hits;
      ++filter->refine_rejects;
    }
  }
  *ids = std::move(kept);
  return Status::OK();
}

}  // namespace cdb
