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

/// The 2-D check: Load proves the record live and reads the candidate's
/// mirrored shape; Holds decides ALL/EXIST on that shape, O(v).
struct MirroredShapeCheck {
  const Relation& relation;
  SelectionType type;
  const HalfPlaneQuery& q;
  Polyhedron2DView shape;

  Status Load(const PageRef& page, TupleId id) {
    // The fetched record must be the live tuple the directory promised;
    // the decision itself reads the mirror, not the record's bytes.
    const char* body = nullptr;
    uint16_t m = 0;
    CDB_RETURN_IF_ERROR(relation.heap().Record(page, id, &body, &m));
    // A record the heap shows has its mirror entry: the writer stores the
    // entry before the heap's release store publishes the id.
    if (relation.Shape(id, &shape)) return Status::OK();
    return Status::Internal("no V-representation for tuple " +
                            std::to_string(id));
  }

  bool Holds() const {
    return type == SelectionType::kAll ? ExactAll(shape, q)
                                       : ExactExist(shape, q);
  }
};

}  // namespace

Status RefineBatch2D(const Relation& relation, SelectionType type,
                     const HalfPlaneQuery& q, obs::Counter* lp_calls,
                     std::vector<TupleId>* ids, obs::FilterCounts* filter) {
  static obs::Counter* const bbox_accepts =
      obs::GlobalMetrics().counter("refine.batch.bbox_accepts");
  static obs::Counter* const bbox_rejects =
      obs::GlobalMetrics().counter("refine.batch.bbox_rejects");

  // The 2-D screen: every bounded tuple's box, derived from its mirrored
  // shape in O(v), decides the candidates it already proves.
  auto box_screen = [&](TupleId id) {
    Polyhedron2DView shape;
    Rect box;
    if (!relation.Shape(id, &shape) || !shape.BoundingRect(&box)) return 0;
    const int decision = DecideFromBox(box, type, q);
    if (decision > 0) bbox_accepts->Increment();
    if (decision < 0) bbox_rejects->Increment();
    return decision;
  };
  MirroredShapeCheck check{relation, type, q, {}};
  return RefinePageClustered(relation, lp_calls, ids, filter, box_screen,
                             check);
}

}  // namespace cdb
