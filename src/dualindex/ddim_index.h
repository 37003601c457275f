// d-dimensional dual index (Section 4.4 of the paper).
//
// Each point b^i in the predefined set S ⊂ E^{d-1} owns two B+-trees with
// the values TOP^P(b^i) / BOT^P(b^i) of every tuple. A query whose slope
// point is in S is answered exactly by one sweep. Otherwise technique T1
// generalizes: choose up to d points of S whose convex hull contains the
// query slope point; the app-query hyperplanes through a common anchor
// point on the query hyperplane cover the query half-space (the convex-
// combination argument in DESIGN.md), so a union of d sweeps plus
// refinement is sound. An EXIST query maps to d EXIST app-queries; an ALL
// query to one ALL app-query (nearest slope) plus d-1 EXISTs.
//
// Tuples live in a paged RelationD; the refinement step's tuple reads are
// accounted exactly like the 2-D index's.

#ifndef CDB_DUALINDEX_DDIM_INDEX_H_
#define CDB_DUALINDEX_DDIM_INDEX_H_

#include <memory>
#include <vector>

#include "btree/bplus_tree.h"
#include "constraint/generalized_tuple.h"
#include "constraint/naive_eval.h"
#include "constraint/relation_d.h"
#include "dualindex/dual_index.h"  // QueryStats
#include "dualindex/sweep.h"
#include "geometry/lpd.h"
#include "obs/trace.h"

namespace cdb {

/// See file comment.
class DDimDualIndex {
 public:
  /// Creates an index over `relation` (dimension taken from it; the caller
  /// keeps the relation alive) for slope points `slope_points` (each of
  /// size dim-1), with B+-trees in `pager`. Existing live tuples are
  /// loaded with one BPlusTree::Insert per tree entry.
  static Status Create(Pager* pager, RelationD* relation,
                       std::vector<std::vector<double>> slope_points,
                       std::unique_ptr<DDimDualIndex>* out);

  /// Adds a satisfiable tuple to the relation and all trees; returns its
  /// id.
  Result<TupleId> Insert(const GeneralizedTupleD& tuple);

  /// Executes a d-dimensional ALL/EXIST half-plane selection: the exact
  /// sweep for a slope point in S, T1 otherwise. T1 requires the query
  /// slope point to lie in the convex hull of S (NotSupported otherwise); a
  /// non-finite slope component or a NaN intercept is InvalidArgument.
  /// When `profile` is non-null it receives the per-phase span breakdown.
  /// A failed page read has the same error contract as DualIndex::Select:
  /// no pinned pages, balanced stats, unprocessed candidates booked as
  /// `filter.abandoned`.
  Result<std::vector<TupleId>> Select(SelectionType type,
                                      const HalfPlaneQueryD& q,
                                      QueryStats* stats = nullptr,
                                      obs::ExplainProfile* profile = nullptr);

  size_t dim() const { return relation_->dim(); }
  size_t tuple_count() const { return relation_->size(); }
  uint64_t live_page_count() const { return pager_->live_page_count(); }

  /// Pagers for exec::QueryExecutor read sessions. Select is stateless per
  /// call, so concurrent Selects are safe in concurrent-read mode.
  Pager* pager() const { return pager_; }
  RelationD* relation() const { return relation_; }

 private:
  DDimDualIndex(Pager* pager, RelationD* relation,
                std::vector<std::vector<double>> slope_points)
      : pager_(pager),
        relation_(relation),
        slope_points_(std::move(slope_points)) {}

  /// Index of the slope point equal to `p`, or npos.
  size_t FindExact(const std::vector<double>& p) const;

  /// Finds up to d slope points whose convex hull contains `p`; empty on
  /// failure.
  std::vector<size_t> FindCoveringSimplex(const std::vector<double>& p) const;

  /// Inserts surface keys for an already-stored tuple into all trees.
  Status IndexTuple(TupleId id, const GeneralizedTupleD& tuple);

  Result<std::vector<TupleId>> SelectT1(SelectionType type,
                                        const HalfPlaneQueryD& q,
                                        QueryStats* st);
  Status Refine(SelectionType type, const HalfPlaneQueryD& q,
                std::vector<TupleId>* ids, QueryStats* st);

  /// The tree `plan` reads among slope point i's pair.
  const BPlusTree& Tree(size_t i, const SweepPlan& plan) const {
    return *(plan.up_tree ? up_ : down_)[i];
  }

  Pager* pager_;
  RelationD* relation_;
  std::vector<std::vector<double>> slope_points_;
  std::vector<std::unique_ptr<BPlusTree>> up_, down_;
};

}  // namespace cdb

#endif  // CDB_DUALINDEX_DDIM_INDEX_H_
