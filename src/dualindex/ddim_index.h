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
// Technique T2 generalizes per the paper's sketch ("we need the proximity
// partition of E^{d-1} induced by the Voronoi diagram from the points of
// S"): for d = 3 the slope space is a plane, each slope point's Voronoi
// cell is an intersection of bisector half-planes (clipped to the bounding
// box of S), and a tuple's assignment value for tree i is the extremum of
// its dual surface over the cell — attained at a cell vertex by
// convexity/concavity. One handicap-bounded double sweep then answers any
// query whose slope point falls inside the box; queries outside it, and
// dimensions above 3, fall back to T1 (which is what the paper's own
// evaluation, conducted entirely in E^2, also never exercised).
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

  /// Query strategy for non-exact slope points.
  enum class Method {
    kExactOnly,  // Require the slope point to be in S.
    kT1,         // Covering-simplex approximation (any d).
    kT2,         // Voronoi-handicap single-tree search (d == 3, slope point
                 // inside the bounding box of S; falls back to T1 else).
  };

  /// Executes a d-dimensional ALL/EXIST half-plane selection. T1 requires
  /// the query slope point to lie in the convex hull of S (NotSupported
  /// otherwise). When `profile` is non-null it receives the per-phase span
  /// breakdown. A failed page read has the same error contract as
  /// DualIndex::Select: no pinned pages, balanced stats, unprocessed
  /// candidates booked as `filter.abandoned`.
  Result<std::vector<TupleId>> Select(SelectionType type,
                                      const HalfPlaneQueryD& q,
                                      Method method = Method::kT1,
                                      QueryStats* stats = nullptr,
                                      obs::ExplainProfile* profile = nullptr);

  size_t dim() const { return relation_->dim(); }
  size_t tuple_count() const { return relation_->size(); }
  uint64_t live_page_count() const { return pager_->live_page_count(); }

  /// Pagers for exec::QueryExecutor read sessions. Select is stateless per
  /// call (Voronoi cells are precomputed at Create and read-only after), so
  /// concurrent Selects are safe in concurrent-read mode.
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

  /// Precomputes the Voronoi cell vertices of every slope point (d == 3
  /// only; no-op otherwise).
  void BuildVoronoiCells();

  /// Folds one tuple's handicap contributions for every tree (d == 3).
  Status FoldHandicapsD(const GeneralizedTupleD& tuple);

  Result<std::vector<TupleId>> SelectT1(SelectionType type,
                                        const HalfPlaneQueryD& q,
                                        QueryStats* st);
  Result<std::vector<TupleId>> SelectT2(SelectionType type,
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
  /// d == 3 only: Voronoi cell vertices (in the 2-D slope plane, clipped to
  /// the bounding box of S) per slope point. Empty for other dimensions.
  std::vector<std::vector<std::vector<double>>> cell_vertices_;
};

}  // namespace cdb

#endif  // CDB_DUALINDEX_DDIM_INDEX_H_
