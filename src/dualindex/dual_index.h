// DualIndex — the paper's contribution: ALL/EXIST half-plane selection over
// a generalized relation via the dual representation, backed by B+-trees.
//
// For every slope a_i in the predefined set S the index maintains
//   B_i^up   keyed by TOP^P(a_i)   and   B_i^down keyed by BOT^P(a_i)
// (Section 3). A query whose slope is in S is answered exactly by one
// B+-tree sweep; otherwise either
//   T1 (Section 4.1): two app-queries with slopes in S, union + refinement
//      (duplicates possible), or
//   T2 (Section 4.2/4.3): a single B+-tree is swept twice — upward and
//      downward from the query intercept — using per-leaf handicap values
//      to bound the second sweep; duplicate-free by construction.
// Both techniques return a superset of the answer; a refinement step
// (exact predicates on each tuple's V-representation) removes false hits.
//
// Unbounded tuples are stored as ±infinity keys — the index never
// approximates objects, only queries (the paper's central design point).

#ifndef CDB_DUALINDEX_DUAL_INDEX_H_
#define CDB_DUALINDEX_DUAL_INDEX_H_

#include <memory>
#include <vector>

#include "btree/bplus_tree.h"
#include "common/query_context.h"
#include "constraint/naive_eval.h"
#include "constraint/relation.h"
#include "dualindex/app_query.h"
#include "dualindex/slope_set.h"
#include "obs/health.h"
#include "obs/trace.h"

namespace cdb {

/// Query-execution strategy.
enum class QueryMethod {
  kAuto,        // Exact when the slope is in S; otherwise T2.
  kRestricted,  // Require the slope to be in S (error otherwise).
  kT1,          // Two app-queries (Section 4.1).
  kT2,          // Single-tree handicap search (Section 4.2).
};

/// Per-query execution statistics, the paper's evaluation currency.
struct QueryStats {
  uint64_t index_page_fetches = 0;  // B+-tree page accesses (logical; each
                                    // leaf is visited exactly once).
  uint64_t tuple_page_fetches = 0;  // Relation pages physically read by the
                                    // refinement step (candidates are
                                    // visited in id order, so buffered
                                    // re-reads of a page are not charged).
  uint64_t candidates = 0;          // Entries returned by sweeps.
  uint64_t duplicates = 0;          // Candidates seen more than once (T1).
  uint64_t false_hits = 0;          // Candidates removed by refinement.
  uint64_t results = 0;
  bool used_wrap_fallback = false;  // T2 delegated to T1 (slope outside S).

  /// Filter-precision phase accounting (ISSUE 6): partitions `candidates`
  /// into dedup drops / early accepts / refinement accepts / refinement
  /// rejects. filter.Balances() holds on every path by construction (the
  /// filter_precision tests prove it); also copied into the query's
  /// ExplainProfile when one is attached.
  obs::FilterCounts filter;
};

struct DualIndexOptions {
  /// Use the exact interval extrema (envelope maxima) for the ALL-family
  /// assignment values instead of the paper's TOP/BOT endpoint bounds
  /// (ablation E9 in DESIGN.md). Both are safe; tight shortens second
  /// sweeps at higher build cost.
  bool tight_assignment = false;

  /// Skip the refinement step and return the raw candidate superset.
  /// Exact queries (slope in S) are never refined — they are exact.
  bool refine = true;

  /// Anchor x for T1 app-query lines (see PlanAppQueries).
  double anchor_x = 0.0;

  /// Maintain two additional B+-trees over the tuples' x-extent support
  /// values (min/max of x), enabling *exact* vertical half-plane queries
  /// x θ c (the paper's footnote 4 extension). Costs ~2/k extra space.
  bool support_vertical = false;

  /// Maintain handicaps incrementally (DESIGN.md section 2d): the 2k trees
  /// are built augmented, Insert/Remove keep every leaf slot and internal
  /// aggregate exact, and T2 reads its second-sweep bound by one
  /// root-to-leaf descent instead of folding per-leaf handicaps. With this
  /// on, RebuildHandicaps() is a no-op compaction — values never go stale.
  /// Persisted in the trees' meta pages; Open() rederives it from there.
  bool incremental_handicaps = false;

  /// Staleness budget for ordinary (non-augmented) trees (ISSUE 5,
  /// ROADMAP item): when handicap_staleness() exceeds this after an
  /// Insert/Remove, the index runs RebuildHandicaps() automatically and
  /// increments the "dual.handicap.compactions" counter. 0 (the default)
  /// disables auto-compaction — staleness then accumulates until an
  /// explicit rebuild, exactly as before. Ignored with
  /// incremental_handicaps (staleness is always 0 there).
  uint64_t handicap_staleness_budget = 0;
};

/// Everything needed to reopen a DualIndex from its pager: the slope set,
/// the options it was built with, and the meta pages of its B+-trees.
/// Persisted by ConstraintDatabase's catalog.
struct DualIndexManifest {
  std::vector<double> slopes;
  bool tight_assignment = false;
  bool support_vertical = false;
  std::vector<PageId> up_metas;
  std::vector<PageId> down_metas;
  PageId xmax_meta = kInvalidPageId;
  PageId xmin_meta = kInvalidPageId;
};

/// See file comment. The index does not own the pager or the relation.
class DualIndex {
 public:
  /// Creates an empty index over `slopes` in `pager`, then bulk-loads every
  /// live tuple of `relation`. The relation is also the refinement source;
  /// keep it alive and in sync via Insert/Remove.
  static Status Build(Pager* pager, Relation* relation, SlopeSet slopes,
                      const DualIndexOptions& options,
                      std::unique_ptr<DualIndex>* out);

  /// Reattaches to an existing index previously described by Manifest().
  static Status Open(Pager* pager, Relation* relation,
                     const DualIndexManifest& manifest,
                     const DualIndexOptions& runtime_options,
                     std::unique_ptr<DualIndex>* out);

  /// Description sufficient to Open() this index later.
  DualIndexManifest Manifest() const;

  /// Adds a tuple to all 2k trees (and folds its handicap contributions).
  /// The tuple must be satisfiable and already stored in the relation under
  /// `id`; keys and assignments come from the relation's V-representation
  /// mirror. O(k log_B n) page accesses (Theorem 3.1/4.1).
  Status Insert(TupleId id, const GeneralizedTuple& tuple);

  /// Runs Insert's validation pass — ValidateTuple plus a satisfiable
  /// V-representation, which makes every support value Insert reads a
  /// number — without touching any tree or the pager. The group-commit
  /// ingest queue calls this at admission so a malformed tuple is rejected
  /// producer-side with InvalidArgument instead of failing its whole commit
  /// group mid-apply.
  Status ValidateForInsert(const GeneralizedTuple& tuple) const;

  /// Removes a tuple from all trees. Handicaps are left conservatively
  /// stale (see DESIGN.md decision 2); call RebuildHandicaps() to restore
  /// exact values.
  Status Remove(TupleId id, const GeneralizedTuple& tuple);

  /// Executes ALL(q, r) or EXIST(q, r). Results are sorted by tuple id.
  /// `profile` (optional) receives the span-attributed phase tree of the
  /// execution ("EXPLAIN ANALYZE"); its phase sums equal the pager totals
  /// exactly (obs/trace.h).
  ///
  /// `ctx` (optional) carries a deadline and/or CancelToken, checked at
  /// every page-fetch boundary (each leaf visited, each candidate
  /// refined). A fired context returns kDeadlineExceeded/kCancelled with
  /// zero pinned pages and `stats` still balanced: the candidates the
  /// query never processed are booked as filter.abandoned.
  Result<std::vector<TupleId>> Select(SelectionType type,
                                      const HalfPlaneQuery& q,
                                      QueryMethod method,
                                      QueryStats* stats = nullptr,
                                      obs::ExplainProfile* profile = nullptr,
                                      const QueryContext* ctx = nullptr);

  /// Exact vertical selection (x θ c). Requires
  /// DualIndexOptions::support_vertical; one sweep, no refinement.
  Result<std::vector<TupleId>> SelectVertical(
      SelectionType type, const VerticalQuery& q, QueryStats* stats = nullptr,
      obs::ExplainProfile* profile = nullptr);

  /// Slab selection: the region between two parallel lines,
  ///   b_lo <= y - slope*x <= b_hi.
  /// ALL = extension inside the slab (BOT >= b_lo and TOP <= b_hi);
  /// EXIST = extension meets the slab (TOP >= b_lo and BOT <= b_hi).
  /// Exact, via set algebra over B^up/B^down sweeps — the "interval
  /// management" view of the paper's footnote 6 (each tuple is the interval
  /// [BOT, TOP] at the query slope). Requires slope in S.
  Result<std::vector<TupleId>> SelectSlab(
      SelectionType type, double slope, double b_lo, double b_hi,
      QueryStats* stats = nullptr, obs::ExplainProfile* profile = nullptr);

  /// Recomputes every handicap value exactly from the relation contents.
  /// With incremental_handicaps this is a compaction pass (the values are
  /// already exact); without it, the only way to restore exactness.
  Status RebuildHandicaps();

  /// Sum of BPlusTree::handicap_staleness() over the 2k trees: how many
  /// handicap-degrading events have accumulated since the last rebuild.
  /// Always 0 with incremental_handicaps.
  uint64_t handicap_staleness() const;

  /// Publishes handicap_staleness() as the "dual.handicap.staleness" gauge.
  /// Export-path only — Insert/Remove/Select never call it unless a
  /// triggered staleness budget just compacted (the gauge then reflects
  /// the post-rebuild value): serial bench artifacts that predate this
  /// metric stay byte-identical.
  void ExportStalenessMetrics() const;

  /// Runs BPlusTree::CheckInvariants on all 2k trees (and the vertical
  /// support trees when present); returns the first violation. Used by the
  /// cdb_check integrity checker and the crash-recovery tests.
  Status CheckInvariants() const;

  /// Fills `out` with per-tree structure, occupancy, staleness and
  /// handicap-tightness numbers plus slope-set coverage (ISSUE 6,
  /// obs/health.h). Tightness replays the exact fold over the live
  /// relation through the same contribution enumeration the write path
  /// uses, so stored-vs-exact gaps measure staleness drift, never math
  /// drift. Read-only; O(|relation| * k + leaves) page accesses.
  Status CollectHealth(obs::HealthReport* out) const;

  /// Attaches (nullptr detaches) an observed query-slope histogram:
  /// Select() then records every query's slope. Off by default — the
  /// serving path pays one null check and serial bench artifacts stay
  /// untouched. The observer must outlive its attachment.
  void set_slope_observer(obs::SlopeHistogram* observer) {
    slope_observer_ = observer;
  }

  /// Trees this index owns (2k, plus 2 with vertical support).
  size_t tree_count() const {
    return up_.size() + down_.size() + (xmax_ != nullptr ? 2 : 0);
  }

  /// Human-readable, single-line-per-step description of how Select()
  /// would execute the query (tree choice, sweep directions, app-query
  /// plan, fallbacks) — without running it.
  std::string Explain(SelectionType type, const HalfPlaneQuery& q,
                      QueryMethod method) const;

  const SlopeSet& slopes() const { return slopes_; }

  /// Pages currently used by the index (Figure 10 metric).
  uint64_t live_page_count() const { return pager_->live_page_count(); }

  /// The pagers a read session must cover to run Select on a worker thread
  /// (exec::QueryExecutor). Select/SelectVertical/SelectSlab keep no shared
  /// mutable state of their own — sweeps use stack-local leaf cursors — so
  /// they are safe to call concurrently while both pagers are in
  /// concurrent-read mode and no mutation runs.
  Pager* pager() const { return pager_; }
  Relation* relation() const { return relation_; }

 private:
  DualIndex(Pager* pager, Relation* relation, SlopeSet slopes,
            const DualIndexOptions& options)
      : pager_(pager),
        relation_(relation),
        slopes_(std::move(slopes)),
        options_(options) {}

  // One handicap write of FoldHandicaps: fold `v` into `slot` of the leaf
  // covering assignment value `at` on B_i^up (is_up) or B_i^down.
  struct HandicapContribution {
    bool is_up;
    double at;
    int slot;
    double v;
  };

  // Enumerates the four contributions of one tuple for tree i on the
  // interval toward neighbour `other` (Section 4.2 assignment values).
  // Shared by the FoldHandicaps write path and CollectHealth's read-only
  // replay, so the tightness measurement can never drift from the fold.
  Status HandicapContributions(size_t i, size_t other,
                               const Polyhedron2DView& shape, double top_i,
                               double bot_i, HandicapContribution out[4]) const;

  // Folds the contributions of HandicapContributions into tree i's leaves.
  Status FoldHandicaps(size_t i, size_t other, const Polyhedron2DView& shape,
                       double top_i, double bot_i);

  // Incremental-mode twin of FoldHandicaps: fills the tuple's four
  // assignment values m[0..3] for tree i (up or down), one per handicap
  // slot; slots whose neighbour interval does not exist get the augmented
  // neutral values. Same Section 4.2 math, same tight_assignment knob.
  Status TreeAssignments(size_t i, bool is_up, const Polyhedron2DView& shape,
                         double* m) const;

  // Installs the AssignmentFn of every augmented tree (reads the tuple's
  // shape from the relation's mirror and delegates to TreeAssignments).
  void RegisterAssignmentFns();

  // The V-representation of tuple `id`: the relation's mirror entry, or,
  // when the relation does not hold `id`, `tuple`'s built into `*local`.
  Polyhedron2DView ShapeOf(TupleId id, const GeneralizedTuple& tuple,
                           Polyhedron2D* local) const;

  // Insert/Remove tail: triggers RebuildHandicaps() when the configured
  // staleness budget is exceeded (see
  // DualIndexOptions::handicap_staleness_budget).
  Status MaybeAutoCompact();

  // Sweeps tree `tree` starting at `intercept`: upward collects entries with
  // key >= intercept, downward key < intercept... (exact semantics in .cc).
  // All query-path helpers take the caller's QueryContext (may be null) and
  // check it once per leaf moved / candidate refined.
  Status SweepCollect(BPlusTree* tree, double from, bool upward, int slot,
                      std::vector<TupleId>* out, double* handicap_bound,
                      QueryStats* stats, const QueryContext* ctx);
  Status SweepSecond(BPlusTree* tree, double from, bool downward, double bound,
                     std::vector<TupleId>* out, QueryStats* stats,
                     const QueryContext* ctx);

  // Executes one exact (slope in S) selection; appends ids to out.
  Status RunExact(const AppQuery& aq, std::vector<TupleId>* out,
                  QueryStats* stats, const QueryContext* ctx);

  Result<std::vector<TupleId>> SelectT1(SelectionType type,
                                        const HalfPlaneQuery& q,
                                        QueryStats* stats,
                                        const QueryContext* ctx);
  Result<std::vector<TupleId>> SelectT2(SelectionType type,
                                        const HalfPlaneQuery& q,
                                        QueryStats* stats,
                                        const QueryContext* ctx);

  // Removes candidates failing the exact predicate (when options_.refine).
  Status Refine(SelectionType type, const HalfPlaneQuery& q,
                std::vector<TupleId>* ids, QueryStats* stats,
                const QueryContext* ctx);

  Pager* pager_;
  Relation* relation_;
  SlopeSet slopes_;
  DualIndexOptions options_;
  obs::SlopeHistogram* slope_observer_ = nullptr;
  std::vector<std::unique_ptr<BPlusTree>> up_;    // TOP^P(a_i) trees.
  std::vector<std::unique_ptr<BPlusTree>> down_;  // BOT^P(a_i) trees.
  std::unique_ptr<BPlusTree> xmax_;  // max x per tuple (vertical queries).
  std::unique_ptr<BPlusTree> xmin_;  // min x per tuple.
};

}  // namespace cdb

#endif  // CDB_DUALINDEX_DUAL_INDEX_H_
