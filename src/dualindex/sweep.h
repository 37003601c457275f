// The B+-tree sweeps behind every dual-index selection. The 2-D DualIndex
// uses all of them; the d-dimensional DDimDualIndex uses all but FilterT2
// (Section 4.4 reuses the Section 3 and 4.1 machinery unchanged):
//  * PlanSweep — Section 3's lookup table: which of a slope's two trees
//    answers a selection, which way its first sweep runs, and which
//    handicap slot bounds T2's second sweep;
//  * Sweep / SelectExact — Section 3's exact sweep, and the exact selection
//    built on it (sorted, every hit an early accept, no refinement);
//  * FilterT1 — Section 4.1's T1 filter (and its Section 4.4
//    generalization): one exact sweep per app-query, sort, deduplicate;
//  * FilterT2 — Section 4.2's T2 filter on one tree (2-D only): first
//    sweep, the second-sweep bound, the bounded second sweep, sort;
//  * FinishSelect — a selection's closing books (page fetches, filter
//    partition); every 2-D dual, d-dimensional and R+-tree selection
//    closes through it, error exits included.
//
// The leaf cursor holds no pin between moves, so a sweep that fails on a
// page read leaves the pager clean.

#ifndef CDB_DUALINDEX_SWEEP_H_
#define CDB_DUALINDEX_SWEEP_H_

#include <span>
#include <vector>

#include "btree/bplus_tree.h"
#include "constraint/naive_eval.h"
#include "obs/trace.h"

namespace cdb {

struct QueryStats;

/// How one selection runs against a slope's tree pair (B^up keyed by TOP,
/// B^down by BOT).
struct SweepPlan {
  bool up_tree;  // B^up, else B^down.
  bool upward;   // First sweep: keys >= b upward, keys <= b downward.
  int slot;      // Handicap slot bounding T2's second sweep.
};

/// Section 3: EXIST(q(>=)) and ALL(q(<=)) read B^up, ALL(q(>=)) and
/// EXIST(q(<=)) read B^down; the first sweep runs upward exactly for
/// θ = >=. The slot is a low (min-combined) one for upward first sweeps
/// and a high (max-combined) one for downward ones, taken on the side of
/// the slope the query lies on (`next_side`: toward the next slope of S).
SweepPlan PlanSweep(SelectionType type, Cmp cmp, bool next_side);

/// Appends every entry of `tree` with key >= b (upward) or key <= b
/// (downward) to `out`, counting each in stats->candidates.
Status Sweep(const BPlusTree& tree, double b, bool upward,
             std::vector<TupleId>* out, QueryStats* stats);

/// An exact selection: Sweep under a "sweep/exact" span, then sort. There
/// is no refinement, so every hit is booked as an early accept.
Result<std::vector<TupleId>> SelectExact(const BPlusTree& tree, bool upward,
                                         double b, QueryStats* stats);

/// One app-query of T1's filter: an exact sweep of `tree` from `b`.
struct AppSweep {
  const BPlusTree* tree;
  double b;
  bool upward;
};

/// T1's filter under a "filter" span: each of `sweeps` under its own
/// "sweep/exact" span, appending to `ids`, then sort and drop the tuples
/// more than one app-query returned (booked in
/// stats->filter.dedup_dropped).
Status FilterT1(std::span<const AppSweep> sweeps, std::vector<TupleId>* ids,
                QueryStats* stats);

/// T2's filter on `tree` under a "filter" span: the first sweep
/// ("sweep/first"), the second-sweep bound, the second sweep in the other
/// direction up to that bound ("sweep/second"), then sort. An ordinary
/// tree's bound folds handicap `plan.slot` over the leaves the first sweep
/// visits; an augmented tree's comes from one aggregate descent
/// (BPlusTree::SecondSweepBound, "sweep/bound"). Duplicate-free: the two
/// sweeps cover disjoint key ranges.
Status FilterT2(const BPlusTree& tree, const SweepPlan& plan, double b,
                std::vector<TupleId>* ids, QueryStats* stats);

/// Finishes `tracer` and closes the selection's books in `st`: page
/// fetches from the trace totals (logical index fetches, physical tuple
/// reads; DESIGN.md decision 11) and the filter partition. After an error
/// exit (a failed page read) the candidates never classified are booked as
/// abandoned, so the partition still balances. `profile`
/// (optional) receives the span tree and a copy of the partition.
void FinishSelect(obs::Tracer* tracer,
                  const Result<std::vector<TupleId>>& result, QueryStats* st,
                  obs::ExplainProfile* profile);

}  // namespace cdb

#endif  // CDB_DUALINDEX_SWEEP_H_
