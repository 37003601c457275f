#include "dualindex/sweep.h"

#include <algorithm>
#include <limits>

#include "dualindex/dual_index.h"

namespace cdb {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Walks the leaf chain of `tree` away from `b` — upward or downward — and
// appends every entry it passes until a key lies beyond `limit`. Entries
// with key == b are taken when `take_equal`, skipped otherwise. The walk
// starts from one seek at the split between those entries and their
// neighbours (the first key >= b, or the first key > b), so keys equal to
// b are taken or skipped whole, however many leaves they fill. With
// `bound` non-null, folds handicap `slot` of every visited leaf into it:
// min upward, max downward.
Status Walk(const BPlusTree& tree, double b, bool upward, bool take_equal,
            double limit, int slot, double* bound, std::vector<TupleId>* out,
            QueryStats* stats) {
  LeafCursor cur;
  // Keys equal to b lie above the split when an upward walk takes them or
  // a downward walk skips them.
  if (upward == take_equal) {
    CDB_RETURN_IF_ERROR(tree.SeekLeaf(b, &cur));
  } else {
    CDB_RETURN_IF_ERROR(tree.SeekLeafPast(b, &cur));
  }
  bool first = true;
  while (cur.valid()) {
    if (bound != nullptr) {
      const double h = cur.handicap(slot);
      *bound = upward ? std::min(*bound, h) : std::max(*bound, h);
    }
    if (upward) {
      for (int j = first ? cur.seek_pos() : 0; j < cur.entry_count(); ++j) {
        if (cur.key(j) > limit) return Status::OK();
        out->push_back(cur.value(j));
        ++stats->candidates;
      }
      CDB_RETURN_IF_ERROR(cur.NextLeaf());
    } else {
      for (int j = (first ? cur.seek_pos() : cur.entry_count()) - 1; j >= 0;
           --j) {
        if (cur.key(j) < limit) return Status::OK();
        out->push_back(cur.value(j));
        ++stats->candidates;
      }
      CDB_RETURN_IF_ERROR(cur.PrevLeaf());
    }
    first = false;
  }
  return Status::OK();
}

}  // namespace

SweepPlan PlanSweep(SelectionType type, Cmp cmp, bool next_side) {
  const bool upward = cmp == Cmp::kGE;
  const int slot = upward ? BPlusTree::LowSlot(next_side)
                          : BPlusTree::HighSlot(next_side);
  return {(type == SelectionType::kExist) == upward, upward, slot};
}

Status Sweep(const BPlusTree& tree, double b, bool upward,
             std::vector<TupleId>* out, QueryStats* stats) {
  return Walk(tree, b, upward, /*take_equal=*/true, upward ? kInf : -kInf,
              /*slot=*/-1, /*bound=*/nullptr, out, stats);
}

Result<std::vector<TupleId>> SelectExact(const BPlusTree& tree, bool upward,
                                         double b, QueryStats* stats) {
  std::vector<TupleId> ids;
  {
    CDB_TRACE_SPAN("sweep/exact");
    CDB_RETURN_IF_ERROR(Sweep(tree, b, upward, &ids, stats));
  }
  std::sort(ids.begin(), ids.end());
  stats->filter.early_accepts += ids.size();
  return ids;
}

Status FilterT1(std::span<const AppSweep> sweeps, std::vector<TupleId>* ids,
                QueryStats* stats) {
  CDB_TRACE_SPAN("filter");
  for (const AppSweep& s : sweeps) {
    CDB_TRACE_SPAN("sweep/exact");
    CDB_RETURN_IF_ERROR(Sweep(*s.tree, s.b, s.upward, ids, stats));
  }
  std::sort(ids->begin(), ids->end());
  const size_t before = ids->size();
  ids->erase(std::unique(ids->begin(), ids->end()), ids->end());
  stats->filter.dedup_dropped += before - ids->size();
  return Status::OK();
}

Status FilterT2(const BPlusTree& tree, const SweepPlan& plan, double b,
                std::vector<TupleId>* ids, QueryStats* stats) {
  CDB_TRACE_SPAN("filter");
  const bool augmented = tree.augmented();
  double bound = plan.upward ? kInf : -kInf;
  bool have_bound = true;
  {
    CDB_TRACE_SPAN("sweep/first");
    CDB_RETURN_IF_ERROR(Walk(tree, b, plan.upward, /*take_equal=*/true,
                             plan.upward ? kInf : -kInf, plan.slot,
                             augmented ? nullptr : &bound, ids, stats));
  }
  if (augmented) {
    CDB_TRACE_SPAN("sweep/bound");
    CDB_RETURN_IF_ERROR(
        tree.SecondSweepBound(plan.slot, b, &have_bound, &bound));
  }
  if (have_bound && (plan.upward ? bound < b : bound > b)) {
    CDB_TRACE_SPAN("sweep/second");
    CDB_RETURN_IF_ERROR(Walk(tree, b, !plan.upward, /*take_equal=*/false,
                             bound, /*slot=*/-1, /*bound=*/nullptr, ids,
                             stats));
  }
  std::sort(ids->begin(), ids->end());
  return Status::OK();
}

void FinishSelect(obs::Tracer* tracer,
                  const Result<std::vector<TupleId>>& result, QueryStats* st,
                  obs::ExplainProfile* profile) {
  const obs::PhaseCost totals = obs::FinishQueryTrace(tracer, profile);
  st->index_page_fetches = totals.index_fetches;
  st->tuple_page_fetches = totals.tuple_reads;
  st->filter.candidates = st->candidates;
  if (result.ok()) {
    st->results = result.value().size();
  } else {
    st->filter.abandoned =
        st->candidates -
        (st->filter.dedup_dropped + st->filter.early_accepts +
         st->filter.refine_accepts + st->filter.refine_rejects);
    st->results = st->filter.early_accepts + st->filter.refine_accepts;
  }
  st->filter.results = st->results;
  if (profile != nullptr) profile->filter = st->filter;
}

}  // namespace cdb
