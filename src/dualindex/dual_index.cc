#include "dualindex/dual_index.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <limits>

#include "constraint/refine_batch.h"
#include "dualindex/sweep.h"
#include "geometry/dual.h"
#include "obs/metrics.h"

namespace cdb {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Whether slope i of k has a neighbour on that side. A missing side's
// slots carry no contribution; they are skipped by index, never by value
// (unbounded tuples have real infinite assignments).
bool HasNeighbour(size_t i, size_t k, bool next_side) {
  return next_side ? i + 1 < k : i > 0;
}

// The write path's fold: MergeHandicap into the leaf covering `at`.
Status MergeFold(BPlusTree* tree, int slot, double at, double v) {
  return tree->MergeHandicap(at, slot, v);
}

// Leaf fill factor for bulk loads: dense pages (the paper's space profile)
// with slack for later inserts.
constexpr double kBulkFill = 0.8;

}  // namespace

Status DualIndex::Build(Pager* pager, Relation* relation, SlopeSet slopes,
                        const DualIndexOptions& options,
                        std::unique_ptr<DualIndex>* out) {
  std::unique_ptr<DualIndex> index(
      new DualIndex(pager, relation, std::move(slopes), options));
  const size_t k = index->slopes_.size();

  // Gather every tuple's surface values, then bulk-load each tree sorted —
  // one pass, packed leaves. Augmented entries carry their assignment
  // values, so those trees come out exact. Ordinary handicaps are computed
  // afterwards on the settled leaf structure, like the paper's
  // preprocessing phase. (Folding them while leaves split would smear
  // early contributions across the whole tree — conservative but useless
  // bounds.)
  const bool inc = options.incremental_handicaps;
  std::vector<std::vector<BPlusTree::AugEntry>> ups(k), downs(k);
  std::vector<std::pair<double, uint32_t>> xmaxs, xmins;
  CDB_RETURN_IF_ERROR(relation->ForEachShape(
      [&](TupleId id, const Polyhedron2DView& shape) -> Status {
        if (!shape.feasible) {
          return Status::InvalidArgument(
              "unsatisfiable tuple cannot be indexed (id " +
              std::to_string(id) + ")");
        }
        for (size_t i = 0; i < k; ++i) {
          const double top = TopValue(shape, index->slopes_.slope(i));
          const double bot = BotValue(shape, index->slopes_.slope(i));
          ups[i].push_back({top, id, {}});
          downs[i].push_back({bot, id, {}});
          if (inc) {
            CDB_RETURN_IF_ERROR(index->Assignments(
                i, shape, top, bot, ups[i].back().m, downs[i].back().m));
          }
        }
        if (options.support_vertical) {
          xmaxs.emplace_back(XMaxValue(shape), id);
          xmins.emplace_back(XMinValue(shape), id);
        }
        return Status::OK();
      }));

  index->up_.resize(k);
  index->down_.resize(k);
  for (size_t i = 0; i < k; ++i) {
    CDB_RETURN_IF_ERROR(BPlusTree::BulkLoad(pager, std::move(ups[i]),
                                            kBulkFill, inc, &index->up_[i]));
    CDB_RETURN_IF_ERROR(BPlusTree::BulkLoad(
        pager, std::move(downs[i]), kBulkFill, inc, &index->down_[i]));
  }
  if (options.support_vertical) {
    CDB_RETURN_IF_ERROR(
        BPlusTree::BulkLoad(pager, std::move(xmaxs), kBulkFill, &index->xmax_));
    CDB_RETURN_IF_ERROR(
        BPlusTree::BulkLoad(pager, std::move(xmins), kBulkFill, &index->xmin_));
  }
  if (inc) {
    index->RegisterAssignmentFns();
  } else {
    CDB_RETURN_IF_ERROR(index->RebuildHandicaps());
  }
  *out = std::move(index);
  return Status::OK();
}

Status DualIndex::Open(Pager* pager, Relation* relation,
                       const DualIndexManifest& manifest,
                       const DualIndexOptions& runtime_options,
                       std::unique_ptr<DualIndex>* out) {
  if (manifest.slopes.empty() ||
      manifest.up_metas.size() != manifest.slopes.size() ||
      manifest.down_metas.size() != manifest.slopes.size()) {
    return Status::InvalidArgument("inconsistent dual-index manifest");
  }
  DualIndexOptions options = runtime_options;
  options.tight_assignment = manifest.tight_assignment;
  options.support_vertical = manifest.support_vertical;
  std::unique_ptr<DualIndex> index(new DualIndex(
      pager, relation, SlopeSet(manifest.slopes), options));
  const size_t k = index->slopes_.size();
  index->up_.resize(k);
  index->down_.resize(k);
  for (size_t i = 0; i < k; ++i) {
    CDB_RETURN_IF_ERROR(
        BPlusTree::Open(pager, manifest.up_metas[i], &index->up_[i]));
    CDB_RETURN_IF_ERROR(
        BPlusTree::Open(pager, manifest.down_metas[i], &index->down_[i]));
  }
  // Whether the trees are augmented is persisted in their meta pages, not
  // the manifest; rederive the mode from the first tree (all 2k agree).
  index->options_.incremental_handicaps = index->up_[0]->augmented();
  for (size_t i = 0; i < k; ++i) {
    if (index->up_[i]->augmented() !=
            index->options_.incremental_handicaps ||
        index->down_[i]->augmented() !=
            index->options_.incremental_handicaps) {
      return Status::Corruption("mixed augmented/ordinary trees in manifest");
    }
  }
  if (index->options_.incremental_handicaps) index->RegisterAssignmentFns();
  if (manifest.support_vertical) {
    if (manifest.xmax_meta == kInvalidPageId ||
        manifest.xmin_meta == kInvalidPageId) {
      return Status::InvalidArgument("manifest missing vertical trees");
    }
    CDB_RETURN_IF_ERROR(
        BPlusTree::Open(pager, manifest.xmax_meta, &index->xmax_));
    CDB_RETURN_IF_ERROR(
        BPlusTree::Open(pager, manifest.xmin_meta, &index->xmin_));
  }
  *out = std::move(index);
  return Status::OK();
}

DualIndexManifest DualIndex::Manifest() const {
  DualIndexManifest m;
  m.slopes = slopes_.slopes();
  m.tight_assignment = options_.tight_assignment;
  m.support_vertical = options_.support_vertical;
  for (const auto& tree : up_) m.up_metas.push_back(tree->meta_page());
  for (const auto& tree : down_) m.down_metas.push_back(tree->meta_page());
  if (xmax_ != nullptr) m.xmax_meta = xmax_->meta_page();
  if (xmin_ != nullptr) m.xmin_meta = xmin_->meta_page();
  return m;
}

Status DualIndex::Assignments(size_t i, const Polyhedron2DView& shape,
                              double top_i, double bot_i, double* up,
                              double* down) const {
  if (!shape.feasible) return Status::InvalidArgument("unsatisfiable tuple");
  for (double* m : {up, down}) {
    for (int s = 0; m != nullptr && s < BPlusTree::kHandicapSlots; ++s) {
      m[s] = BPlusTree::NeutralHandicap(/*augmented=*/true, s);
    }
  }
  const double s_i = slopes_.slope(i);
  for (bool next_side : {false, true}) {
    if (!HasNeighbour(i, slopes_.size(), next_side)) continue;
    const double amid =
        (s_i + slopes_.slope(next_side ? i + 1 : i - 1)) / 2.0;
    const double lo = std::min(s_i, amid);
    const double hi = std::max(s_i, amid);
    const double top_mid = TopValue(shape, amid);
    const double bot_mid = BotValue(shape, amid);
    const int low = BPlusTree::LowSlot(next_side);
    const int high = BPlusTree::HighSlot(next_side);
    if (up != nullptr) {
      // EXIST(q(>=)): max TOP over [s_i, amid] (exact at the endpoints:
      // TOP is convex in the slope).
      up[low] = std::max(top_i, top_mid);
      // ALL(q(<=)): must lower-bound min TOP over the interval; the paper
      // variant uses min BOT at the endpoints (concave, exact), the tight
      // variant scans the envelope's breakpoints.
      up[high] = options_.tight_assignment ? MinTopOverInterval(shape, lo, hi)
                                           : std::min(bot_i, bot_mid);
    }
    if (down != nullptr) {
      // ALL(q(>=)): must upper-bound max BOT over the interval; the paper
      // variant uses max TOP at the endpoints.
      down[low] = options_.tight_assignment
                      ? MaxBotOverInterval(shape, lo, hi)
                      : std::max(top_i, top_mid);
      // EXIST(q(<=)): min BOT over [s_i, amid] (exact: BOT is concave).
      down[high] = std::min(bot_i, bot_mid);
    }
  }
  return Status::OK();
}

Status DualIndex::FoldHandicaps(size_t i, const Polyhedron2DView& shape,
                                double top, double bot,
                                const FoldFn& fold) const {
  double up[4], down[4];
  CDB_RETURN_IF_ERROR(Assignments(i, shape, top, bot, up, down));
  for (bool next_side : {false, true}) {
    if (!HasNeighbour(i, slopes_.size(), next_side)) continue;
    const int slots[] = {BPlusTree::LowSlot(next_side),
                         BPlusTree::HighSlot(next_side)};
    for (int slot : slots) {
      CDB_RETURN_IF_ERROR(fold(up_[i].get(), slot, up[slot], top));
    }
    for (int slot : slots) {
      CDB_RETURN_IF_ERROR(fold(down_[i].get(), slot, down[slot], bot));
    }
  }
  return Status::OK();
}

void DualIndex::RegisterAssignmentFns() {
  for (size_t i = 0; i < up_.size(); ++i) {
    for (bool is_up : {true, false}) {
      BPlusTree* tree = is_up ? up_[i].get() : down_[i].get();
      tree->SetAssignmentFn(
          [this, i, is_up](uint32_t value, double* m) -> Status {
            Polyhedron2DView shape;
            if (!relation_->Shape(value, &shape)) {
              return Status::NotFound("tuple " + std::to_string(value));
            }
            return TreeAssignments(i, is_up, shape, m);
          });
    }
  }
}

Status DualIndex::TreeAssignments(size_t i, bool is_up,
                                  const Polyhedron2DView& shape,
                                  double* m) const {
  const double s_i = slopes_.slope(i);
  return Assignments(i, shape, TopValue(shape, s_i), BotValue(shape, s_i),
                     is_up ? m : nullptr, is_up ? nullptr : m);
}

Polyhedron2DView DualIndex::ShapeOf(TupleId id, const GeneralizedTuple& tuple,
                                    Polyhedron2D* local) const {
  Polyhedron2DView shape;
  if (relation_->Shape(id, &shape)) return shape;
  *local = tuple.Polyhedron();
  return local->view();
}

Status DualIndex::ValidateForInsert(const GeneralizedTuple& tuple) const {
  CDB_RETURN_IF_ERROR(ValidateTuple(tuple));
  if (!tuple.IsSatisfiable()) {
    return Status::InvalidArgument("unsatisfiable tuple cannot be indexed");
  }
  return Status::OK();
}

Status DualIndex::Insert(TupleId id, const GeneralizedTuple& tuple) {
  CDB_RETURN_IF_ERROR(ValidateTuple(tuple));
  Polyhedron2D local;
  const Polyhedron2DView shape = ShapeOf(id, tuple, &local);
  if (!shape.feasible) {
    return Status::InvalidArgument(
        "unsatisfiable tuple cannot be indexed (id " + std::to_string(id) +
        ")");
  }
  const size_t k = slopes_.size();
  if (xmax_ != nullptr) {
    CDB_RETURN_IF_ERROR(xmax_->Insert(XMaxValue(shape), id));
    CDB_RETURN_IF_ERROR(xmin_->Insert(XMinValue(shape), id));
  }
  for (size_t i = 0; i < k; ++i) {
    const double top = TopValue(shape, slopes_.slope(i));
    const double bot = BotValue(shape, slopes_.slope(i));
    if (options_.incremental_handicaps) {
      // Assignments ride along with the entry; the tree folds them into
      // the target leaf's slots and refreshes the aggregate path — no
      // global handicap smearing, values stay exact.
      double mu[4], md[4];
      CDB_RETURN_IF_ERROR(Assignments(i, shape, top, bot, mu, md));
      CDB_RETURN_IF_ERROR(up_[i]->InsertWithAssignment(top, id, mu));
      CDB_RETURN_IF_ERROR(down_[i]->InsertWithAssignment(bot, id, md));
      continue;
    }
    CDB_RETURN_IF_ERROR(up_[i]->Insert(top, id));
    CDB_RETURN_IF_ERROR(down_[i]->Insert(bot, id));
    CDB_RETURN_IF_ERROR(FoldHandicaps(i, shape, top, bot, MergeFold));
  }
  return Status::OK();
}

Status DualIndex::Remove(TupleId id, const GeneralizedTuple& tuple) {
  Polyhedron2D local;
  const Polyhedron2DView shape = ShapeOf(id, tuple, &local);
  if (!shape.feasible) return Status::InvalidArgument("unsatisfiable tuple");
  const size_t k = slopes_.size();
  if (xmax_ != nullptr) {
    CDB_RETURN_IF_ERROR(xmax_->Delete(XMaxValue(shape), id));
    CDB_RETURN_IF_ERROR(xmin_->Delete(XMinValue(shape), id));
  }
  for (size_t i = 0; i < k; ++i) {
    const double top = TopValue(shape, slopes_.slope(i));
    const double bot = BotValue(shape, slopes_.slope(i));
    CDB_RETURN_IF_ERROR(up_[i]->Delete(top, id));
    CDB_RETURN_IF_ERROR(down_[i]->Delete(bot, id));
    // Ordinary trees: handicaps stay conservatively stale (see header).
    // Augmented trees resolve the removed assignments via the callback
    // (which is why Remove must run before the relation's Delete) and
    // stay exact.
  }
  return Status::OK();
}

// --- The planner -------------------------------------------------------------

DualIndex::QueryPlan DualIndex::Plan(SelectionType type,
                                     const HalfPlaneQuery& q,
                                     QueryMethod method) const {
  QueryPlan plan;
  const SlopeLocation loc = slopes_.Locate(q.slope);
  if (loc.kind == SlopeLocation::Kind::kExact) {
    // Slope in S: every method runs Section 3's exact sweep.
    plan.path = QueryPlan::Path::kExact;
    plan.slope = loc.index;
    plan.sweep = PlanSweep(type, q.cmp, /*next_side=*/false);
    return plan;
  }
  if (method == QueryMethod::kRestricted) return plan;  // kReject.
  // The filter for a slope outside S: only an explicit kT2 asks for T2.
  // kAuto runs T1, whose candidate sets are several times smaller on the
  // serving path (DESIGN.md decision 74).
  const bool asks_t2 = method == QueryMethod::kT2;
  // Wrap-around region: T2's single-tree trick needs a same-surface
  // neighbour interval, so it falls back to T1 (DESIGN.md decision 4).
  plan.wrap_fallback =
      asks_t2 &&
      (loc.kind != SlopeLocation::Kind::kBetween || slopes_.size() < 2);
  if (!asks_t2 || plan.wrap_fallback) {
    plan.path = QueryPlan::Path::kT1;
    plan.app = PlanAppQueries(slopes_, type, q, options_.anchor_x);
    return plan;
  }
  // T2 (Section 4.2): the query slope lies in (s_i, s_{i+1}); the nearer
  // slope's tree answers, with the handicaps of its half-interval on the
  // query's side.
  const size_t i = loc.index;
  const double left = slopes_.slope(i), right = slopes_.slope(i + 1);
  plan.path = QueryPlan::Path::kT2;
  plan.slope = (q.slope - left <= right - q.slope) ? i : i + 1;
  plan.next_side = plan.slope == i;
  plan.sweep = PlanSweep(type, q.cmp, plan.next_side);
  return plan;
}

// --- Refinement ----------------------------------------------------------------

Status DualIndex::Refine(SelectionType type, const HalfPlaneQuery& q,
                         std::vector<TupleId>* ids, QueryStats* stats) {
  if (!options_.refine) {
    // Raw-superset mode: the post-dedup candidates ship as results
    // untested, so the filter accounting books them as early accepts.
    stats->filter.early_accepts += ids->size();
    return Status::OK();
  }
  static obs::Counter* const lp_calls =
      obs::GlobalMetrics().counter("dual.refine.lp_calls");
  return RefineBatch2D(*relation_, type, q, lp_calls, ids, &stats->filter);
}

// --- Explain -------------------------------------------------------------------

namespace {

const char* TypeName(SelectionType type) {
  return type == SelectionType::kAll ? "ALL" : "EXIST";
}

const char* CmpName(Cmp cmp) { return cmp == Cmp::kGE ? ">=" : "<="; }

const char* TreeName(const SweepPlan& plan) {
  return plan.up_tree ? "B^up" : "B^down";
}

const char* Direction(bool upward) { return upward ? "upward" : "downward"; }

std::string DescribeExact(const SlopeSet& slopes, const AppQuery& aq) {
  const SweepPlan plan = PlanSweep(aq.type, aq.cmp, /*next_side=*/false);
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%s(%s) on %s[slope=%g]: seek b=%g, sweep %s",
                TypeName(aq.type), CmpName(aq.cmp), TreeName(plan),
                slopes.slope(aq.slope_index), aq.intercept,
                Direction(plan.upward));
  return buf;
}

}  // namespace

Result<std::string> DualIndex::Explain(SelectionType type,
                                       const HalfPlaneQuery& q,
                                       QueryMethod method) const {
  CDB_RETURN_IF_ERROR(CheckHalfPlaneQuery(q));
  char head[160];
  std::snprintf(head, sizeof(head), "%s(y %s %g*x + %g) via %s\n",
                TypeName(type), CmpName(q.cmp), q.slope, q.intercept,
                method == QueryMethod::kRestricted ? "restricted"
                : method == QueryMethod::kT1       ? "T1"
                : method == QueryMethod::kT2       ? "T2"
                                                   : "auto");
  std::string out = head;
  const QueryPlan plan = Plan(type, q, method);
  switch (plan.path) {
    case QueryPlan::Path::kExact:
      return out + "  exact: " +
             DescribeExact(slopes_, {plan.slope, type, q.cmp, q.intercept}) +
             "\n  no refinement needed\n";
    case QueryPlan::Path::kReject:
      return out + "  ERROR: slope not in S\n";
    case QueryPlan::Path::kT1:
      if (plan.wrap_fallback) {
        out += "  slope outside [min S, max S]: T2 falls back to T1\n";
      }
      for (const AppQuery& aq : plan.app) {
        out += "  app-query: " + DescribeExact(slopes_, aq) + "\n";
      }
      return out +
             "  deduplicate ids, refine candidates on their V-representation\n";
    case QueryPlan::Path::kT2:
      break;
  }
  const SweepPlan& sw = plan.sweep;
  char bound[96];
  std::snprintf(bound, sizeof(bound),
                Tree(plan.slope, sw).augmented()
                    ? "one aggregate descent on handicap slot %d"
                    : "handicap slot %d folded over the first sweep's leaves",
                sw.slot);
  char body[384];
  std::snprintf(body, sizeof(body),
                "  T2: %s[slope=%g] (nearest), handicap side=%s\n"
                "  first sweep %s from b=%g\n"
                "  second-sweep bound: %s\n"
                "  second sweep %s to that bound\n"
                "  refine candidates on their V-representation\n",
                TreeName(sw), slopes_.slope(plan.slope),
                plan.next_side ? "next" : "prev", Direction(sw.upward),
                q.intercept, bound, Direction(!sw.upward));
  return out + body;
}

Status DualIndex::CheckVerticalSupport() const {
  if (xmax_ != nullptr) return Status::OK();
  return Status::NotSupported(
      "vertical queries require DualIndexOptions::support_vertical");
}

Result<std::string> DualIndex::Explain(SelectionType type,
                                       const VerticalQuery& q) const {
  CDB_RETURN_IF_ERROR(CheckVerticalSupport());
  const SweepPlan plan = PlanSweep(type, q.cmp, /*next_side=*/false);
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "%s(x %s %g) via vertical support trees\n"
                "  exact: sweep %s %s from %g\n  no refinement needed\n",
                TypeName(type), CmpName(q.cmp), q.boundary,
                plan.up_tree ? "X^max" : "X^min", Direction(plan.upward),
                q.boundary);
  return std::string(buf);
}

// --- Entry points ------------------------------------------------------------

Status CheckHalfPlaneQuery(const HalfPlaneQuery& q) {
  if (!std::isfinite(q.slope) || std::isnan(q.intercept)) {
    return Status::InvalidArgument(
        "query slope must be finite and intercept not NaN");
  }
  return Status::OK();
}

Result<std::vector<TupleId>> DualIndex::Select(SelectionType type,
                                               const HalfPlaneQuery& q,
                                               QueryMethod method,
                                               QueryStats* stats,
                                               obs::ExplainProfile* profile) {
  // Reset before any argument check: a rejected query reports zeros, not
  // the previous query's books.
  QueryStats local;
  QueryStats* st = stats != nullptr ? stats : &local;
  *st = QueryStats();
  CDB_RETURN_IF_ERROR(CheckHalfPlaneQuery(q));
  if (slope_observer_ != nullptr) slope_observer_->Observe(q.slope);
  // QueryStats totals are read back from the tracer, so there is a single
  // accounting mechanism (no manual snapshot diffs, no double counting);
  // the span tree is recorded only when a profile was asked for.
  obs::Tracer tracer("dual/select", pager_, relation_->pager(),
                     /*clock=*/nullptr, /*profiled=*/profile != nullptr);

  Result<std::vector<TupleId>> result = [&]() -> Result<std::vector<TupleId>> {
    const QueryPlan plan = Plan(type, q, method);
    std::vector<TupleId> ids;
    switch (plan.path) {
      case QueryPlan::Path::kExact:
        return SelectExact(Tree(plan.slope, plan.sweep), plan.sweep.upward,
                           q.intercept, st);
      case QueryPlan::Path::kReject:
        return Status::InvalidArgument(
            "restricted method requires the query slope to be in S");
      case QueryPlan::Path::kT1: {
        std::array<AppSweep, 2> sweeps;
        for (size_t j = 0; j < sweeps.size(); ++j) {
          const AppQuery& aq = plan.app[j];
          const SweepPlan sweep =
              PlanSweep(aq.type, aq.cmp, /*next_side=*/false);
          sweeps[j] = {&Tree(aq.slope_index, sweep), aq.intercept,
                       sweep.upward};
        }
        CDB_RETURN_IF_ERROR(FilterT1(sweeps, &ids, st));
        break;
      }
      case QueryPlan::Path::kT2:
        CDB_RETURN_IF_ERROR(FilterT2(Tree(plan.slope, plan.sweep), plan.sweep,
                                     q.intercept, &ids, st));
        break;
    }
    CDB_RETURN_IF_ERROR(Refine(type, q, &ids, st));
    return ids;
  }();

  FinishSelect(&tracer, result, st, profile);
  return result;
}

Result<std::vector<TupleId>> DualIndex::SelectVertical(
    SelectionType type, const VerticalQuery& q, QueryStats* stats,
    obs::ExplainProfile* profile) {
  QueryStats local;
  QueryStats* st = stats != nullptr ? stats : &local;
  *st = QueryStats();
  CDB_RETURN_IF_ERROR(CheckVerticalSupport());
  if (std::isnan(q.boundary) || std::isinf(q.boundary)) {
    return Status::InvalidArgument("vertical boundary must be finite");
  }
  obs::Tracer tracer("dual/select-vertical", pager_, relation_->pager(),
                     /*clock=*/nullptr, /*profiled=*/profile != nullptr);

  // Section 3's table on the x-extent support trees, xmax in B^up's place
  // and xmin in B^down's: EXIST(x >= c) is max_x >= c, ALL(x >= c) is
  // min_x >= c, and so on. Exact: every candidate is a result.
  const SweepPlan plan = PlanSweep(type, q.cmp, /*next_side=*/false);
  Result<std::vector<TupleId>> result = SelectExact(
      plan.up_tree ? *xmax_ : *xmin_, plan.upward, q.boundary, st);
  FinishSelect(&tracer, result, st, profile);
  return result;
}

Result<std::vector<TupleId>> DualIndex::SelectSlab(
    SelectionType type, double slope, double b_lo, double b_hi,
    QueryStats* stats, obs::ExplainProfile* profile) {
  QueryStats local;
  QueryStats* st = stats != nullptr ? stats : &local;
  *st = QueryStats();
  if (!(b_lo <= b_hi)) {
    return Status::InvalidArgument("slab requires b_lo <= b_hi");
  }
  SlopeLocation loc = slopes_.Locate(slope);
  if (loc.kind != SlopeLocation::Kind::kExact) {
    return Status::InvalidArgument("slab selection requires slope in S");
  }
  obs::Tracer tracer("dual/select-slab", pager_, relation_->pager(),
                     /*clock=*/nullptr, /*profiled=*/profile != nullptr);

  // ALL: BOT >= b_lo ∩ TOP <= b_hi; EXIST: TOP >= b_lo ∩ BOT <= b_hi —
  // the exact sweeps of q(>=) at b_lo and q(<=) at b_hi.
  const SweepPlan lo = PlanSweep(type, Cmp::kGE, /*next_side=*/false);
  const SweepPlan hi = PlanSweep(type, Cmp::kLE, /*next_side=*/false);
  Result<std::vector<TupleId>> result = [&]() -> Result<std::vector<TupleId>> {
    std::vector<TupleId> a, b;
    {
      CDB_TRACE_SPAN("sweep/lo-bound");
      CDB_RETURN_IF_ERROR(
          Sweep(Tree(loc.index, lo), b_lo, lo.upward, &a, st));
    }
    {
      CDB_TRACE_SPAN("sweep/hi-bound");
      CDB_RETURN_IF_ERROR(
          Sweep(Tree(loc.index, hi), b_hi, hi.upward, &b, st));
    }
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    std::vector<TupleId> out;
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(out));
    // Exact set algebra over the two sweeps: candidates outside the
    // intersection drop like T1 duplicates, survivors are early accepts.
    st->filter.dedup_dropped = st->candidates - out.size();
    st->filter.early_accepts = out.size();
    return out;
  }();
  FinishSelect(&tracer, result, st, profile);
  return result;
}

// --- Handicap rebuild ---------------------------------------------------------

Status DualIndex::CheckInvariants() const {
  for (size_t i = 0; i < up_.size(); ++i) {
    CDB_RETURN_IF_ERROR(up_[i]->CheckInvariants());
    CDB_RETURN_IF_ERROR(down_[i]->CheckInvariants());
  }
  if (xmax_ != nullptr) {
    CDB_RETURN_IF_ERROR(xmax_->CheckInvariants());
    CDB_RETURN_IF_ERROR(xmin_->CheckInvariants());
  }
  return Status::OK();
}

uint64_t DualIndex::handicap_staleness() const {
  uint64_t total = 0;
  for (const auto& tree : up_) total += tree->handicap_staleness();
  for (const auto& tree : down_) total += tree->handicap_staleness();
  return total;
}

void DualIndex::ExportStalenessMetrics() const {
  obs::GlobalMetrics()
      .gauge("dual.handicap.staleness")
      ->Set(static_cast<double>(handicap_staleness()));
}

Status DualIndex::RebuildHandicaps() {
  if (options_.incremental_handicaps) {
    // Compaction only: incremental maintenance keeps slots and aggregates
    // exact, but a full recompute is still the recovery path of last
    // resort (and what the staleness bench compares against).
    for (auto& tree : up_) CDB_RETURN_IF_ERROR(tree->RecomputeAugmented());
    for (auto& tree : down_) CDB_RETURN_IF_ERROR(tree->RecomputeAugmented());
    return Status::OK();
  }
  for (auto& tree : up_) CDB_RETURN_IF_ERROR(tree->ResetHandicaps());
  for (auto& tree : down_) CDB_RETURN_IF_ERROR(tree->ResetHandicaps());
  return relation_->ForEachShape(
      [&](TupleId, const Polyhedron2DView& shape) -> Status {
        if (!shape.feasible) return Status::OK();  // Not indexed.
        for (size_t i = 0; i < slopes_.size(); ++i) {
          CDB_RETURN_IF_ERROR(FoldHandicaps(
              i, shape, TopValue(shape, slopes_.slope(i)),
              BotValue(shape, slopes_.slope(i)), MergeFold));
        }
        return Status::OK();
      });
}

}  // namespace cdb
