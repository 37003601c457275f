#include "dualindex/ddim_index.h"

#include <algorithm>
#include <cmath>

#include "constraint/refine_batch.h"
#include "dualindex/sweep.h"
#include "obs/metrics.h"

namespace cdb {

namespace {

constexpr size_t kNpos = static_cast<size_t>(-1);

double Dist2(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0;
  for (size_t i = 0; i < a.size(); ++i) s += (a[i] - b[i]) * (a[i] - b[i]);
  return s;
}

/// The d-dimensional check of RefinePageClustered: Load decodes the record,
/// Holds decides ALL/EXIST on its constraints by LP.
struct DecodedTupleCheck {
  const RelationD& relation;
  SelectionType type;
  const HalfPlaneQueryD& q;
  GeneralizedTupleD tuple;

  Status Load(const PageRef& page, TupleId id) {
    return relation.GetFromPage(page, id, &tuple);
  }

  bool Holds() const {
    return type == SelectionType::kAll ? ExactAllD(tuple.constraints(), q)
                                       : ExactExistD(tuple.constraints(), q);
  }
};

}  // namespace

Status DDimDualIndex::Create(Pager* pager, RelationD* relation,
                             std::vector<std::vector<double>> slope_points,
                             std::unique_ptr<DDimDualIndex>* out) {
  if (slope_points.empty()) {
    return Status::InvalidArgument("slope point set must be non-empty");
  }
  for (const auto& p : slope_points) {
    if (p.size() != relation->dim() - 1) {
      return Status::InvalidArgument("slope point has wrong dimension");
    }
  }
  std::unique_ptr<DDimDualIndex> index(
      new DDimDualIndex(pager, relation, std::move(slope_points)));
  const size_t k = index->slope_points_.size();
  index->up_.resize(k);
  index->down_.resize(k);
  for (size_t i = 0; i < k; ++i) {
    CDB_RETURN_IF_ERROR(BPlusTree::Create(pager, &index->up_[i]));
    CDB_RETURN_IF_ERROR(BPlusTree::Create(pager, &index->down_[i]));
  }
  CDB_RETURN_IF_ERROR(relation->ForEach(
      [&](TupleId id, const GeneralizedTupleD& tuple) -> Status {
        return index->IndexTuple(id, tuple);
      }));
  *out = std::move(index);
  return Status::OK();
}

Status DDimDualIndex::IndexTuple(TupleId id, const GeneralizedTupleD& tuple) {
  const size_t k = slope_points_.size();
  std::vector<double> tops(k), bots(k);
  for (size_t i = 0; i < k; ++i) {
    tops[i] = TopValueD(tuple.constraints(), slope_points_[i]);
    bots[i] = BotValueD(tuple.constraints(), slope_points_[i]);
    if (std::isnan(tops[i]) || std::isnan(bots[i])) {
      return Status::InvalidArgument("unsatisfiable tuple cannot be indexed");
    }
  }
  for (size_t i = 0; i < k; ++i) {
    CDB_RETURN_IF_ERROR(up_[i]->Insert(tops[i], id));
    CDB_RETURN_IF_ERROR(down_[i]->Insert(bots[i], id));
  }
  return Status::OK();
}

Result<TupleId> DDimDualIndex::Insert(const GeneralizedTupleD& tuple) {
  if (tuple.dim() != relation_->dim()) {
    return Status::InvalidArgument("tuple dimension mismatch");
  }
  if (!IsSatisfiableD(tuple.constraints(), tuple.dim())) {
    return Status::InvalidArgument("unsatisfiable tuple cannot be indexed");
  }
  Result<TupleId> id = relation_->Insert(tuple);
  if (!id.ok()) return id.status();
  Status st = IndexTuple(id.value(), tuple);
  if (!st.ok()) {
    relation_->Delete(id.value()).ok();
    return st;
  }
  return id;
}

size_t DDimDualIndex::FindExact(const std::vector<double>& p) const {
  for (size_t i = 0; i < slope_points_.size(); ++i) {
    if (slope_points_[i] == p) return i;
  }
  return kNpos;
}

std::vector<size_t> DDimDualIndex::FindCoveringSimplex(
    const std::vector<double>& p) const {
  // Feasibility LP: lambda >= 0, sum lambda = 1, sum lambda_j * s_j = p.
  // A basic feasible solution has at most d non-zero coefficients
  // (Caratheodory), which the simplex solver returns naturally.
  const size_t k = slope_points_.size();
  const size_t m = p.size();
  std::vector<ConstraintD> cons;
  for (size_t j = 0; j < k; ++j) {
    std::vector<double> e(k, 0.0);
    e[j] = 1.0;
    cons.emplace_back(e, 0.0, Cmp::kGE);  // lambda_j >= 0.
  }
  std::vector<double> ones(k, 1.0);
  cons.emplace_back(ones, -1.0, Cmp::kLE);  // sum lambda <= 1
  cons.emplace_back(ones, -1.0, Cmp::kGE);  // sum lambda >= 1
  for (size_t t = 0; t < m; ++t) {
    std::vector<double> row(k);
    for (size_t j = 0; j < k; ++j) row[j] = slope_points_[j][t];
    cons.emplace_back(row, -p[t], Cmp::kLE);
    cons.emplace_back(row, -p[t], Cmp::kGE);
  }
  LpDResult r = MaximizeLinearD(cons, std::vector<double>(k, 0.0));
  if (r.status != LpStatus::kOptimal) return {};
  std::vector<size_t> support;
  for (size_t j = 0; j < k; ++j) {
    if (r.point[j] > 1e-9) support.push_back(j);
  }
  return support;
}

Status DDimDualIndex::Refine(SelectionType type, const HalfPlaneQueryD& q,
                             std::vector<TupleId>* ids, QueryStats* st) {
  static obs::Counter* const lp_calls =
      obs::GlobalMetrics().counter("ddim.refine.lp_calls");
  DecodedTupleCheck check{*relation_, type, q, {}};
  return RefinePageClustered(
      *relation_, lp_calls, ids, &st->filter, [](TupleId) { return 0; },
      check);
}

Result<std::vector<TupleId>> DDimDualIndex::SelectT1(SelectionType type,
                                                     const HalfPlaneQueryD& q,
                                                     QueryStats* st) {
  std::vector<size_t> simplex = FindCoveringSimplex(q.slope);
  if (simplex.empty()) {
    return Status::NotSupported(
        "query slope point outside the convex hull of S");
  }
  // ALL runs as ALL on the nearest simplex corner + EXIST on the others;
  // EXIST as EXIST everywhere (Section 4.4 / DESIGN.md coverage argument).
  size_t all_idx = simplex[0];
  if (type == SelectionType::kAll) {
    for (size_t j : simplex) {
      if (Dist2(slope_points_[j], q.slope) <
          Dist2(slope_points_[all_idx], q.slope)) {
        all_idx = j;
      }
    }
  }
  std::vector<AppSweep> sweeps;
  sweeps.reserve(simplex.size());
  for (size_t j : simplex) {
    const SelectionType app_type = j == all_idx ? type : SelectionType::kExist;
    const SweepPlan plan = PlanSweep(app_type, q.cmp, /*next_side=*/false);
    sweeps.push_back({&Tree(j, plan), q.intercept, plan.upward});
  }
  std::vector<TupleId> ids;
  CDB_RETURN_IF_ERROR(FilterT1(sweeps, &ids, st));
  CDB_RETURN_IF_ERROR(Refine(type, q, &ids, st));
  return ids;
}

Result<std::vector<TupleId>> DDimDualIndex::Select(
    SelectionType type, const HalfPlaneQueryD& q, QueryStats* stats,
    obs::ExplainProfile* profile) {
  // Reset before any argument check: a rejected query reports zeros.
  QueryStats local;
  QueryStats* st = stats != nullptr ? stats : &local;
  *st = QueryStats();
  if (q.dim() != relation_->dim()) {
    return Status::InvalidArgument("query dimension mismatch");
  }
  if (std::isnan(q.intercept) ||
      std::any_of(q.slope.begin(), q.slope.end(),
                  [](double s) { return !std::isfinite(s); })) {
    return Status::InvalidArgument("query slope/intercept must be finite");
  }
  obs::Tracer tracer("ddim/select", pager_, relation_->pager(),
                     /*clock=*/nullptr, /*profiled=*/profile != nullptr);

  Result<std::vector<TupleId>> result = [&]() -> Result<std::vector<TupleId>> {
    size_t exact = FindExact(q.slope);
    if (exact != kNpos) {
      const SweepPlan plan = PlanSweep(type, q.cmp, /*next_side=*/false);
      return SelectExact(Tree(exact, plan), plan.upward, q.intercept, st);
    }
    return SelectT1(type, q, st);
  }();

  FinishSelect(&tracer, result, st, profile);
  return result;
}

}  // namespace cdb
