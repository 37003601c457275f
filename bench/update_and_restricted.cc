// Ablation E10: the complexity claims of Theorems 3.1/4.1 — tuple updates
// cost O(k log_B n) page accesses and restricted selections
// O(log_B n + T/B). We sweep N and print per-operation page accesses; the
// log shape shows as near-flat growth across a 24x cardinality range.

#include <cstdio>

#include "harness.h"
#include "obs/health.h"
#include "obs/trace.h"
#include "storage/file.h"

int main(int argc, char** argv) {
  using namespace cdb;
  using namespace cdb::bench;
  BenchReporter reporter("update_and_restricted", &argc, argv);
  std::printf("=== Update cost and restricted-query scaling ===\n");

  const std::vector<int> cardinalities = {500, 2000, 4000, 8000, 12000};

  PrintTableHeader(
      "Insert cost (avg dual-index page fetches per tuple insert, k=3)",
      {"N", "pages/insert", "pages/(k*logN)"});
  for (int n : cardinalities) {
    DatasetConfig config;
    config.n = n;
    config.k = 3;
    config.build_rtree = false;
    Dataset ds = BuildDataset(config);
    // Measure 50 further inserts on the built index; the tracer attributes
    // the dual-pager fetches of the whole batch (decision 11: logical).
    Rng rng(123);
    WorkloadOptions w;
    obs::Tracer tracer("update/insert-batch", ds.dual_pager.get(), nullptr);
    for (int i = 0; i < 50; ++i) {
      CDB_TRACE_SPAN("insert");
      GeneralizedTuple t = RandomBoundedTuple(&rng, w);
      Result<TupleId> id = ds.relation->Insert(t);
      if (!id.ok() || !ds.dual->Insert(id.value(), t).ok()) {
        std::fprintf(stderr, "insert failed\n");
        return 1;
      }
    }
    double per_insert = static_cast<double>(
                            obs::FinishQueryTrace(&tracer, nullptr)
                                .index_fetches) /
                        50.0;
    double norm = per_insert / (3.0 * std::log2(static_cast<double>(n)));
    reporter.AddValue("insert", {{"n", static_cast<double>(n)}},
                      "pages_per_insert", per_insert);
    reporter.AddValue("insert", {{"n", static_cast<double>(n)}},
                      "pages_per_k_logn", norm);
    PrintTableRow({std::to_string(n), Fmt(per_insert), Fmt(norm, 2)});
  }

  PrintTableHeader(
      "Restricted selection (slope in S): avg page fetches at sel 10-15%",
      {"N", "idx-pages", "results", "pages-resid"});
  for (int n : cardinalities) {
    DatasetConfig config;
    config.n = n;
    config.k = 3;
    config.build_rtree = false;
    Dataset ds = BuildDataset(config);
    // EXIST(q(>=)) sweeps B_i^up (health reports each slope's up tree
    // first), whose measured fill sets the output term T/B.
    obs::HealthReport health;
    if (!ds.dual->CollectHealth(&health).ok()) return 1;
    // Restricted queries: pick slopes from S directly and intercepts at the
    // 85-90% quantile of the matching surface.
    Rng rng(321);
    double fetches = 0, results = 0, resid = 0;
    const int kQ = 12;
    for (int qi = 0; qi < kQ; ++qi) {
      size_t si = static_cast<size_t>(rng.UniformInt(0, 2));
      double slope = ds.dual->slopes().slope(si);
      // Build the intercept from the relation's TOP values at this slope.
      std::vector<double> tops;
      Status st = ds.relation->ForEach(
          [&](TupleId, const GeneralizedTuple& t) -> Status {
            tops.push_back(t.Top(slope));
            return Status::OK();
          });
      if (!st.ok()) return 1;
      std::sort(tops.begin(), tops.end());
      double b = tops[static_cast<size_t>(0.875 * static_cast<double>(
                                                      tops.size()))];
      HalfPlaneQuery q(slope, b - 1e-6, Cmp::kGE);
      if (!ds.dual_pager->DropCache().ok()) return 1;
      QueryStats stats;
      Result<std::vector<TupleId>> r = ds.dual->Select(
          SelectionType::kExist, q, QueryMethod::kRestricted, &stats);
      if (!r.ok()) return 1;
      fetches += static_cast<double>(stats.index_page_fetches);
      results += static_cast<double>(stats.results);
      // Residual pages after subtracting the output-proportional term: the
      // Theorem 3.1 shape predicts this stays ~log_B N.
      const obs::TreeHealth& up = health.trees[2 * si];
      const double per_leaf =
          static_cast<double>(up.entries) / static_cast<double>(up.leaves);
      resid += static_cast<double>(stats.index_page_fetches) -
               static_cast<double>(stats.results) / per_leaf;
    }
    reporter.AddValue("restricted", {{"n", static_cast<double>(n)}},
                      "index_fetches", fetches / kQ);
    reporter.AddValue("restricted", {{"n", static_cast<double>(n)}},
                      "results", results / kQ);
    reporter.AddValue("restricted", {{"n", static_cast<double>(n)}},
                      "residual_pages", resid / kQ);
    PrintTableRow({std::to_string(n), Fmt(fetches / kQ), Fmt(results / kQ),
                   Fmt(resid / kQ)});
  }
  std::printf(
      "\nExpected shape: pages/insert grows ~logarithmically with N (flat\n"
      "normalized column); restricted queries cost O(log_B N + T/B) — the\n"
      "residual column stays small and flat while results grow with N.\n");
  return reporter.Write() ? 0 : 1;
}
