// Shared driver for Figures 8 and 9: EXIST and ALL query cost (page
// accesses per query) of technique T2 (k = 2..5) versus the R+-tree, over
// relation cardinalities 500..12000 at 10-15 % selectivity. A "T2t k=3"
// column shows the tight-assignment variant (DESIGN.md decision 3 /
// ablation E9), which sharpens the ALL-family sweeps.

#ifndef CDB_BENCH_FIG_COMMON_H_
#define CDB_BENCH_FIG_COMMON_H_

#include <cstdio>
#include <string>
#include <vector>

#include "harness.h"

namespace cdb {
namespace bench {

inline void RunFigure(ObjectSize size, const std::string& figure_name,
                      BenchReporter* reporter = nullptr) {
  const std::vector<int> cardinalities = {500, 2000, 4000, 8000, 12000};
  const std::vector<size_t> ks = {2, 3, 4, 5};
  const int kQueriesPerType = 6;  // The paper uses six ALL and six EXIST.

  struct Row {
    int n;
    Measurement rtree_exist, rtree_all;
    std::vector<Measurement> t2_exist, t2_all;  // Indexed like ks.
    Measurement tight_exist, tight_all;         // Tight assignment, k = 3.
  };
  std::vector<Row> rows;

  for (int n : cardinalities) {
    Row row;
    row.n = n;
    for (size_t ki = 0; ki < ks.size(); ++ki) {
      DatasetConfig config;
      config.n = n;
      config.size = size;
      config.k = ks[ki];
      config.seed = 20260704 + static_cast<uint64_t>(n);
      config.build_rtree = ki == 0;  // One R+-tree per cardinality suffices.
      Dataset ds = BuildDataset(config);
      Rng qrng(7000 + static_cast<uint64_t>(n));
      auto exist_qs = MakeQueries(*ds.relation, SelectionType::kExist,
                                  kQueriesPerType, 0.10, 0.15, &qrng);
      auto all_qs = MakeQueries(*ds.relation, SelectionType::kAll,
                                kQueriesPerType, 0.10, 0.15, &qrng);
      double k = static_cast<double>(ks[ki]);
      double dn = static_cast<double>(n);
      row.t2_exist.push_back(MeasureDual(&ds, exist_qs, QueryMethod::kT2));
      row.t2_all.push_back(MeasureDual(&ds, all_qs, QueryMethod::kT2));
      if (reporter != nullptr) {
        reporter->Add("t2/exist", {{"n", dn}, {"k", k}}, row.t2_exist.back());
        reporter->Add("t2/all", {{"n", dn}, {"k", k}}, row.t2_all.back());
      }
      if (ki == 0) {
        row.rtree_exist = MeasureRTree(&ds, exist_qs);
        row.rtree_all = MeasureRTree(&ds, all_qs);
        if (reporter != nullptr) {
          reporter->Add("rtree/exist", {{"n", dn}}, row.rtree_exist);
          reporter->Add("rtree/all", {{"n", dn}}, row.rtree_all);
        }
      }
      if (ks[ki] == 3) {
        // Refinement substrate + warm end-to-end latency at the headline
        // configuration. The mixed EXIST/ALL set exercises both
        // box-provable directions.
        std::vector<CalibratedQuery> mixed = exist_qs;
        mixed.insert(mixed.end(), all_qs.begin(), all_qs.end());
        ReportRefineRows(&ds, mixed, reporter, {{"n", dn}}, /*warm=*/true);
        DatasetConfig tight_cfg = config;
        tight_cfg.build_rtree = false;
        tight_cfg.dual_options.tight_assignment = true;
        Dataset tight_ds = BuildDataset(tight_cfg);
        row.tight_exist = MeasureDual(&tight_ds, exist_qs, QueryMethod::kT2);
        row.tight_all = MeasureDual(&tight_ds, all_qs, QueryMethod::kT2);
        if (reporter != nullptr) {
          reporter->Add("t2-tight/exist", {{"n", dn}, {"k", k}},
                        row.tight_exist);
          reporter->Add("t2-tight/all", {{"n", dn}, {"k", k}}, row.tight_all);
        }
      }
    }
    rows.push_back(std::move(row));
  }

  for (bool exist : {true, false}) {
    std::string panel = exist ? "(a) EXIST selections" : "(b) ALL selections";
    PrintTableHeader(
        figure_name + " " + panel +
            " - avg index page accesses per query (sel 10-15%)",
        {"N", "R+tree", "T2 k=2", "T2 k=3", "T2 k=4", "T2 k=5", "T2t k=3"});
    for (const Row& row : rows) {
      std::vector<std::string> cells{std::to_string(row.n)};
      const Measurement& rt = exist ? row.rtree_exist : row.rtree_all;
      cells.push_back(Fmt(rt.index_fetches));
      const auto& t2 = exist ? row.t2_exist : row.t2_all;
      for (const Measurement& m : t2) cells.push_back(Fmt(m.index_fetches));
      cells.push_back(
          Fmt((exist ? row.tight_exist : row.tight_all).index_fetches));
      PrintTableRow(cells);
    }

    PrintTableHeader(
        figure_name + " " + panel +
            " - refinement tuple-page reads (physical, candidates in id "
            "order)",
        {"N", "R+tree", "T2 k=2", "T2 k=3", "T2 k=4", "T2 k=5", "T2t k=3"});
    for (const Row& row : rows) {
      std::vector<std::string> cells{std::to_string(row.n)};
      const Measurement& rt = exist ? row.rtree_exist : row.rtree_all;
      cells.push_back(Fmt(rt.tuple_fetches));
      const auto& t2 = exist ? row.t2_exist : row.t2_all;
      for (const Measurement& m : t2) cells.push_back(Fmt(m.tuple_fetches));
      cells.push_back(
          Fmt((exist ? row.tight_exist : row.tight_all).tuple_fetches));
      PrintTableRow(cells);
    }
  }

  // Shape summary used by EXPERIMENTS.md.
  std::printf("\nShape check (N = 12000):\n");
  const Row& last = rows.back();
  double rt_e = last.rtree_exist.index_fetches;
  double rt_a = last.rtree_all.index_fetches;
  double t2_e = last.t2_exist[1].index_fetches;  // k = 3.
  double t2_a = last.t2_all[1].index_fetches;
  std::printf("  EXIST: R+/T2(k=3) = %.2fx;  ALL: R+/T2(k=3) = %.2fx\n",
              rt_e / t2_e, rt_a / t2_a);
  std::printf("  tight: R+/T2t(k=3) EXIST = %.2fx, ALL = %.2fx\n",
              rt_e / last.tight_exist.index_fetches,
              rt_a / last.tight_all.index_fetches);
}

}  // namespace bench
}  // namespace cdb

#endif  // CDB_BENCH_FIG_COMMON_H_
