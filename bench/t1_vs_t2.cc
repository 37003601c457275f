// Ablation E8: technique T1 (two app-queries; duplicates possible) versus
// T2 (single-tree handicap search; duplicate-free) — the paper's Section
// 4.2 motivation. Reports duplicates, false hits, candidates and page
// accesses for both, per query family.

#include <cstdio>

#include "harness.h"

int main(int argc, char** argv) {
  using namespace cdb;
  using namespace cdb::bench;
  BenchReporter reporter("t1_vs_t2", &argc, argv);
  std::printf("=== T1 vs T2 (N=4000, small objects, k=3, sel 10-15%%) ===\n");

  DatasetConfig config;
  config.n = 4000;
  config.size = ObjectSize::kSmall;
  config.k = 3;
  Dataset ds = BuildDataset(config);

  for (SelectionType type : {SelectionType::kExist, SelectionType::kAll}) {
    Rng rng(555777);
    auto qs = MakeQueries(*ds.relation, type, 10, 0.10, 0.15, &rng);
    Measurement t1 = MeasureDual(&ds, qs, QueryMethod::kT1);
    Measurement t2 = MeasureDual(&ds, qs, QueryMethod::kT2);
    bool exist = type == SelectionType::kExist;
    BenchReporter::Params params = {{"exist", exist ? 1.0 : 0.0}};
    reporter.Add(exist ? "t1/exist" : "t1/all", params, t1);
    reporter.Add(exist ? "t2/exist" : "t2/all", params, t2);

    PrintTableHeader(
        std::string(type == SelectionType::kExist ? "EXIST" : "ALL") +
            " selections (averages per query)",
        {"tech", "idx-pages", "cands", "dups", "false", "results"});
    PrintTableRow({"T1", Fmt(t1.index_fetches), Fmt(t1.candidates),
                   Fmt(t1.dedup_dropped), Fmt(t1.refine_rejects),
                   Fmt(t1.results)});
    PrintTableRow({"T2", Fmt(t2.index_fetches), Fmt(t2.candidates),
                   Fmt(t2.dedup_dropped), Fmt(t2.refine_rejects),
                   Fmt(t2.results)});
  }
  std::printf(
      "\nExpected shape: T2 shows zero duplicates (Section 4.2's design\n"
      "goal); T1 pays for its second app-query with duplicated results.\n");
  return reporter.Write() ? 0 : 1;
}
