// E16 — the choice of the shared point P on the query line (Section 4.1:
// "The optimal choice of P depends on the tuple distribution on the plane.
// We omit details due to space limitations."). Both T1 app-query lines pass
// through P = (anchor_x, a*anchor_x + b); this bench sweeps anchor_x and
// measures the resulting false hits and duplicates — supplying the detail
// the paper omitted, for its own uniform workload.

#include <cstdio>

#include "harness.h"

int main(int argc, char** argv) {
  using namespace cdb;
  using namespace cdb::bench;
  BenchReporter reporter("anchor_choice", &argc, argv);
  std::printf(
      "=== T1 anchor choice (N=4000, small objects, k=3, sel 10-15%%) "
      "===\n");

  PrintTableHeader("T1 averages per query vs anchor_x",
                   {"anchor", "idx-pages", "cands", "dups", "false"});
  for (double anchor : {-80.0, -40.0, 0.0, 40.0, 80.0}) {
    DatasetConfig config;
    config.n = 4000;
    config.k = 3;
    config.build_rtree = false;
    config.dual_options.anchor_x = anchor;
    Dataset ds = BuildDataset(config);
    Rng rng(606060);
    auto qs = MakeQueries(*ds.relation, SelectionType::kExist, 6, 0.10, 0.15,
                          &rng);
    auto qs_all =
        MakeQueries(*ds.relation, SelectionType::kAll, 6, 0.10, 0.15, &rng);
    qs.insert(qs.end(), qs_all.begin(), qs_all.end());
    Measurement m = MeasureDual(&ds, qs, QueryMethod::kT1);
    reporter.Add("t1", {{"anchor_x", anchor}}, m);
    PrintTableRow({Fmt(anchor, 0), Fmt(m.index_fetches), Fmt(m.candidates),
                   Fmt(m.dedup_dropped), Fmt(m.refine_rejects)});
  }
  std::printf(
      "\nExpected shape: the centre of the working window (anchor 0 for the\n"
      "paper's [-50,50]^2 distribution) minimizes the false-hit wedge area\n"
      "that lies inside the populated region; anchors outside the window\n"
      "push one app-query's wedge across the whole data set.\n");
  return reporter.Write() ? 0 : 1;
}
