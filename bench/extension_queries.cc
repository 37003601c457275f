// E17 — cost of the extension query families against the sequential-scan
// baseline: exact vertical selections (footnote 4) and exact slab
// selections, the band between two parallel lines (footnote 6's interval
// view). Neither exists in the paper's evaluation; this bench documents
// what they cost on this implementation's B+-trees.

#include <cstdio>

#include "harness.h"

int main(int argc, char** argv) {
  using namespace cdb;
  using namespace cdb::bench;
  BenchReporter reporter("extension_queries", &argc, argv);
  std::printf(
      "=== Extension queries: vertical and slab (N=4000, k=3) ===\n");

  DatasetConfig config;
  config.n = 4000;
  config.k = 3;
  config.build_rtree = false;
  config.dual_options.support_vertical = true;
  Dataset ds = BuildDataset(config);

  // Naive scan cost for reference: every relation page.
  double scan_pages = static_cast<double>(ds.rel_pager->live_page_count());

  PrintTableHeader("avg page accesses per query (exact, no refinement)",
                   {"family", "type", "idx-pages", "results", "scan-pages"});

  Rng rng(515151);
  for (SelectionType type : {SelectionType::kExist, SelectionType::kAll}) {
    // Vertical: boundary at the ~85% quantile of object x positions.
    double pages = 0, results = 0;
    const int kQ = 8;
    for (int qi = 0; qi < kQ; ++qi) {
      VerticalQuery q{rng.Uniform(20, 45),
                      rng.Chance(0.5) ? Cmp::kGE : Cmp::kLE};
      if (!ds.dual_pager->DropCache().ok()) return 1;
      QueryStats stats;
      Result<std::vector<TupleId>> r =
          ds.dual->SelectVertical(type, q, &stats);
      if (!r.ok()) return 1;
      pages += static_cast<double>(stats.index_page_fetches);
      results += static_cast<double>(stats.results);
    }
    bool exist = type == SelectionType::kExist;
    BenchReporter::Params params = {{"exist", exist ? 1.0 : 0.0}};
    reporter.AddValue(exist ? "vertical/exist" : "vertical/all", params,
                      "index_fetches", pages / kQ);
    reporter.AddValue(exist ? "vertical/exist" : "vertical/all", params,
                      "results", results / kQ);
    PrintTableRow({"vertical",
                   type == SelectionType::kExist ? "EXIST" : "ALL",
                   Fmt(pages / kQ), Fmt(results / kQ), Fmt(scan_pages, 0)});
  }

  for (SelectionType type : {SelectionType::kExist, SelectionType::kAll}) {
    double pages = 0, results = 0;
    const int kQ = 8;
    for (int qi = 0; qi < kQ; ++qi) {
      double slope = ds.dual->slopes().slope(
          static_cast<size_t>(rng.UniformInt(0, 2)));
      double centre = rng.Uniform(-30, 30);
      double half = rng.Uniform(2, 10);
      if (!ds.dual_pager->DropCache().ok()) return 1;
      QueryStats stats;
      Result<std::vector<TupleId>> r = ds.dual->SelectSlab(
          type, slope, centre - half, centre + half, &stats);
      if (!r.ok()) return 1;
      pages += static_cast<double>(stats.index_page_fetches);
      results += static_cast<double>(stats.results);
    }
    bool exist = type == SelectionType::kExist;
    BenchReporter::Params params = {{"exist", exist ? 1.0 : 0.0}};
    reporter.AddValue(exist ? "slab/exist" : "slab/all", params,
                      "index_fetches", pages / kQ);
    reporter.AddValue(exist ? "slab/exist" : "slab/all", params, "results",
                      results / kQ);
    PrintTableRow({"slab", type == SelectionType::kExist ? "EXIST" : "ALL",
                   Fmt(pages / kQ), Fmt(results / kQ), Fmt(scan_pages, 0)});
  }

  std::printf(
      "\nNote: vertical selections sweep one support tree (output-\n"
      "proportional). Slab selections intersect two full half-plane sweeps,\n"
      "so their cost is bounded by the *larger* one-sided result — cheap\n"
      "for narrow slabs near the distribution's edge, up to scan-like for\n"
      "slabs through the middle.\n");
  return reporter.Write() ? 0 : 1;
}
