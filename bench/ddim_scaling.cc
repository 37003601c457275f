// E11 — the paper's Section 6 conjecture: "by increasing the dimension of
// the space, the performance of our technique does not change, since we
// always deal with single values". We build the d-dimensional dual index
// (Section 4.4) for d = 2, 3, 4 and measure page accesses of exact and
// T1-approximated selections; the sequential-scan cost is shown for scale.
// (The R+-tree baseline is 2-D; the paper, too, ran all experiments in E^2.)

#include <cmath>
#include <cstdio>

#include "dualindex/ddim_index.h"
#include "harness.h"
#include "storage/file.h"

namespace cdb {
namespace {

std::vector<std::vector<double>> GridSlopes(size_t dim, int per_axis,
                                            double r) {
  std::vector<std::vector<double>> points;
  std::vector<int> idx(dim - 1, 0);
  while (true) {
    std::vector<double> p(dim - 1);
    for (size_t t = 0; t < dim - 1; ++t) {
      p[t] = per_axis == 1 ? 0.0 : -r + 2 * r * idx[t] / (per_axis - 1);
    }
    points.push_back(p);
    size_t t = 0;
    for (; t < dim - 1; ++t) {
      if (++idx[t] < per_axis) break;
      idx[t] = 0;
    }
    if (t == dim - 1) break;
  }
  return points;
}

}  // namespace
}  // namespace cdb

int main(int argc, char** argv) {
  using namespace cdb;
  using namespace cdb::bench;
  BenchReporter reporter("ddim_scaling", &argc, argv);
  std::printf("=== d-dimensional scaling (Section 4.4 / Section 6) ===\n");

  const int kN = 2000;
  PrintTableHeader(
      "Per-query avg index page accesses (N=2000, sel ~10-15%)",
      {"d", "|S|", "exact", "T1", "T1-cands", "scan-pages"});

  for (size_t dim : {2u, 3u, 4u}) {
    PagerOptions popts;
    popts.page_size = 1024;
    std::unique_ptr<Pager> pager, rel_pager;
    if (!Pager::Open(std::make_unique<MemFile>(1024), popts, &pager).ok() ||
        !Pager::Open(std::make_unique<MemFile>(1024), popts, &rel_pager)
             .ok()) {
      return 1;
    }
    std::unique_ptr<RelationD> relation;
    if (!RelationD::Open(rel_pager.get(), dim, kInvalidPageId, &relation)
             .ok()) {
      return 1;
    }
    auto slopes = GridSlopes(dim, dim == 2 ? 9 : (dim == 3 ? 3 : 2), 1.0);
    std::unique_ptr<DDimDualIndex> index;
    if (!DDimDualIndex::Create(pager.get(), relation.get(), slopes, &index)
             .ok()) {
      return 1;
    }
    Rng rng(777 + dim);
    std::vector<GeneralizedTupleD> tuples;
    for (int i = 0; i < kN; ++i) {
      GeneralizedTupleD t = RandomBoundedTupleD(&rng, dim, 50.0);
      if (!index->Insert(t).ok()) return 1;
      tuples.push_back(t);
    }

    // Queries targeting ~10-15% selectivity: place the intercept at the
    // ~87.5% quantile of TOP values at a random in-hull slope point.
    double exact_pages = 0, t1_pages = 0, t1_cands = 0;
    const int kQ = 8;
    for (int qi = 0; qi < kQ; ++qi) {
      // Exact query at a grid point.
      HalfPlaneQueryD q;
      q.slope = slopes[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(slopes.size()) - 1))];
      q.cmp = Cmp::kGE;
      std::vector<double> tops;
      for (const auto& t : tuples) {
        tops.push_back(TopValueD(t.constraints(), q.slope));
      }
      std::sort(tops.begin(), tops.end());
      q.intercept = tops[static_cast<size_t>(0.875 * kN)] - 1e-6;
      if (!pager->DropCache().ok()) return 1;
      QueryStats stats;
      if (!index->Select(SelectionType::kExist, q, &stats).ok()) return 1;
      exact_pages += static_cast<double>(stats.index_page_fetches);

      // T1 query at a random interior slope point.
      HalfPlaneQueryD qa;
      qa.slope.resize(dim - 1);
      for (auto& s : qa.slope) s = rng.Uniform(-0.8, 0.8);
      qa.cmp = Cmp::kGE;
      tops.clear();
      for (const auto& t : tuples) {
        tops.push_back(TopValueD(t.constraints(), qa.slope));
      }
      std::sort(tops.begin(), tops.end());
      qa.intercept = tops[static_cast<size_t>(0.875 * kN)] - 1e-6;
      if (!pager->DropCache().ok()) return 1;
      Result<std::vector<TupleId>> r =
          index->Select(SelectionType::kExist, qa, &stats);
      if (!r.ok()) {
        std::fprintf(stderr, "T1 failed: %s\n", r.status().ToString().c_str());
        return 1;
      }
      t1_pages += static_cast<double>(stats.index_page_fetches);
      t1_cands += static_cast<double>(stats.candidates);
    }
    // A sequential scan touches every tuple page: with ~25-byte constraints
    // and 3-10 constraints per tuple, ~6 tuples fit a 1 KiB page.
    double scan_pages = std::ceil(kN / 6.0);
    BenchReporter::Params params = {
        {"d", static_cast<double>(dim)},
        {"slopes", static_cast<double>(slopes.size())}};
    reporter.AddValue("ddim", params, "exact_fetches", exact_pages / kQ);
    reporter.AddValue("ddim", params, "t1_fetches", t1_pages / kQ);
    reporter.AddValue("ddim", params, "t1_candidates", t1_cands / kQ);
    reporter.AddValue("ddim", params, "scan_pages", scan_pages);
    PrintTableRow({std::to_string(dim), std::to_string(slopes.size()),
                   Fmt(exact_pages / kQ), Fmt(t1_pages / kQ),
                   Fmt(t1_cands / kQ), Fmt(scan_pages, 0)});
  }
  std::printf(
      "\nExpected shape: exact-query page accesses are flat in d (sweeps\n"
      "over single surface values); T1 grows only with the number of\n"
      "app-queries (<= d), far below the scan baseline.\n");
  return reporter.Write() ? 0 : 1;
}
