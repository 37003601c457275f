// E13 — the paper's Section 1 motivation: constraint databases store
// *infinite* objects, which rectangle-based structures cannot hold at all
// (Figure 1 shows window-clipping is not even correct). This bench mixes
// unbounded tuples into the relation at growing fractions: the dual index
// stores and retrieves every one (±infinity keys are first-class), but T2's
// cost does not stay flat. There is no R+-tree column: it rejects the
// workload.

#include <cstdio>

#include "harness.h"
#include "storage/file.h"

int main(int argc, char** argv) {
  using namespace cdb;
  using namespace cdb::bench;
  BenchReporter reporter("infinite_objects", &argc, argv);
  std::printf(
      "=== Infinite objects: query cost vs unbounded fraction "
      "(N=4000, k=3) ===\n");

  // Selectivity floor: a tuple unbounded along the query gradient matches
  // EXIST for *every* intercept, so the achievable selectivity band rises
  // with the unbounded fraction.
  PrintTableHeader(
      "avg index page accesses per query (EXIST band shown; ALL 10-15%)",
      {"unb-frac", "band", "EXIST", "ALL", "ALL-cands", "unb-hits"});

  for (double frac : {0.0, 0.1, 0.25, 0.5}) {
    PagerOptions popts;
    std::unique_ptr<Pager> rel_pager, idx_pager;
    if (!Pager::Open(std::make_unique<MemFile>(popts.page_size), popts,
                     &rel_pager)
             .ok() ||
        !Pager::Open(std::make_unique<MemFile>(popts.page_size), popts,
                     &idx_pager)
             .ok()) {
      return 1;
    }
    std::unique_ptr<Relation> relation;
    if (!Relation::Open(rel_pager.get(), kInvalidPageId, &relation).ok()) {
      return 1;
    }
    Rng rng(4242);
    WorkloadOptions w;
    int unbounded = 0;
    std::vector<bool> is_unbounded;
    for (int i = 0; i < 4000; ++i) {
      bool unb = rng.Chance(frac);
      GeneralizedTuple t = unb ? RandomUnboundedTuple(&rng, w)
                               : RandomBoundedTuple(&rng, w);
      if (!relation->Insert(t).ok()) return 1;
      is_unbounded.push_back(unb);
      unbounded += unb ? 1 : 0;
    }
    std::unique_ptr<DualIndex> index;
    if (!DualIndex::Build(idx_pager.get(), relation.get(),
                          SlopeSet::UniformInAngle(3, -AngleRange(),
                                                   AngleRange()),
                          DualIndexOptions(), &index)
             .ok()) {
      return 1;
    }

    double exist_pages = 0, all_pages = 0, all_cands = 0, unb_hits = 0;
    // Tuples unbounded along the query gradient match EXIST for every
    // intercept (selectivity floor rises with the fraction) and can never
    // match ALL (ceiling falls) — so the bands differ per type.
    const double exist_lo = frac + 0.10, exist_hi = frac + 0.15;
    const double all_lo = 0.10, all_hi = 0.15;
    const int kQ = 6;
    Rng qrng(777);
    for (int qi = 0; qi < kQ; ++qi) {
      for (SelectionType type :
           {SelectionType::kExist, SelectionType::kAll}) {
        bool exist = type == SelectionType::kExist;
        Result<CalibratedQuery> cq = GenerateQuery(
            *relation, type, exist ? exist_lo : all_lo,
            exist ? exist_hi : all_hi, &qrng, AngleRange());
        if (!cq.ok()) {
          std::fprintf(stderr, "query calibration: %s\n",
                       cq.status().ToString().c_str());
          return 1;
        }
        if (!idx_pager->DropCache().ok()) return 1;
        QueryStats stats;
        Result<std::vector<TupleId>> r =
            index->Select(type, cq.value().query, QueryMethod::kT2, &stats);
        if (!r.ok()) {
          std::fprintf(stderr, "select: %s\n", r.status().ToString().c_str());
          return 1;
        }
        (exist ? exist_pages : all_pages) +=
            static_cast<double>(stats.index_page_fetches);
        if (!exist) all_cands += static_cast<double>(stats.candidates);
        for (TupleId id : r.value()) {
          if (is_unbounded[id]) unb_hits += 1;
        }
      }
    }
    reporter.AddValue("unbounded", {{"frac", frac}}, "exist_fetches",
                      exist_pages / kQ);
    reporter.AddValue("unbounded", {{"frac", frac}}, "all_fetches",
                      all_pages / kQ);
    reporter.AddValue("unbounded", {{"frac", frac}}, "all_candidates",
                      all_cands / kQ);
    reporter.AddValue("unbounded", {{"frac", frac}}, "unbounded_in_results",
                      unb_hits / (2 * kQ));
    PrintTableRow({Fmt(frac * 100, 0) + "%",
                   Fmt(exist_lo * 100, 0) + "-" + Fmt(exist_hi * 100, 0) +
                       "%",
                   Fmt(exist_pages / kQ), Fmt(all_pages / kQ),
                   Fmt(all_cands / kQ),
                   Fmt(unb_hits / (2 * kQ))});
  }
  std::printf(
      "\nMeasured shape: cost does not stay flat. From 10%% unbounded on,\n"
      "ALL's index pages more than double and its candidates are all N\n"
      "tuples, at the same 10-15%% band as the 0%% row: an unbounded\n"
      "tuple's T2 assignment value is infinite, which pulls the second\n"
      "sweep to the end of the tree. (EXIST's band itself rises with the\n"
      "fraction.) Every unbounded tuple is still stored and retrievable;\n"
      "the R+-tree baseline rejects every one.\n");
  return reporter.Write() ? 0 : 1;
}
