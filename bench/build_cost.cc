// E18 — construction cost: bulk loading versus incremental insertion for
// both structure families. The paper builds its structures once per
// experiment; this bench documents what that build costs here (page
// traffic and wall time), and what the bulk paths save. Each timer covers
// one phase: the relation load, DualIndex::Build, or the DualIndex::Insert
// calls; tuple generation runs outside all of them.

#include <chrono>
#include <cstdio>
#include <vector>

#include "harness.h"
#include "rtree/rplus_tree.h"

namespace {

double Seconds(std::chrono::steady_clock::time_point a,
               std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cdb;
  using namespace cdb::bench;
  BenchReporter reporter("build_cost", &argc, argv);
  std::printf("=== Construction cost (small objects, k=3) ===\n");

  PrintTableHeader(
      "dual index build (bulk = sorted BulkLoad + handicap pass)",
      {"N", "load-sec", "bulk-sec", "bulk-pages", "incr-sec", "incr-pages"});
  const SlopeSet slopes =
      SlopeSet::UniformInAngle(3, -AngleRange(), AngleRange());
  for (int n : {2000, 8000}) {
    DatasetConfig config;
    config.n = n;
    const std::vector<GeneralizedTuple> tuples = GenerateTuples(config);

    // load-sec: the relation load alone (heap pages and the shape mirror).
    std::unique_ptr<Pager> rpager = MakeBenchPager();
    std::unique_ptr<Relation> relation;
    auto t0 = std::chrono::steady_clock::now();
    if (!Relation::Open(rpager.get(), kInvalidPageId, &relation).ok()) {
      return 1;
    }
    for (const GeneralizedTuple& t : tuples) {
      if (!relation->Insert(t).ok()) return 1;
    }
    const double load_sec = Seconds(t0, std::chrono::steady_clock::now());

    // bulk-sec: DualIndex::Build over the loaded relation.
    std::unique_ptr<Pager> bpager = MakeBenchPager();
    std::unique_ptr<DualIndex> bulk;
    t0 = std::chrono::steady_clock::now();
    if (!DualIndex::Build(bpager.get(), relation.get(), slopes,
                          DualIndexOptions(), &bulk)
             .ok()) {
      return 1;
    }
    const double bulk_sec = Seconds(t0, std::chrono::steady_clock::now());
    const double bulk_pages = static_cast<double>(bulk->live_page_count());

    // incr-sec: the DualIndex::Insert calls alone, into an index built over
    // an empty relation that is then loaded outside the timer.
    std::unique_ptr<Pager> ipager = MakeBenchPager();
    std::unique_ptr<Pager> irpager = MakeBenchPager();
    std::unique_ptr<Relation> incr_rel;
    std::unique_ptr<DualIndex> incr;
    if (!Relation::Open(irpager.get(), kInvalidPageId, &incr_rel).ok() ||
        !DualIndex::Build(ipager.get(), incr_rel.get(), slopes,
                          DualIndexOptions(), &incr)
             .ok()) {
      return 1;
    }
    std::vector<TupleId> ids;
    for (const GeneralizedTuple& t : tuples) {
      Result<TupleId> id = incr_rel->Insert(t);
      if (!id.ok()) return 1;
      ids.push_back(id.value());
    }
    t0 = std::chrono::steady_clock::now();
    for (size_t i = 0; i < tuples.size(); ++i) {
      if (!incr->Insert(ids[i], tuples[i]).ok()) return 1;
    }
    const double incr_sec = Seconds(t0, std::chrono::steady_clock::now());
    const double incr_pages = static_cast<double>(ipager->live_page_count());

    BenchReporter::Params params = {{"n", static_cast<double>(n)}};
    reporter.AddValue("dual-build", params, "load_sec", load_sec);
    reporter.AddValue("dual-build", params, "bulk_sec", bulk_sec);
    reporter.AddValue("dual-build", params, "bulk_pages", bulk_pages);
    reporter.AddValue("dual-build", params, "incr_sec", incr_sec);
    reporter.AddValue("dual-build", params, "incr_pages", incr_pages);
    PrintTableRow({std::to_string(n), Fmt(load_sec, 2), Fmt(bulk_sec, 2),
                   Fmt(bulk_pages, 0), Fmt(incr_sec, 2), Fmt(incr_pages, 0)});
  }

  PrintTableHeader("R+-tree build (Pack vs per-object Insert)",
                   {"N", "pack-sec", "pack-pages", "incr-sec", "incr-pages"});
  for (int n : {2000, 8000}) {
    DatasetConfig config;
    config.n = n;
    config.k = 2;
    Dataset ds = BuildDataset(config);  // Includes a packed R+-tree.
    std::vector<std::pair<Rect, TupleId>> rects;
    Status st = ds.relation->ForEach(
        [&](TupleId id, const GeneralizedTuple& t) -> Status {
          Rect box;
          t.GetBoundingRect(&box);
          rects.push_back({box, id});
          return Status::OK();
        });
    if (!st.ok()) return 1;

    std::unique_ptr<Pager> pack_pager = MakeBenchPager();
    std::unique_ptr<Pager> incr_pager = MakeBenchPager();
    auto t0 = std::chrono::steady_clock::now();
    std::unique_ptr<RPlusTree> packed;
    if (!RPlusTree::BulkBuild(pack_pager.get(), rects, &packed).ok()) {
      return 1;
    }
    auto t1 = std::chrono::steady_clock::now();
    std::unique_ptr<RPlusTree> incr_tree;
    if (!RPlusTree::Create(incr_pager.get(), &incr_tree).ok()) return 1;
    auto t2 = std::chrono::steady_clock::now();
    for (const auto& [rect, id] : rects) {
      if (!incr_tree->Insert(rect, id).ok()) return 1;
    }
    auto t3 = std::chrono::steady_clock::now();
    BenchReporter::Params params = {{"n", static_cast<double>(n)}};
    reporter.AddValue("rtree-build", params, "pack_sec", Seconds(t0, t1));
    reporter.AddValue("rtree-build", params, "pack_pages",
                      static_cast<double>(packed->live_page_count()));
    reporter.AddValue("rtree-build", params, "incr_sec", Seconds(t2, t3));
    reporter.AddValue("rtree-build", params, "incr_pages",
                      static_cast<double>(incr_tree->live_page_count()));
    PrintTableRow({std::to_string(n), Fmt(Seconds(t0, t1), 2),
                   Fmt(static_cast<double>(packed->live_page_count()), 0),
                   Fmt(Seconds(t2, t3), 2),
                   Fmt(static_cast<double>(incr_tree->live_page_count()),
                       0)});
  }
  std::printf(
      "\nNote: dynamic R+-tree insertion trades clipping for region overlap\n"
      "(fewer pages, softer disjointness) versus the sweep-cut Pack.\n");
  return reporter.Write() ? 0 : 1;
}
