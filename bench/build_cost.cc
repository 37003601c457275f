// E18 — construction cost: bulk loading versus incremental insertion for
// both structure families. The paper builds its structures once per
// experiment; this bench documents what that build costs here (page
// traffic and wall time), and what the bulk paths save.

#include <chrono>
#include <cstdio>

#include "harness.h"
#include "rtree/rplus_tree.h"
#include "storage/file.h"

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
      {"N", "bulk-sec", "bulk-pages", "incr-sec", "incr-pages"});
  for (int n : {2000, 8000}) {
    // Bulk: the standard Build path.
    auto t0 = std::chrono::steady_clock::now();
    DatasetConfig config;
    config.n = n;
    config.k = 3;
    config.build_rtree = false;
    Dataset ds = BuildDataset(config);
    auto t1 = std::chrono::steady_clock::now();
    double bulk_sec = Seconds(t0, t1);
    double bulk_pages = static_cast<double>(ds.dual->live_page_count());

    // Incremental: per-tuple Insert into an empty index.
    PagerOptions popts;
    std::unique_ptr<Pager> ipager;
    if (!Pager::Open(std::make_unique<MemFile>(popts.page_size), popts,
                     &ipager)
             .ok()) {
      return 1;
    }
    std::unique_ptr<Pager> rpager;
    if (!Pager::Open(std::make_unique<MemFile>(popts.page_size), popts,
                     &rpager)
             .ok()) {
      return 1;
    }
    std::unique_ptr<Relation> empty_rel;
    if (!Relation::Open(rpager.get(), kInvalidPageId, &empty_rel).ok()) {
      return 1;
    }
    std::unique_ptr<DualIndex> incr;
    if (!DualIndex::Build(ipager.get(), empty_rel.get(),
                          SlopeSet::UniformInAngle(3, -AngleRange(),
                                                   AngleRange()),
                          DualIndexOptions(), &incr)
             .ok()) {
      return 1;
    }
    t0 = std::chrono::steady_clock::now();
    Status st = ds.relation->ForEach(
        [&](TupleId, const GeneralizedTuple& tuple) -> Status {
          Result<TupleId> id = empty_rel->Insert(tuple);
          if (!id.ok()) return id.status();
          return incr->Insert(id.value(), tuple);
        });
    if (!st.ok()) return 1;
    t1 = std::chrono::steady_clock::now();
    BenchReporter::Params params = {{"n", static_cast<double>(n)}};
    reporter.AddValue("dual-build", params, "bulk_sec", bulk_sec);
    reporter.AddValue("dual-build", params, "bulk_pages", bulk_pages);
    reporter.AddValue("dual-build", params, "incr_sec", Seconds(t0, t1));
    reporter.AddValue("dual-build", params, "incr_pages",
                      static_cast<double>(ipager->live_page_count()));
    PrintTableRow({std::to_string(n), Fmt(bulk_sec, 2), Fmt(bulk_pages, 0),
                   Fmt(Seconds(t0, t1), 2),
                   Fmt(static_cast<double>(ipager->live_page_count()), 0)});
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

    PagerOptions popts;
    std::unique_ptr<Pager> pack_pager, incr_pager;
    if (!Pager::Open(std::make_unique<MemFile>(popts.page_size), popts,
                     &pack_pager)
             .ok() ||
        !Pager::Open(std::make_unique<MemFile>(popts.page_size), popts,
                     &incr_pager)
             .ok()) {
      return 1;
    }
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
