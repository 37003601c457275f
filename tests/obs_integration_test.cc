// Integration proof for the observability layer (ISSUE 1): for real queries
// over the bench harness datasets, the ExplainProfile phase sums must
// reproduce (a) the externally snapshotted pager deltas, (b) the QueryStats
// the harness aggregates into Measurement rows, and (c) for the averages,
// the Measurement numbers themselves — exactly, on both the dual index and
// the R+-tree, for EXIST and ALL.

#include <gtest/gtest.h>

#include <vector>

#include "constraint/naive_eval.h"
#include "harness.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rtree/rtree_query.h"

namespace cdb {
namespace {

using bench::BuildDataset;
using bench::Dataset;
using bench::DatasetConfig;
using bench::MakeQueries;
using bench::MeasureDual;
using bench::MeasureRTree;
using bench::Measurement;

DatasetConfig SmallConfig() {
  DatasetConfig config;
  config.n = 300;
  config.k = 3;
  config.seed = 20260807;
  return config;
}

void CheckProfileAgainstExternalSnapshots(const obs::ExplainProfile& profile,
                                          const IoStats& index_delta,
                                          const IoStats& tuple_delta,
                                          const QueryStats& stats) {
  // The attribution invariant, re-proved from the finished tree.
  EXPECT_TRUE(profile.SumsBalance()) << profile.ToString();
  // Totals equal the externally measured pager deltas: logical fetches AND
  // physical reads, on both pagers.
  EXPECT_EQ(profile.totals.index_fetches, index_delta.page_fetches);
  EXPECT_EQ(profile.totals.index_reads, index_delta.page_reads);
  EXPECT_EQ(profile.totals.tuple_fetches, tuple_delta.page_fetches);
  EXPECT_EQ(profile.totals.tuple_reads, tuple_delta.page_reads);
  // QueryStats carries the same numbers under decision 11's convention:
  // logical on the index side, physical on the refinement side.
  EXPECT_EQ(stats.index_page_fetches, profile.totals.index_fetches);
  EXPECT_EQ(stats.tuple_page_fetches, profile.totals.tuple_reads);
}

TEST(ObsIntegrationTest, DualIndexProfileReproducesMeasurement) {
  Dataset ds = BuildDataset(SmallConfig());
  Rng rng(424242);
  // Refinement decides box-provable candidates from each tuple's mirrored
  // bounding box without an LP; track them via the refiner's counters to
  // keep the per-candidate accounting exact.
  obs::GlobalMetrics().SetEnabled(true);
  obs::Counter* bbox_accepts =
      obs::GlobalMetrics().counter("refine.batch.bbox_accepts");
  obs::Counter* bbox_rejects =
      obs::GlobalMetrics().counter("refine.batch.bbox_rejects");
  for (SelectionType type : {SelectionType::kExist, SelectionType::kAll}) {
    std::vector<CalibratedQuery> qs =
        MakeQueries(*ds.relation, type, 3, 0.05, 0.4, &rng);
    Measurement m = MeasureDual(&ds, qs, QueryMethod::kT2);

    // Replay the exact harness protocol (cold caches per query), this time
    // collecting profiles and external before/after snapshots.
    double index_sum = 0, tuple_sum = 0;
    for (const CalibratedQuery& cq : qs) {
      ASSERT_TRUE(ds.dual_pager->DropCache().ok());
      ASSERT_TRUE(ds.rel_pager->DropCache().ok());
      IoStats index_before = ds.dual_pager->stats();
      IoStats tuple_before = ds.rel_pager->stats();
      QueryStats stats;
      obs::ExplainProfile profile;
      uint64_t box_before = bbox_accepts->value() + bbox_rejects->value();
      Result<std::vector<TupleId>> r =
          ds.dual->Select(cq.type, cq.query, QueryMethod::kT2, &stats,
                          &profile);
      uint64_t box_decided =
          bbox_accepts->value() + bbox_rejects->value() - box_before;
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      CheckProfileAgainstExternalSnapshots(
          profile, ds.dual_pager->stats().Delta(index_before),
          ds.rel_pager->stats().Delta(tuple_before), stats);
      // The phase tree has the shape the query plan promises.
      EXPECT_NE(profile.root.Find("filter"), nullptr) << profile.ToString();
      if (stats.candidates > 0) {
        const obs::ProfileNode* refine = profile.root.Find("refine");
        ASSERT_NE(refine, nullptr) << profile.ToString();
        const obs::ProfileNode* lp = refine->Find("lp");
        ASSERT_NE(lp, nullptr) << profile.ToString();
        // One LP evaluation per deduplicated candidate the bounding box
        // did not already decide.
        EXPECT_EQ(lp->invocations + box_decided,
                  stats.candidates - stats.filter.dedup_dropped);
      }
      // Still the right answer (candidate superset refined exactly).
      Result<std::vector<TupleId>> naive =
          NaiveSelect(*ds.relation, cq.type, cq.query);
      ASSERT_TRUE(naive.ok());
      EXPECT_EQ(r.value(), naive.value());
      index_sum += static_cast<double>(profile.totals.index_fetches);
      tuple_sum += static_cast<double>(profile.totals.tuple_reads);
    }
    // Per-query profile totals average to the Measurement numbers exactly.
    double n = static_cast<double>(qs.size());
    EXPECT_DOUBLE_EQ(index_sum / n, m.index_fetches);
    EXPECT_DOUBLE_EQ(tuple_sum / n, m.tuple_fetches);
  }
  obs::GlobalMetrics().SetEnabled(false);
}

TEST(ObsIntegrationTest, RTreeProfileReproducesMeasurement) {
  Dataset ds = BuildDataset(SmallConfig());
  Rng rng(515151);
  for (SelectionType type : {SelectionType::kExist, SelectionType::kAll}) {
    std::vector<CalibratedQuery> qs =
        MakeQueries(*ds.relation, type, 3, 0.05, 0.4, &rng);
    Measurement m = MeasureRTree(&ds, qs);

    double index_sum = 0, tuple_sum = 0;
    for (const CalibratedQuery& cq : qs) {
      ASSERT_TRUE(ds.rtree_pager->DropCache().ok());
      ASSERT_TRUE(ds.rel_pager->DropCache().ok());
      IoStats index_before = ds.rtree_pager->stats();
      IoStats tuple_before = ds.rel_pager->stats();
      QueryStats stats;
      obs::ExplainProfile profile;
      Result<std::vector<TupleId>> r =
          RTreeSelect(ds.rtree.get(), ds.relation.get(), cq.type, cq.query,
                      &stats, &profile);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      CheckProfileAgainstExternalSnapshots(
          profile, ds.rtree_pager->stats().Delta(index_before),
          ds.rel_pager->stats().Delta(tuple_before), stats);
      EXPECT_NE(profile.root.Find("filter"), nullptr) << profile.ToString();
      Result<std::vector<TupleId>> naive =
          NaiveSelect(*ds.relation, cq.type, cq.query);
      ASSERT_TRUE(naive.ok());
      EXPECT_EQ(r.value(), naive.value());
      index_sum += static_cast<double>(profile.totals.index_fetches);
      tuple_sum += static_cast<double>(profile.totals.tuple_reads);
    }
    double n = static_cast<double>(qs.size());
    EXPECT_DOUBLE_EQ(index_sum / n, m.index_fetches);
    EXPECT_DOUBLE_EQ(tuple_sum / n, m.tuple_fetches);
  }
}

}  // namespace
}  // namespace cdb
