// QueryExecutor tests (ISSUE 3 tentpole): the parallel batch path must be
// an accounting-preserving generalization of the serial Select loop — with
// one thread the per-query page-access counts are identical, with many
// threads the result sets are identical, and a failing query is contained
// to its own BatchItemResult. Covers all three engines (dual index, d-dim
// dual index, R+-tree).

#include "exec/query_executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "constraint/naive_eval.h"
#include "dualindex/ddim_index.h"
#include "obs/metrics.h"
#include "pager_test_util.h"
#include "rtree/rtree_query.h"
#include "storage/file.h"
#include "workload/generator.h"
#include "workload/query_gen.h"

namespace cdb {
namespace {

std::unique_ptr<Pager> MakePager(size_t cache_frames = 512) {
  PagerOptions opts;
  opts.page_size = 1024;
  // Large enough that nothing is evicted: physical-read counts then depend
  // only on fetch order, not on which LRU variant picked a victim, so the
  // one-thread executor must reproduce the serial counts bit-for-bit.
  opts.cache_frames = cache_frames;
  std::unique_ptr<Pager> pager;
  EXPECT_TRUE(
      Pager::Open(std::make_unique<MemFile>(1024), opts, &pager).ok());
  return pager;
}

struct ExecFixture {
  std::unique_ptr<Pager> rel_pager = MakePager();
  std::unique_ptr<Pager> idx_pager = MakePager();
  std::unique_ptr<Relation> relation;
  std::unique_ptr<DualIndex> index;
  Rng rng;

  explicit ExecFixture(uint64_t seed, int n = 300) : rng(seed) {
    EXPECT_TRUE(
        Relation::Open(rel_pager.get(), kInvalidPageId, &relation).ok());
    WorkloadOptions w;
    for (int i = 0; i < n; ++i) {
      GeneralizedTuple t = RandomBoundedTuple(&rng, w);
      EXPECT_TRUE(relation->Insert(t).ok());
    }
    EXPECT_TRUE(DualIndex::Build(idx_pager.get(), relation.get(),
                                 SlopeSet::UniformInAngle(4, -1.3, 1.3), {},
                                 &index)
                    .ok());
  }

  ~ExecFixture() {
    ExpectNoPinnedFrames(*rel_pager);
    ExpectNoPinnedFrames(*idx_pager);
  }

  std::vector<exec::BatchQuery> MakeBatch(size_t count) {
    std::vector<exec::BatchQuery> batch;
    for (size_t i = 0; i < count; ++i) {
      exec::BatchQuery q;
      q.type = rng.Chance(0.5) ? SelectionType::kAll : SelectionType::kExist;
      q.query = HalfPlaneQuery(std::tan(rng.Uniform(-1.2, 1.2)),
                               rng.Uniform(-60, 60),
                               rng.Chance(0.5) ? Cmp::kGE : Cmp::kLE);
      batch.push_back(q);
    }
    return batch;
  }

  std::vector<TupleId> Truth(SelectionType type, const HalfPlaneQuery& q) {
    Result<std::vector<TupleId>> r = NaiveSelect(*relation, type, q);
    EXPECT_TRUE(r.ok());
    return r.value_or({});
  }

  void DropCaches() {
    ASSERT_TRUE(idx_pager->DropCache().ok());
    ASSERT_TRUE(rel_pager->DropCache().ok());
  }
};

// Serial reference: the plain Select loop the paper's figures are built on.
std::vector<exec::BatchItemResult> RunSerial(
    DualIndex* index, const std::vector<exec::BatchQuery>& batch) {
  std::vector<exec::BatchItemResult> out(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    Result<std::vector<TupleId>> r =
        index->Select(batch[i].type, batch[i].query, batch[i].method,
                      &out[i].stats);
    if (r.ok()) {
      out[i].ids = std::move(r.value());
    } else {
      out[i].status = r.status();
    }
  }
  return out;
}

TEST(QueryExecutorTest, OneThreadMatchesSerialExactly) {
  ExecFixture fx(501);
  std::vector<exec::BatchQuery> batch = fx.MakeBatch(24);

  fx.DropCaches();
  std::vector<exec::BatchItemResult> serial = RunSerial(fx.index.get(), batch);

  fx.DropCaches();
  exec::QueryExecutor executor(1);
  exec::BatchResult run;
  ASSERT_TRUE(executor.RunBatch(fx.index.get(), batch, {}, &run).ok());
  std::vector<exec::BatchItemResult> parallel = std::move(run.items);

  ASSERT_EQ(parallel.size(), serial.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    ASSERT_TRUE(parallel[i].status.ok()) << parallel[i].status.ToString();
    EXPECT_EQ(parallel[i].ids, serial[i].ids) << "query " << i;
    // The accounting guarantee: identical logical index fetches AND
    // identical physical refinement reads, query by query.
    EXPECT_EQ(parallel[i].stats.index_page_fetches,
              serial[i].stats.index_page_fetches)
        << "query " << i;
    EXPECT_EQ(parallel[i].stats.tuple_page_fetches,
              serial[i].stats.tuple_page_fetches)
        << "query " << i;
    EXPECT_EQ(parallel[i].stats.candidates, serial[i].stats.candidates);
    EXPECT_EQ(parallel[i].stats.results, serial[i].stats.results);
  }
  EXPECT_TRUE(exec::FirstError(parallel).ok());
}

TEST(QueryExecutorTest, MultiThreadMatchesSerialResults) {
  ExecFixture fx(502);
  std::vector<exec::BatchQuery> batch = fx.MakeBatch(48);
  std::vector<exec::BatchItemResult> serial = RunSerial(fx.index.get(), batch);

  for (size_t threads : {2u, 4u, 8u}) {
    exec::QueryExecutor executor(threads);
    EXPECT_EQ(executor.thread_count(), threads);
    exec::BatchResult run;
    ASSERT_TRUE(executor.RunBatch(fx.index.get(), batch, {}, &run).ok());
    std::vector<exec::BatchItemResult> parallel = std::move(run.items);
    ASSERT_EQ(parallel.size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      ASSERT_TRUE(parallel[i].status.ok());
      EXPECT_EQ(parallel[i].ids, serial[i].ids)
          << "threads=" << threads << " query " << i;
      // Logical index fetches depend only on the tree walk, never on
      // scheduling or cache state — exact at any thread count.
      EXPECT_EQ(parallel[i].stats.index_page_fetches,
                serial[i].stats.index_page_fetches);
      EXPECT_EQ(parallel[i].ids, fx.Truth(batch[i].type, batch[i].query));
    }
  }
}

TEST(QueryExecutorTest, ExecutorOutlivesBatchesAndPagersRecover) {
  ExecFixture fx(503);
  exec::QueryExecutor executor(4);
  for (int round = 0; round < 3; ++round) {
    std::vector<exec::BatchQuery> batch = fx.MakeBatch(8);
    exec::BatchResult run;
    ASSERT_TRUE(executor.RunBatch(fx.index.get(), batch, {}, &run).ok());
    // The pagers must be back in exclusive mode between batches...
    EXPECT_FALSE(fx.idx_pager->concurrent_reads_active());
    EXPECT_FALSE(fx.rel_pager->concurrent_reads_active());
    // ...so mutations interleave with batches.
    WorkloadOptions w;
    GeneralizedTuple t = RandomBoundedTuple(&fx.rng, w);
    Result<TupleId> id = fx.relation->Insert(t);
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(fx.index->Insert(id.value(), t).ok());
  }
}

TEST(QueryExecutorTest, PerItemErrorContainment) {
  ExecFixture fx(504);
  std::vector<exec::BatchQuery> batch = fx.MakeBatch(12);
  // Poison a third of the batch: kRestricted demands a slope from S, and
  // 0.123456 is not in the set, so those queries fail with InvalidArgument.
  for (size_t i = 0; i < batch.size(); i += 3) {
    batch[i].method = QueryMethod::kRestricted;
    batch[i].query = HalfPlaneQuery(0.123456, 0.0, Cmp::kGE);
  }

  exec::QueryExecutor executor(4);
  exec::BatchResult run;
  // The batch as a whole succeeds — failures are per item.
  ASSERT_TRUE(executor.RunBatch(fx.index.get(), batch, {}, &run).ok());
  std::vector<exec::BatchItemResult> results = std::move(run.items);
  ASSERT_EQ(results.size(), batch.size());
  for (size_t i = 0; i < results.size(); ++i) {
    if (i % 3 == 0) {
      EXPECT_TRUE(results[i].status.IsInvalidArgument()) << "query " << i;
    } else {
      ASSERT_TRUE(results[i].status.ok()) << "query " << i;
      EXPECT_EQ(results[i].ids, fx.Truth(batch[i].type, batch[i].query));
    }
  }
  EXPECT_TRUE(exec::FirstError(results).IsInvalidArgument());
  // The failed items left the pagers clean (no leaked pins, mode restored).
  EXPECT_FALSE(fx.idx_pager->concurrent_reads_active());
  ExpectNoPinnedFrames(*fx.idx_pager);
}

TEST(QueryExecutorTest, RTreeBatchMatchesSerial) {
  std::unique_ptr<Pager> rel_pager = MakePager();
  std::unique_ptr<Pager> rtree_pager = MakePager();
  std::unique_ptr<Relation> relation;
  ASSERT_TRUE(
      Relation::Open(rel_pager.get(), kInvalidPageId, &relation).ok());
  Rng rng(505);
  WorkloadOptions w;
  std::vector<std::pair<Rect, TupleId>> rects;
  for (int i = 0; i < 250; ++i) {
    GeneralizedTuple t = RandomBoundedTuple(&rng, w);
    Result<TupleId> id = relation->Insert(t);
    ASSERT_TRUE(id.ok());
    Rect box;
    ASSERT_TRUE(t.GetBoundingRect(&box));
    rects.push_back({box, id.value()});
  }
  std::unique_ptr<RPlusTree> tree;
  ASSERT_TRUE(
      RPlusTree::BulkBuild(rtree_pager.get(), std::move(rects), &tree).ok());

  std::vector<exec::BatchQuery> batch;
  for (int i = 0; i < 16; ++i) {
    exec::BatchQuery q;
    q.type = rng.Chance(0.5) ? SelectionType::kAll : SelectionType::kExist;
    q.query = HalfPlaneQuery(std::tan(rng.Uniform(-1.2, 1.2)),
                             rng.Uniform(-60, 60),
                             rng.Chance(0.5) ? Cmp::kGE : Cmp::kLE);
    batch.push_back(q);
  }

  std::vector<std::vector<TupleId>> serial;
  for (const exec::BatchQuery& q : batch) {
    Result<std::vector<TupleId>> r =
        RTreeSelect(tree.get(), relation.get(), q.type, q.query);
    ASSERT_TRUE(r.ok());
    serial.push_back(r.value());
  }

  exec::QueryExecutor executor(4);
  std::vector<exec::BatchItemResult> results(batch.size());
  auto job = [&](size_t i) {
    const exec::BatchQuery& q = batch[i];
    exec::BatchItemResult& out = results[i];
    Result<std::vector<TupleId>> r =
        RTreeSelect(tree.get(), relation.get(), q.type, q.query, &out.stats);
    if (r.ok()) {
      out.ids = std::move(r.value());
    } else {
      out.status = r.status();
    }
  };
  ASSERT_TRUE(executor
                  .RunSharded({tree->pager(), relation->pager()},
                              batch.size(), job)
                  .ok());
  ASSERT_EQ(results.size(), batch.size());
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].status.ok());
    EXPECT_EQ(results[i].ids, serial[i]) << "query " << i;
  }
  ExpectNoPinnedFrames(*rtree_pager);
  ExpectNoPinnedFrames(*rel_pager);
}

TEST(QueryExecutorTest, DDimBatchMatchesSerial) {
  std::unique_ptr<Pager> rel_pager = MakePager();
  std::unique_ptr<Pager> idx_pager = MakePager();
  const size_t dim = 3;
  std::unique_ptr<RelationD> relation;
  ASSERT_TRUE(
      RelationD::Open(rel_pager.get(), dim, kInvalidPageId, &relation).ok());
  // 3x3 grid of slope points over [-1, 1]^2.
  std::vector<std::vector<double>> slopes;
  for (int a = -1; a <= 1; ++a) {
    for (int b = -1; b <= 1; ++b) {
      slopes.push_back({static_cast<double>(a), static_cast<double>(b)});
    }
  }
  std::unique_ptr<DDimDualIndex> index;
  ASSERT_TRUE(
      DDimDualIndex::Create(idx_pager.get(), relation.get(), slopes, &index)
          .ok());
  Rng rng(506);
  for (int i = 0; i < 120; ++i) {
    ASSERT_TRUE(index->Insert(RandomBoundedTupleD(&rng, dim, 20.0)).ok());
  }

  struct DQuery {
    SelectionType type;
    HalfPlaneQueryD query;
  };
  std::vector<DQuery> batch;
  for (int i = 0; i < 16; ++i) {
    DQuery q;
    q.type = rng.Chance(0.5) ? SelectionType::kAll : SelectionType::kExist;
    q.query.slope = {rng.Uniform(-0.9, 0.9), rng.Uniform(-0.9, 0.9)};
    q.query.intercept = rng.Uniform(-40, 40);
    q.query.cmp = rng.Chance(0.5) ? Cmp::kGE : Cmp::kLE;
    batch.push_back(q);
  }

  std::vector<std::vector<TupleId>> serial;
  for (const DQuery& q : batch) {
    Result<std::vector<TupleId>> r = index->Select(q.type, q.query);
    ASSERT_TRUE(r.ok());
    serial.push_back(r.value());
  }

  exec::QueryExecutor executor(4);
  std::vector<exec::BatchItemResult> results(batch.size());
  auto job = [&](size_t i) {
    const DQuery& q = batch[i];
    exec::BatchItemResult& out = results[i];
    Result<std::vector<TupleId>> r =
        index->Select(q.type, q.query, &out.stats);
    if (r.ok()) {
      out.ids = std::move(r.value());
    } else {
      out.status = r.status();
    }
  };
  ASSERT_TRUE(executor
                  .RunSharded({index->pager(), index->relation()->pager()},
                              batch.size(), job)
                  .ok());
  ASSERT_EQ(results.size(), batch.size());
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].status.ok());
    EXPECT_EQ(results[i].ids, serial[i]) << "query " << i;
  }
  ExpectNoPinnedFrames(*idx_pager);
  ExpectNoPinnedFrames(*rel_pager);
}

// Regression (ISSUE 7 satellite): when a later pager of a batch refuses
// the concurrent-read mode switch, the pagers already switched must be
// rolled back to exclusive mode — a half-switched set would wedge every
// subsequent mutation. The failure is induced the same way a user could:
// a live pin on one pager.
TEST(QueryExecutorTest, PartialModeSwitchRollsBack) {
  ExecFixture fx(508);
  exec::QueryExecutor executor(2);
  std::vector<exec::BatchQuery> batch = fx.MakeBatch(6);

  {
    // Pointer order decides which pager switches first; whichever side the
    // pinned one lands on, no pager may be left in concurrent mode.
    Result<PageRef> pin = fx.rel_pager->Fetch(fx.relation->root_page());
    ASSERT_TRUE(pin.ok());
    exec::BatchResult run;
    Status st = executor.RunBatch(fx.index.get(), batch, {}, &run);
    EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
    EXPECT_FALSE(fx.rel_pager->concurrent_reads_active());
    EXPECT_FALSE(fx.idx_pager->concurrent_reads_active());
  }

  // Exclusive mode is truly restored: mutations and Flush still work...
  WorkloadOptions w;
  GeneralizedTuple t = RandomBoundedTuple(&fx.rng, w);
  Result<TupleId> id = fx.relation->Insert(t);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(fx.index->Insert(id.value(), t).ok());
  ASSERT_TRUE(fx.rel_pager->Flush().ok());
  ASSERT_TRUE(fx.idx_pager->Flush().ok());

  // ...and with the pin gone the same batch runs clean.
  exec::BatchResult run;
  ASSERT_TRUE(executor.RunBatch(fx.index.get(), batch, {}, &run).ok());
  std::vector<exec::BatchItemResult> results = std::move(run.items);
  EXPECT_TRUE(exec::FirstError(results).ok());
}

TEST(QueryExecutorTest, AdmissionCapacityShedsBeyondBound) {
  ExecFixture fx(509);
  std::vector<exec::BatchQuery> batch = fx.MakeBatch(10);
  exec::QueryExecutor executor(2);

  const bool metrics_were_enabled = obs::GlobalMetrics().enabled();
  obs::GlobalMetrics().SetEnabled(true);
  obs::Counter* shed_counter = obs::GlobalMetrics().counter("exec.shed.count");
  const uint64_t shed_before = shed_counter->value();

  exec::BatchObservability bobs;
  bobs.admission_capacity = 4;
  exec::BatchResult out;
  ASSERT_TRUE(executor.RunBatch(fx.index.get(), batch, bobs, &out).ok());
  obs::GlobalMetrics().SetEnabled(metrics_were_enabled);

  ASSERT_EQ(out.items.size(), batch.size());
  EXPECT_EQ(out.shed, 6u);
  EXPECT_EQ(shed_counter->value() - shed_before, 6u);
  size_t completed = 0;
  for (size_t i = 0; i < out.items.size(); ++i) {
    if (i < 4) {
      // Admitted queries are served normally and correctly.
      ASSERT_TRUE(out.items[i].status.ok()) << "query " << i;
      EXPECT_EQ(out.items[i].ids, fx.Truth(batch[i].type, batch[i].query));
      ++completed;
    } else {
      EXPECT_TRUE(out.items[i].status.IsUnavailable()) << "query " << i;
    }
  }
  // The bench-artifact invariant: every submitted query is accounted for.
  EXPECT_EQ(out.shed + completed, batch.size());
}

}  // namespace
}  // namespace cdb
