// Executor stress + fault injection (ISSUE 3 satellite): 8 worker threads
// drain 200 mixed ALL/EXIST queries and must produce exactly what the
// serial loop and the naive evaluator produce — including the raw
// candidate-superset proofs, per the repo rule that candidate supersets are
// proven supersets, not just "results match". The fault half corrupts every
// relation data block on disk and demands that a worker hitting
// Status::Corruption neither deadlocks the pool nor loses anyone else's
// queries. Sized to stay fast under TSan (runs in `-L sanitize` and
// `-L tsan`).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "constraint/naive_eval.h"
#include "exec/query_executor.h"
#include "pager_test_util.h"
#include "storage/file.h"
#include "workload/generator.h"
#include "workload/query_gen.h"

namespace cdb {
namespace {

constexpr size_t kThreads = 8;
constexpr size_t kWorkerStreams = 8;
constexpr size_t kQueriesPerStream = 25;  // 8 x 25 = 200 queries total.
constexpr uint64_t kBatchSeed = 20260807;

std::unique_ptr<Pager> MakePager(std::unique_ptr<BlockFile> file,
                                 size_t cache_frames = 64) {
  PagerOptions opts;
  opts.page_size = 1024;
  opts.cache_frames = cache_frames;
  std::unique_ptr<Pager> pager;
  EXPECT_TRUE(Pager::Open(std::move(file), opts, &pager).ok());
  return pager;
}

// The batch every test in this file runs: kWorkerStreams decorrelated
// query streams (WorkerRng) interleaved round-robin, so the workload is
// what a real multi-client frontend would enqueue. Every query asks for
// `method`.
std::vector<exec::BatchQuery> MakeStressBatch(
    QueryMethod method = QueryMethod::kAuto) {
  std::vector<Rng> streams;
  for (size_t w = 0; w < kWorkerStreams; ++w) {
    streams.push_back(WorkerRng(kBatchSeed, static_cast<uint32_t>(w)));
  }
  std::vector<exec::BatchQuery> batch;
  for (size_t i = 0; i < kQueriesPerStream; ++i) {
    for (size_t w = 0; w < kWorkerStreams; ++w) {
      Rng& rng = streams[w];
      exec::BatchQuery q;
      q.type = rng.Chance(0.5) ? SelectionType::kAll : SelectionType::kExist;
      q.query = HalfPlaneQuery(std::tan(rng.Uniform(-1.2, 1.2)),
                               rng.Uniform(-60, 60),
                               rng.Chance(0.5) ? Cmp::kGE : Cmp::kLE);
      q.method = method;
      batch.push_back(q);
    }
  }
  return batch;
}

struct StressFixture {
  std::shared_ptr<MemFile> rel_file = std::make_shared<MemFile>(1024);
  std::unique_ptr<Pager> rel_pager;
  std::unique_ptr<Pager> idx_pager;
  std::unique_ptr<Pager> raw_pager;  // Second index, refine = false.
  std::unique_ptr<Relation> relation;
  std::unique_ptr<DualIndex> index;
  std::unique_ptr<DualIndex> raw_index;

  StressFixture() {
    rel_pager = MakePager(std::make_unique<SharedFile>(rel_file));
    idx_pager = MakePager(std::make_unique<MemFile>(1024));
    raw_pager = MakePager(std::make_unique<MemFile>(1024));
    EXPECT_TRUE(
        Relation::Open(rel_pager.get(), kInvalidPageId, &relation).ok());
    Rng rng(kBatchSeed);
    WorkloadOptions w;
    for (int i = 0; i < 500; ++i) {
      EXPECT_TRUE(relation->Insert(RandomBoundedTuple(&rng, w)).ok());
    }
    SlopeSet slopes = SlopeSet::UniformInAngle(4, -1.3, 1.3);
    EXPECT_TRUE(DualIndex::Build(idx_pager.get(), relation.get(), slopes, {},
                                 &index)
                    .ok());
    DualIndexOptions raw_opts;
    raw_opts.refine = false;
    EXPECT_TRUE(DualIndex::Build(raw_pager.get(), relation.get(), slopes,
                                 raw_opts, &raw_index)
                    .ok());
    EXPECT_TRUE(rel_pager->Flush().ok());
  }

  ~StressFixture() {
    ExpectNoPinnedFrames(*rel_pager);
    ExpectNoPinnedFrames(*idx_pager);
    ExpectNoPinnedFrames(*raw_pager);
  }

  std::vector<TupleId> Truth(SelectionType type, const HalfPlaneQuery& q) {
    Result<std::vector<TupleId>> r = NaiveSelect(*relation, type, q);
    EXPECT_TRUE(r.ok());
    return r.value_or({});
  }
};

// The default method serves off-S slopes with T1; kT2 keeps the handicap
// search under the same parallel load.
TEST(ExecStressTest, EightThreadsMatchSerialAndNaive) {
  StressFixture fx;
  for (QueryMethod method : {QueryMethod::kAuto, QueryMethod::kT2}) {
    std::vector<exec::BatchQuery> batch = MakeStressBatch(method);

    exec::QueryExecutor executor(kThreads);
    exec::BatchResult run;
    ASSERT_TRUE(executor.RunBatch(fx.index.get(), batch, {}, &run).ok());
    std::vector<exec::BatchItemResult> parallel = std::move(run.items);
    ASSERT_EQ(parallel.size(), batch.size());

    for (size_t i = 0; i < batch.size(); ++i) {
      ASSERT_TRUE(parallel[i].status.ok()) << parallel[i].status.ToString();
      // Serial reference AND ground truth: the parallel result must equal
      // the serial Select and both must equal the naive evaluator.
      Result<std::vector<TupleId>> serial =
          fx.index->Select(batch[i].type, batch[i].query, method);
      ASSERT_TRUE(serial.ok());
      EXPECT_EQ(parallel[i].ids, serial.value()) << "query " << i;
      EXPECT_EQ(parallel[i].ids, fx.Truth(batch[i].type, batch[i].query))
          << "query " << i;
    }
    EXPECT_TRUE(exec::FirstError(parallel).ok());
  }
}

TEST(ExecStressTest, ParallelCandidateSupersetsMatchSerialProofs) {
  StressFixture fx;
  for (QueryMethod method : {QueryMethod::kAuto, QueryMethod::kT2}) {
    std::vector<exec::BatchQuery> batch = MakeStressBatch(method);

    // Raw (unrefined) candidates through the no-refine index, in parallel.
    exec::QueryExecutor executor(kThreads);
    exec::BatchResult run;
    ASSERT_TRUE(executor.RunBatch(fx.raw_index.get(), batch, {}, &run).ok());
    std::vector<exec::BatchItemResult> raw_parallel = std::move(run.items);

    for (size_t i = 0; i < batch.size(); ++i) {
      ASSERT_TRUE(raw_parallel[i].status.ok());
      // Identical candidate sets to the serial raw index...
      Result<std::vector<TupleId>> raw_serial =
          fx.raw_index->Select(batch[i].type, batch[i].query, method);
      ASSERT_TRUE(raw_serial.ok());
      EXPECT_EQ(raw_parallel[i].ids, raw_serial.value()) << "query " << i;
      // ...and a proven superset of the naive truth, not merely equal after
      // refinement.
      std::vector<TupleId> sorted = raw_parallel[i].ids;
      std::sort(sorted.begin(), sorted.end());
      for (TupleId id : fx.Truth(batch[i].type, batch[i].query)) {
        ASSERT_TRUE(std::binary_search(sorted.begin(), sorted.end(), id))
            << "parallel candidate set lost tuple " << id << " on query "
            << i;
      }
    }
  }
}

TEST(ExecStressTest, CorruptionIsContainedAndRecoverable) {
  StressFixture fx;
  std::vector<exec::BatchQuery> batch = MakeStressBatch();

  // Flip one payload byte in every relation data block (block 0 is the
  // pager meta page; leave it valid so the file still opens). Keep the
  // originals so the second half of the test can heal the file.
  ASSERT_TRUE(fx.rel_pager->DropCache().ok());
  const size_t block_size = fx.rel_file->block_size();
  std::vector<std::vector<char>> originals;
  std::vector<char> block(block_size);
  const uint64_t blocks = fx.rel_file->BlockCount();
  ASSERT_GT(blocks, 1u);
  for (uint64_t b = 1; b < blocks; ++b) {
    ASSERT_TRUE(fx.rel_file->ReadBlock(b, block.data()).ok());
    originals.push_back(block);
    block[block_size / 2] ^= 0x5a;
    ASSERT_TRUE(fx.rel_file->WriteBlock(b, block.data()).ok());
  }

  exec::QueryExecutor executor(kThreads);
  exec::BatchResult run;
  // The batch completes: no deadlock, no lost queries, and the batch-level
  // status is OK because failures are per item.
  ASSERT_TRUE(executor.RunBatch(fx.index.get(), batch, {}, &run).ok());
  std::vector<exec::BatchItemResult> results = std::move(run.items);
  ASSERT_EQ(results.size(), batch.size());

  size_t corrupted = 0;
  for (size_t i = 0; i < results.size(); ++i) {
    if (!results[i].status.ok()) {
      EXPECT_TRUE(results[i].status.IsCorruption())
          << results[i].status.ToString();
      ++corrupted;
    }
  }
  EXPECT_GE(corrupted, 1u) << "no query did a physical relation read";
  EXPECT_TRUE(exec::FirstError(results).IsCorruption());
  // Both pagers exited concurrent-read mode cleanly despite the failures.
  EXPECT_FALSE(fx.rel_pager->concurrent_reads_active());
  EXPECT_FALSE(fx.idx_pager->concurrent_reads_active());
  ExpectNoPinnedFrames(*fx.rel_pager);
  ExpectNoPinnedFrames(*fx.idx_pager);

  // Heal the file; the same batch must now succeed everywhere and match
  // the naive evaluator again.
  for (uint64_t b = 1; b < blocks; ++b) {
    ASSERT_TRUE(fx.rel_file->WriteBlock(b, originals[b - 1].data()).ok());
  }
  ASSERT_TRUE(fx.rel_pager->DropCache().ok());
  exec::BatchResult healed_run;
  ASSERT_TRUE(executor.RunBatch(fx.index.get(), batch, {}, &healed_run).ok());
  std::vector<exec::BatchItemResult> healed = std::move(healed_run.items);
  for (size_t i = 0; i < healed.size(); ++i) {
    ASSERT_TRUE(healed[i].status.ok()) << healed[i].status.ToString();
    EXPECT_EQ(healed[i].ids, fx.Truth(batch[i].type, batch[i].query));
    if (results[i].status.ok()) {
      // A query that succeeded against the corrupt file never touched a
      // relation page, so its (empty) answer was already exact.
      EXPECT_EQ(results[i].ids, healed[i].ids) << "query " << i;
    }
  }
}

}  // namespace
}  // namespace cdb
