// Executor observability tests (ISSUE 5 tentpole): the instrumented
// RunBatch overloads must record every query's service time and queue wait
// exactly once (count == batch size), drive all timing through the injected
// Clock (a frozen ManualClock yields all-zero durations — proof no
// wall clock leaks in), sample traces deterministically from (seed, index)
// regardless of thread count, and keep the ISSUE 1 attribution invariants
// under full concurrency: every sampled ExplainProfile sums to its own
// totals, and every traced worker session keeps
// page_fetches == buffer_hits + page_reads. Runs under `-L tsan`.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "exec/query_executor.h"
#include "obs/metrics.h"
#include "pager_test_util.h"
#include "storage/file.h"
#include "workload/generator.h"

namespace cdb {
namespace {

constexpr uint64_t kSeed = 20260807;

std::unique_ptr<Pager> MakePager() {
  PagerOptions opts;
  opts.page_size = 1024;
  opts.cache_frames = 512;
  std::unique_ptr<Pager> pager;
  EXPECT_TRUE(
      Pager::Open(std::make_unique<MemFile>(1024), opts, &pager).ok());
  return pager;
}

struct ObsFixture {
  std::unique_ptr<Pager> rel_pager = MakePager();
  std::unique_ptr<Pager> idx_pager = MakePager();
  std::unique_ptr<Relation> relation;
  std::unique_ptr<DualIndex> index;
  Rng rng{kSeed};

  explicit ObsFixture(int n = 300) {
    EXPECT_TRUE(
        Relation::Open(rel_pager.get(), kInvalidPageId, &relation).ok());
    WorkloadOptions w;
    for (int i = 0; i < n; ++i) {
      EXPECT_TRUE(relation->Insert(RandomBoundedTuple(&rng, w)).ok());
    }
    EXPECT_TRUE(DualIndex::Build(idx_pager.get(), relation.get(),
                                 SlopeSet::UniformInAngle(4, -1.3, 1.3), {},
                                 &index)
                    .ok());
  }

  ~ObsFixture() {
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
};

std::set<size_t> SampledIndices(const exec::BatchResult& out) {
  std::set<size_t> sampled;
  for (size_t i = 0; i < out.items.size(); ++i) {
    if (out.items[i].profile != nullptr) sampled.insert(i);
  }
  return sampled;
}

TEST(ExecObsTest, LatencyIsRecordedExactlyOncePerQuery) {
  ObsFixture fx;
  std::vector<exec::BatchQuery> batch = fx.MakeBatch(32);

  // Uninstrumented reference results.
  exec::QueryExecutor executor(4);
  std::vector<exec::BatchItemResult> plain;
  ASSERT_TRUE(executor.RunBatch(fx.index.get(), batch, &plain).ok());

  obs::MetricsRegistry& registry = obs::GlobalMetrics();
  const bool was_enabled = registry.enabled();
  registry.SetEnabled(true);
  obs::LatencyRecorder* service = registry.histogram("exec.query.latency");
  obs::LatencyRecorder* queue = registry.histogram("exec.queue.wait");
  const uint64_t service0 = service->count();
  const uint64_t queue0 = queue->count();

  exec::BatchObservability bobs;
  bobs.record_latency = true;
  exec::BatchResult out;
  ASSERT_TRUE(executor.RunBatch(fx.index.get(), batch, bobs, &out).ok());
  registry.SetEnabled(was_enabled);

  // The acceptance criterion: one service sample and one queue-wait sample
  // per query, no more, no less — regardless of scheduling.
  ASSERT_EQ(out.items.size(), batch.size());
  EXPECT_EQ(out.service.count, batch.size());
  EXPECT_EQ(out.queue_wait.count, batch.size());
  EXPECT_GE(out.service.max_ms, 0.0);
  EXPECT_TRUE(exec::FirstError(out.items).ok());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(out.items[i].ids, plain[i].ids) << "query " << i;
  }

  // The registry histograms gained exactly the batch.
  EXPECT_EQ(service->count() - service0, batch.size());
  EXPECT_EQ(queue->count() - queue0, batch.size());
}

// Each BatchResult digest covers its own batch, while the registry
// histograms accumulate every batch recorded into them.
TEST(ExecObsTest, RegistryHistogramsAccumulateAcrossBatches) {
  ObsFixture fx;
  std::vector<exec::BatchQuery> batch = fx.MakeBatch(24);
  ManualClock clock;
  exec::BatchObservability bobs;
  bobs.record_latency = true;
  bobs.clock = &clock;
  exec::QueryExecutor executor(2);

  obs::MetricsRegistry& registry = obs::GlobalMetrics();
  const bool was_enabled = registry.enabled();
  registry.SetEnabled(true);
  const obs::MetricsSnapshot before = registry.Snapshot();
  for (int round = 0; round < 2; ++round) {
    exec::BatchResult out;
    ASSERT_TRUE(executor.RunBatch(fx.index.get(), batch, bobs, &out).ok());
    EXPECT_EQ(out.service.count, batch.size());
    EXPECT_EQ(out.queue_wait.count, batch.size());
  }
  const obs::MetricsSnapshot delta =
      obs::SnapshotDelta(registry.Snapshot(), before);
  registry.SetEnabled(was_enabled);

  for (const char* name : {"exec.query.latency", "exec.queue.wait"}) {
    const obs::MetricsSnapshot::HistogramData& h = delta.histograms.at(name);
    EXPECT_EQ(h.count, 2 * batch.size()) << name;
    // A frozen clock puts every duration in the first bucket.
    EXPECT_EQ(h.counts[0], 2 * batch.size()) << name;
    EXPECT_EQ(h.sum, 0.0) << name;
  }
}

TEST(ExecObsTest, InjectedClockDrivesAllTiming) {
  ObsFixture fx;
  std::vector<exec::BatchQuery> batch = fx.MakeBatch(16);
  // A frozen clock: if any timer read wall time instead, the elapsed
  // durations would be non-zero.
  ManualClock clock(1'000'000'000);
  exec::BatchObservability bobs;
  bobs.record_latency = true;
  bobs.clock = &clock;

  exec::QueryExecutor executor(4);
  exec::BatchResult out;
  ASSERT_TRUE(executor.RunBatch(fx.index.get(), batch, bobs, &out).ok());
  EXPECT_EQ(out.service.count, batch.size());
  EXPECT_EQ(out.queue_wait.count, batch.size());
  EXPECT_EQ(out.service.max_ms, 0.0);
  EXPECT_EQ(out.service.sum_ms, 0.0);
  EXPECT_EQ(out.queue_wait.max_ms, 0.0);
}

TEST(ExecObsTest, SamplingIsDeterministicAcrossRunsAndThreadCounts) {
  ObsFixture fx;
  std::vector<exec::BatchQuery> batch = fx.MakeBatch(64);
  exec::BatchObservability bobs;
  bobs.record_latency = true;
  bobs.trace_sample_every = 4;
  bobs.trace_sample_seed = kSeed;

  std::set<size_t> reference;
  for (size_t threads : {1u, 4u, 8u}) {
    exec::QueryExecutor executor(threads);
    exec::BatchResult out;
    ASSERT_TRUE(executor.RunBatch(fx.index.get(), batch, bobs, &out).ok());
    std::set<size_t> sampled = SampledIndices(out);
    ASSERT_FALSE(sampled.empty());
    EXPECT_LT(sampled.size(), batch.size());  // 1-in-4, not everything.
    EXPECT_EQ(out.sampled_traces, sampled.size());
    // Balance invariant on every sampled profile, under concurrency.
    EXPECT_EQ(out.balanced_traces, out.sampled_traces);
    for (size_t i : sampled) {
      const obs::ExplainProfile& p = *out.items[i].profile;
      EXPECT_TRUE(p.SumsBalance()) << "query " << i;
      // The profile's totals carry the same accounting as QueryStats
      // (decision 11: logical on the index side, physical on refinement).
      EXPECT_EQ(p.totals.index_fetches,
                out.items[i].stats.index_page_fetches)
          << "query " << i;
      EXPECT_EQ(p.totals.tuple_reads,
                out.items[i].stats.tuple_page_fetches)
          << "query " << i;
    }
    if (reference.empty()) {
      reference = sampled;
    } else {
      EXPECT_EQ(sampled, reference) << "threads=" << threads;
    }
  }

  // A different seed picks a different (still deterministic) sample.
  bobs.trace_sample_seed = kSeed + 1;
  exec::QueryExecutor executor(4);
  exec::BatchResult out;
  ASSERT_TRUE(executor.RunBatch(fx.index.get(), batch, bobs, &out).ok());
  EXPECT_NE(SampledIndices(out), reference);
}

TEST(ExecObsTest, SampleEveryOneTracesTheWholeBatch) {
  ObsFixture fx;
  std::vector<exec::BatchQuery> batch = fx.MakeBatch(24);
  exec::BatchObservability bobs;
  bobs.trace_sample_every = 1;
  bobs.trace_sample_seed = 7;

  exec::QueryExecutor executor(8);
  exec::BatchResult out;
  ASSERT_TRUE(executor.RunBatch(fx.index.get(), batch, bobs, &out).ok());
  EXPECT_EQ(out.sampled_traces, batch.size());
  EXPECT_EQ(out.balanced_traces, batch.size());
  for (size_t i = 0; i < out.items.size(); ++i) {
    ASSERT_NE(out.items[i].profile, nullptr) << "query " << i;
    EXPECT_TRUE(out.items[i].profile->SumsBalance()) << "query " << i;
  }
  // Sampling without record_latency leaves the digests empty.
  EXPECT_EQ(out.service.count, 0u);
  EXPECT_EQ(out.queue_wait.count, 0u);
}

// Satellite: the per-session accounting audit under tracing. Each worker's
// thread-local view of both pagers must balance fetch-by-fetch while a
// Tracer is attached, and the per-batch session totals must balance after
// the merge.
TEST(ExecObsTest, TracedWorkerSessionsKeepFetchAccountingBalanced) {
  ObsFixture fx;
  std::vector<exec::BatchQuery> batch = fx.MakeBatch(48);
  exec::BatchObservability bobs;
  bobs.record_latency = true;
  bobs.trace_sample_every = 2;
  bobs.trace_sample_seed = kSeed;

  const IoStats idx_before = fx.idx_pager->stats();
  const IoStats rel_before = fx.rel_pager->stats();

  exec::QueryExecutor executor(8);
  exec::BatchResult out;
  ASSERT_TRUE(executor.RunBatch(fx.index.get(), batch, bobs, &out).ok());
  ASSERT_TRUE(exec::FirstError(out.items).ok());
  ASSERT_GT(out.sampled_traces, 0u);
  EXPECT_EQ(out.balanced_traces, out.sampled_traces);

  // Per sampled profile: the whole-query pager delta the tracer measured
  // is logical fetches; each span's physical reads can never exceed its
  // fetches (reads are the miss subset of fetches).
  for (const exec::BatchItemResult& item : out.items) {
    if (item.profile == nullptr) continue;
    EXPECT_LE(item.profile->totals.index_reads,
              item.profile->totals.index_fetches);
    EXPECT_LE(item.profile->totals.tuple_reads,
              item.profile->totals.tuple_fetches);
  }

  // Per pager, after every session merged: the global ledger still balances
  // and grew by exactly what the batch did.
  for (const Pager* pager : {fx.idx_pager.get(), fx.rel_pager.get()}) {
    const IoStats& s = pager->stats();
    EXPECT_EQ(s.page_fetches, s.buffer_hits + s.page_reads);
  }
  EXPECT_GT(fx.idx_pager->stats().page_fetches, idx_before.page_fetches);
  EXPECT_EQ(fx.rel_pager->stats().page_fetches - rel_before.page_fetches,
            fx.rel_pager->stats().buffer_hits - rel_before.buffer_hits +
                fx.rel_pager->stats().page_reads - rel_before.page_reads);
}

TEST(ExecObsTest, InstrumentedWriterOverloadRecordsAndSamples) {
  ObsFixture fx;
  std::vector<exec::BatchQuery> batch = fx.MakeBatch(32);
  ASSERT_TRUE(fx.rel_pager->Flush().ok());

  std::vector<GeneralizedTuple> stream;
  WorkloadOptions w;
  for (int i = 0; i < 30; ++i) {
    stream.push_back(RandomBoundedTuple(&fx.rng, w));
  }
  ASSERT_TRUE(fx.relation->BeginOnlineAppends(stream.size()).ok());
  size_t inserted = 0;
  auto writer = [&]() -> Status {
    for (const GeneralizedTuple& t : stream) {
      Result<TupleId> id = fx.relation->Insert(t);
      if (!id.ok()) return id.status();
      CDB_RETURN_IF_ERROR(fx.index->Insert(id.value(), t));
      if (++inserted % 10 == 0) {
        CDB_RETURN_IF_ERROR(fx.rel_pager->Flush());
        fx.relation->PublishAppends();
        CDB_RETURN_IF_ERROR(fx.idx_pager->Flush());
      }
    }
    return Status::OK();
  };

  exec::BatchObservability bobs;
  bobs.record_latency = true;
  bobs.trace_sample_every = 3;
  bobs.trace_sample_seed = kSeed;

  exec::QueryExecutor executor(8);
  exec::BatchResult out;
  ASSERT_TRUE(
      executor.RunBatchWithWriter(fx.index.get(), batch, bobs, &out, writer)
          .ok());
  EXPECT_EQ(inserted, stream.size());
  EXPECT_EQ(out.service.count, batch.size());
  EXPECT_EQ(out.queue_wait.count, batch.size());
  EXPECT_TRUE(exec::FirstError(out.items).ok())
      << exec::FirstError(out.items).ToString();
  ASSERT_GT(out.sampled_traces, 0u);
  EXPECT_EQ(out.balanced_traces, out.sampled_traces);
  // The publish pipeline actually ran under the batch.
  EXPECT_GE(fx.idx_pager->concurrency_stats().publish_epochs, 3u);
  EXPECT_FALSE(fx.idx_pager->concurrent_reads_active());
  EXPECT_FALSE(fx.rel_pager->concurrent_reads_active());
}

}  // namespace
}  // namespace cdb
