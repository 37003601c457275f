// Differential and fault coverage for the shared candidate-batch refiner:
// the page-clustered / SoA / bounding-box path must be decision-identical
// to the naive evaluator across ALL/EXIST and both comparison senses
// (bounded and unbounded tuples), and its booking must be derivable from
// the candidate set and NaiveSelect truth alone; FilterCounts partitions
// must balance — including the abandoned bucket when a deadline or
// cancellation fires at page granularity; refine-off queries must return
// proven candidate supersets; injected tuple-read faults must surface as
// per-item kUnavailable with no leaked pins.

#include "constraint/refine_batch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "common/query_context.h"
#include "common/rng.h"
#include "constraint/naive_eval.h"
#include "dualindex/dual_index.h"
#include "obs/metrics.h"
#include "pager_test_util.h"
#include "storage/fault_file.h"
#include "storage/file.h"
#include "storage/pager.h"
#include "workload/generator.h"

namespace cdb {
namespace {

using FaultPlan = FaultInjectionFile::FaultPlan;

std::unique_ptr<Pager> MakePager() {
  PagerOptions opts;
  opts.page_size = 1024;
  opts.cache_frames = 64;
  std::unique_ptr<Pager> pager;
  EXPECT_TRUE(
      Pager::Open(std::make_unique<MemFile>(1024), opts, &pager).ok());
  return pager;
}

// Relation (mixed bounded/unbounded tuples, boxes from the shape mirror)
// plus a dual index over it — the full refinement substrate.
struct RefineFixture {
  std::unique_ptr<Pager> rel_pager = MakePager();
  std::unique_ptr<Pager> idx_pager = MakePager();
  std::unique_ptr<Relation> relation;
  std::unique_ptr<DualIndex> index;

  explicit RefineFixture(DualIndexOptions options = {},
                         bool with_unbounded = true, int n = 180) {
    EXPECT_TRUE(
        Relation::Open(rel_pager.get(), kInvalidPageId, &relation).ok());
    Rng rng(8101);
    WorkloadOptions w;
    for (int i = 0; i < n; ++i) {
      GeneralizedTuple t = (with_unbounded && i % 9 == 0)
                               ? RandomUnboundedTuple(&rng, w)
                               : RandomBoundedTuple(&rng, w);
      EXPECT_TRUE(relation->Insert(t).ok());
    }
    EXPECT_TRUE(DualIndex::Build(idx_pager.get(), relation.get(),
                                 SlopeSet::UniformInAngle(4, -1.3, 1.3),
                                 options, &index)
                    .ok());
  }

  std::vector<TupleId> LiveIds() const {
    std::vector<TupleId> ids;
    EXPECT_TRUE(relation
                    ->ForEach([&](TupleId id, const GeneralizedTuple&) {
                      ids.push_back(id);
                      return Status::OK();
                    })
                    .ok());
    return ids;
  }

  void CheckClean() {
    ExpectNoPinnedFrames(*rel_pager);
    ExpectNoPinnedFrames(*idx_pager);
  }
};

// Query slopes stay inside the slope-set band so both T1 and T2 run their
// real (non-fallback) plans; three intercept levels cover dense-accept,
// mixed, and dense-reject refinement populations.
std::vector<std::pair<SelectionType, HalfPlaneQuery>> QuerySweep() {
  std::vector<std::pair<SelectionType, HalfPlaneQuery>> out;
  for (double slope : {0.37, -0.8, 1.1}) {
    for (double b : {-20.0, 0.0, 15.0}) {
      for (Cmp cmp : {Cmp::kGE, Cmp::kLE}) {
        out.push_back({SelectionType::kAll, HalfPlaneQuery(slope, b, cmp)});
        out.push_back({SelectionType::kExist, HalfPlaneQuery(slope, b, cmp)});
      }
    }
  }
  return out;
}

// --- Differential: refiner vs naive ------------------------------------------

// The reference is NaiveSelect, which decides every tuple by the scalar
// ExactAll/ExactExist predicate. The refiner's booking is restated from the
// candidate set and that truth: every candidate lands in exactly one bucket
// (an LP, a box accept, or a box reject), accepts total |truth| and rejects
// are the rest.
TEST(RefineBatchTest, BatchedMatchesScalarAndNaiveAcrossFamilies) {
  RefineFixture fx;
  obs::GlobalMetrics().SetEnabled(true);
  obs::Counter* lp = obs::GlobalMetrics().counter("dual.refine.lp_calls");
  obs::Counter* bbox_accepts =
      obs::GlobalMetrics().counter("refine.batch.bbox_accepts");
  obs::Counter* bbox_rejects =
      obs::GlobalMetrics().counter("refine.batch.bbox_rejects");

  for (const auto& [type, q] : QuerySweep()) {
    Result<std::vector<TupleId>> truth = NaiveSelect(*fx.relation, type, q);
    ASSERT_TRUE(truth.ok()) << truth.status().ToString();
    const uint64_t n_truth = truth.value().size();

    for (QueryMethod method : {QueryMethod::kT1, QueryMethod::kT2}) {
      QueryStats stats;
      const uint64_t lp_before = lp->value();
      const uint64_t accepts_before = bbox_accepts->value();
      const uint64_t rejects_before = bbox_rejects->value();
      Result<std::vector<TupleId>> got =
          fx.index->Select(type, q, method, &stats);
      const uint64_t lp_calls = lp->value() - lp_before;
      const uint64_t box_accepts = bbox_accepts->value() - accepts_before;
      const uint64_t box_rejects = bbox_rejects->value() - rejects_before;

      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(got.value(), truth.value())
          << "type=" << static_cast<int>(type) << " slope=" << q.slope
          << " b=" << q.intercept << " method=" << static_cast<int>(method);
      EXPECT_TRUE(std::is_sorted(got.value().begin(), got.value().end()));

      const obs::FilterCounts& f = stats.filter;
      EXPECT_TRUE(f.Balances());
      EXPECT_EQ(f.abandoned, 0u);
      // Candidates that reach refinement (after dedup) are each decided
      // once: by an LP or by the box. Box decisions never change a
      // decision, so accepts and rejects match naive truth exactly.
      const uint64_t refined = f.candidates - f.dedup_dropped;
      EXPECT_EQ(lp_calls + box_accepts + box_rejects, refined);
      EXPECT_EQ(f.early_accepts, box_accepts);
      EXPECT_EQ(f.early_accepts + f.refine_accepts, n_truth);
      EXPECT_EQ(f.refine_rejects, refined - n_truth);
      fx.CheckClean();
    }
  }
  obs::GlobalMetrics().SetEnabled(false);
}

// --- Direct refiner: booking, ordering, box short-circuits -------------------

TEST(RefineBatchTest, DirectRefinerBooksPartitionsAndSkipsBoxDecided) {
  RefineFixture fx;
  const std::vector<TupleId> all_ids = fx.LiveIds();
  ASSERT_GT(all_ids.size(), 0u);
  obs::GlobalMetrics().SetEnabled(true);
  obs::Counter* lp = obs::GlobalMetrics().counter("test.refine.lp_calls");
  obs::Counter* bbox_accepts =
      obs::GlobalMetrics().counter("refine.batch.bbox_accepts");
  obs::Counter* bbox_rejects =
      obs::GlobalMetrics().counter("refine.batch.bbox_rejects");

  // Distinct relation pages holding `ids`: the most a page-clustered
  // refiner may read from a cold cache.
  auto distinct_pages = [&](const std::vector<TupleId>& ids) {
    std::vector<PageId> pages;
    for (TupleId id : ids) {
      PageId pid;
      EXPECT_TRUE(fx.relation->LocateTuple(id, &pid).ok());
      pages.push_back(pid);
    }
    std::sort(pages.begin(), pages.end());
    return static_cast<uint64_t>(
        std::unique(pages.begin(), pages.end()) - pages.begin());
  };
  const uint64_t candidate_pages = distinct_pages(all_ids);

  // Far-below intercept: ALL(y >= .3x - 200) holds for every bounded tuple
  // in the ±50 window and the box alone proves it; far-above intercept:
  // EXIST(y >= .3x + 500) is box-refutable the same way. Unbounded tuples
  // carry no box and always take the LP path.
  const struct {
    SelectionType type;
    HalfPlaneQuery q;
    bool expect_box_accepts;
  } cases[] = {
      {SelectionType::kAll, HalfPlaneQuery(0.3, -200.0, Cmp::kGE), true},
      {SelectionType::kExist, HalfPlaneQuery(0.3, 500.0, Cmp::kGE), false},
      {SelectionType::kAll, HalfPlaneQuery(-0.6, 4.0, Cmp::kLE), false},
      {SelectionType::kExist, HalfPlaneQuery(0.9, -3.0, Cmp::kLE), false},
  };
  for (const auto& c : cases) {
    std::vector<TupleId> kept = all_ids;
    obs::FilterCounts filter;
    uint64_t false_hits = 0;
    // Cold cache so physical reads measure the clustering.
    ASSERT_TRUE(fx.rel_pager->Flush().ok());
    ASSERT_TRUE(fx.rel_pager->DropCache().ok());
    const IoStats io_before = fx.rel_pager->stats();
    const uint64_t lp_before = lp->value();
    const uint64_t accepts_before = bbox_accepts->value();
    const uint64_t rejects_before = bbox_rejects->value();
    ASSERT_TRUE(RefineBatch2D(*fx.relation, c.type, c.q, lp, /*ctx=*/nullptr,
                              &kept, &filter, &false_hits)
                    .ok());
    const uint64_t lp_calls = lp->value() - lp_before;
    const uint64_t box_accepts = bbox_accepts->value() - accepts_before;
    const uint64_t box_rejects = bbox_rejects->value() - rejects_before;
    const uint64_t page_reads =
        fx.rel_pager->stats().Delta(io_before).page_reads;
    filter.candidates = all_ids.size();
    filter.results = filter.early_accepts + filter.refine_accepts;
    fx.CheckClean();

    Result<std::vector<TupleId>> truth =
        NaiveSelect(*fx.relation, c.type, c.q);
    ASSERT_TRUE(truth.ok());
    const uint64_t n_truth = truth.value().size();
    EXPECT_EQ(kept, truth.value());
    EXPECT_TRUE(std::is_sorted(kept.begin(), kept.end()));

    EXPECT_TRUE(filter.Balances());
    EXPECT_EQ(false_hits, filter.refine_rejects);
    EXPECT_EQ(filter.early_accepts, box_accepts);
    EXPECT_EQ(filter.early_accepts + filter.refine_accepts, n_truth);
    EXPECT_EQ(filter.refine_rejects, all_ids.size() - n_truth);

    // Every candidate is decided exactly once: by an LP or by the box.
    EXPECT_EQ(lp_calls + box_accepts + box_rejects, all_ids.size());
    if (c.expect_box_accepts) {
      EXPECT_GT(box_accepts, 0u) << "slope=" << c.q.slope;
    } else if (c.type == SelectionType::kExist) {
      EXPECT_GT(box_rejects, 0u) << "slope=" << c.q.slope;
    }
    // Page clustering + box short-circuits read each candidate page at
    // most once.
    EXPECT_LE(page_reads, candidate_pages);
  }
  obs::GlobalMetrics().SetEnabled(false);
}

// --- Refine-off supersets ----------------------------------------------------

TEST(RefineBatchTest, RefineOffReturnsProvenSuperset) {
  DualIndexOptions options;
  options.refine = false;
  RefineFixture fx(options);

  for (const auto& [type, q] : QuerySweep()) {
    Result<std::vector<TupleId>> truth = NaiveSelect(*fx.relation, type, q);
    ASSERT_TRUE(truth.ok());
    for (QueryMethod method : {QueryMethod::kT1, QueryMethod::kT2}) {
      QueryStats stats;
      Result<std::vector<TupleId>> got =
          fx.index->Select(type, q, method, &stats);
      ASSERT_TRUE(got.ok());
      // The refiner never runs, so the result is the raw candidate
      // superset — and that superset must contain every true result.
      EXPECT_TRUE(std::includes(got.value().begin(), got.value().end(),
                                truth.value().begin(), truth.value().end()))
          << "refine-off candidates dropped a true result: slope=" << q.slope
          << " b=" << q.intercept;
      EXPECT_EQ(stats.false_hits, 0u);
      EXPECT_TRUE(stats.filter.Balances());
      fx.CheckClean();
    }
  }
}

// --- Deadline / cancellation accounting --------------------------------------

// Advances one nanosecond per reading, so deadline_ns = j fires at exactly
// the j-th context check (same driver as query_cancel_test).
class TickingClock final : public Clock {
 public:
  uint64_t NowNanos() override { return ++now_; }
  void SleepNanos(uint64_t ns) override { now_ += ns; }

 private:
  uint64_t now_ = 0;
};

TEST(RefineBatchTest, BatchedDeadlineAtEveryCheckpointKeepsBalance) {
  RefineFixture fx;
  HalfPlaneQuery q(0.37, 5.0, Cmp::kGE);

  int aborted = 0;
  bool saw_partial_refine = false;
  for (uint64_t j = 1; j < 100000; ++j) {
    TickingClock clock;
    QueryContext ctx;
    ctx.deadline_ns = j;
    ctx.clock = &clock;
    QueryStats stats;
    Status st = fx.index
                    ->Select(SelectionType::kAll, q, QueryMethod::kT1,
                             &stats, /*profile=*/nullptr, &ctx)
                    .status();
    EXPECT_TRUE(stats.filter.Balances())
        << "deadline at check " << j << ": " << st.ToString();
    fx.CheckClean();
    if (st.ok()) {
      EXPECT_EQ(stats.filter.abandoned, 0u);
      break;
    }
    EXPECT_TRUE(st.IsDeadlineExceeded()) << st.ToString();
    ++aborted;
    // A deadline inside the page-clustered refine loop leaves processed
    // candidates in their buckets and the unprocessed tail abandoned.
    if (stats.filter.abandoned > 0 &&
        stats.filter.early_accepts + stats.filter.refine_accepts +
                stats.filter.refine_rejects >
            0) {
      saw_partial_refine = true;
      EXPECT_EQ(stats.filter.candidates,
                stats.filter.dedup_dropped + stats.filter.early_accepts +
                    stats.filter.refine_accepts +
                    stats.filter.refine_rejects + stats.filter.abandoned);
    }
  }
  EXPECT_GT(aborted, 0) << "query too short to hit a checkpoint";
  EXPECT_TRUE(saw_partial_refine)
      << "no deadline landed between two refinement pages";
}

TEST(RefineBatchTest, PreCancelledTokenAbandonsWholeBatch) {
  RefineFixture fx;
  CancelToken token;
  token.Cancel();
  QueryContext ctx;
  ctx.cancel = &token;

  QueryStats stats;
  Result<std::vector<TupleId>> r =
      fx.index->Select(SelectionType::kExist,
                       HalfPlaneQuery(0.37, 5.0, Cmp::kGE), QueryMethod::kT2,
                       &stats, /*profile=*/nullptr, &ctx);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCancelled()) << r.status().ToString();
  EXPECT_TRUE(stats.filter.Balances());
  fx.CheckClean();
}

// --- Fault-injected tuple reads (chaos) --------------------------------------

// Relation + index on FaultInjectionFile-backed pagers sharing one plan,
// so an armed window indexes the combined data+index read stream.
struct FaultRig {
  std::shared_ptr<FaultPlan> plan = std::make_shared<FaultPlan>();
  FaultInjectionFile* rel_fault = nullptr;  // Owned by the pagers.
  FaultInjectionFile* idx_fault = nullptr;
  std::unique_ptr<Pager> rel_pager;
  std::unique_ptr<Pager> idx_pager;
  std::unique_ptr<Relation> relation;
  std::unique_ptr<DualIndex> index;

  explicit FaultRig(int max_read_attempts) {
    PagerOptions opts;
    opts.page_size = 1024;
    opts.cache_frames = 64;
    opts.max_read_attempts = max_read_attempts;
    auto make_pager = [&](FaultInjectionFile** fault_out) {
      auto fault = std::make_unique<FaultInjectionFile>(
          std::make_unique<MemFile>(opts.page_size), plan);
      *fault_out = fault.get();
      std::unique_ptr<Pager> pager;
      EXPECT_TRUE(Pager::Open(std::move(fault), opts, &pager).ok());
      return pager;
    };
    rel_pager = make_pager(&rel_fault);
    idx_pager = make_pager(&idx_fault);
    EXPECT_TRUE(
        Relation::Open(rel_pager.get(), kInvalidPageId, &relation).ok());
    Rng rng(8102);
    WorkloadOptions w;
    for (int i = 0; i < 80; ++i) {
      EXPECT_TRUE(relation->Insert(RandomBoundedTuple(&rng, w)).ok());
    }
    EXPECT_TRUE(DualIndex::Build(idx_pager.get(), relation.get(),
                                 SlopeSet::UniformInAngle(4, -1.3, 1.3), {},
                                 &index)
                    .ok());
    EXPECT_TRUE(rel_pager->Flush().ok());
    EXPECT_TRUE(idx_pager->Flush().ok());
  }

  void DropCaches() {
    ASSERT_TRUE(rel_pager->Flush().ok());
    ASSERT_TRUE(idx_pager->Flush().ok());
    ASSERT_TRUE(rel_pager->DropCache().ok());
    ASSERT_TRUE(idx_pager->DropCache().ok());
  }

  uint64_t reads_seen() const {
    return rel_fault->reads_seen() + idx_fault->reads_seen();
  }

  // One refinement-heavy query per family; every outcome must leave the
  // accounting balanced and the pagers pin-free.
  std::vector<Status> RunBatch() {
    std::vector<Status> out;
    const std::pair<SelectionType, HalfPlaneQuery> queries[] = {
        {SelectionType::kAll, HalfPlaneQuery(0.37, 5.0, Cmp::kGE)},
        {SelectionType::kExist, HalfPlaneQuery(-0.8, -3.0, Cmp::kLE)},
    };
    for (const auto& [type, q] : queries) {
      QueryStats stats;
      Result<std::vector<TupleId>> r =
          index->Select(type, q, QueryMethod::kT2, &stats);
      out.push_back(r.status());
      EXPECT_TRUE(stats.filter.Balances());
      EXPECT_EQ(rel_pager->pinned_frame_count(), 0u);
      EXPECT_EQ(idx_pager->pinned_frame_count(), 0u);
    }
    return out;
  }

  std::vector<std::vector<TupleId>> RunBatchResults() {
    std::vector<std::vector<TupleId>> out;
    for (Status& st : RunBatch()) EXPECT_TRUE(st.ok()) << st.ToString();
    const std::pair<SelectionType, HalfPlaneQuery> queries[] = {
        {SelectionType::kAll, HalfPlaneQuery(0.37, 5.0, Cmp::kGE)},
        {SelectionType::kExist, HalfPlaneQuery(-0.8, -3.0, Cmp::kLE)},
    };
    for (const auto& [type, q] : queries) {
      Result<std::vector<TupleId>> r = index->Select(type, q, QueryMethod::kT2);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      out.push_back(r.ok() ? r.value() : std::vector<TupleId>{});
    }
    return out;
  }
};

TEST(RefineBatchTest, TransientTupleReadFaultAtEveryIndexDegradesCleanly) {
  FaultRig rig(/*max_read_attempts=*/1);

  rig.DropCaches();
  const std::vector<std::vector<TupleId>> truth = rig.RunBatchResults();
  rig.DropCaches();
  const uint64_t reads_before = rig.reads_seen();
  for (Status& st : rig.RunBatch()) ASSERT_TRUE(st.ok());
  const uint64_t total_reads = rig.reads_seen() - reads_before;
  ASSERT_GT(total_reads, 0u);

  uint64_t faulted_items = 0;
  for (uint64_t k = 0; k < total_reads; ++k) {
    rig.DropCaches();
    rig.plan->ArmTransientReads(static_cast<int64_t>(k), /*k=*/1);
    std::vector<Status> statuses = rig.RunBatch();
    rig.plan->DisarmTransient();
    for (const Status& st : statuses) {
      if (!st.ok()) {
        EXPECT_TRUE(st.IsUnavailable()) << "k=" << k << ": " << st.ToString();
        ++faulted_items;
      }
    }
    // The refiner must leave the pager fully usable: a clean batch
    // reproduces ground truth.
    rig.DropCaches();
    EXPECT_EQ(rig.RunBatchResults(), truth) << "after fault at read " << k;
  }
  EXPECT_GT(faulted_items, 0u);
}

TEST(RefineBatchTest, TransientTupleReadSweepIsCleanWithOneRetry) {
  FaultRig rig(/*max_read_attempts=*/2);

  rig.DropCaches();
  const std::vector<std::vector<TupleId>> truth = rig.RunBatchResults();
  rig.DropCaches();
  const uint64_t reads_before = rig.reads_seen();
  for (Status& st : rig.RunBatch()) ASSERT_TRUE(st.ok());
  const uint64_t total_reads = rig.reads_seen() - reads_before;

  for (uint64_t k = 0; k < total_reads; ++k) {
    rig.DropCaches();
    rig.plan->ArmTransientReads(static_cast<int64_t>(k), /*k=*/1);
    for (const Status& st : rig.RunBatch()) {
      EXPECT_TRUE(st.ok()) << "k=" << k << ": " << st.ToString();
    }
    rig.plan->DisarmTransient();
    EXPECT_EQ(rig.RunBatchResults(), truth);
  }
  const PagerRetryStats rel = rig.rel_pager->retry_stats();
  const PagerRetryStats idx = rig.idx_pager->retry_stats();
  EXPECT_EQ(rel.read_exhausted + idx.read_exhausted, 0u);
  EXPECT_GT(rel.read_recoveries + idx.read_recoveries, 0u);
}

}  // namespace
}  // namespace cdb
