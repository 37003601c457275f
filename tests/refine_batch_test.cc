// Differential and fault coverage for the shared candidate-batch refiner:
// the page-clustered / SoA / bounding-box path must be decision-identical
// to the naive evaluator across ALL/EXIST and both comparison senses
// (bounded and unbounded tuples), and its booking must be derivable from
// the candidate set and NaiveSelect truth alone; FilterCounts partitions
// must balance — including the abandoned bucket when a read fault stops a
// query part-way; the d-dimensional index's refinement books (LPs, pinned
// page runs, cold reads) must follow from its candidates; refine-off
// queries must return proven candidate
// supersets; injected tuple-read faults must surface as per-item
// kUnavailable with no leaked pins.

#include "constraint/refine_batch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "constraint/naive_eval.h"
#include "constraint/relation_d.h"
#include "dualindex/ddim_index.h"
#include "dualindex/dual_index.h"
#include "geometry/lpd.h"
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
    // Through the overload that also books a caller-owned false-hit count.
    ASSERT_TRUE(RefineBatch2D(*fx.relation, c.type, c.q, lp, nullptr, &kept,
                              &filter, &false_hits)
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

// --- Direct refiner, d dimensions: books and page runs -----------------------

// The d-dimensional index refines through the same page-clustered loop as
// the 2-D one. Its T1 ALL queries below have an EXIST app-query that admits
// every tuple, so the refiner receives every live id and its books can be
// restated from the relation alone: one LP per candidate, one pinned page
// per run of same-page ids in id order, and from a cold cache at most one
// physical read per distinct page.
class RefineBatchDDimTest : public ::testing::TestWithParam<size_t> {};

TEST_P(RefineBatchDDimTest, RefinesEveryLiveIdFromColdCache) {
  const size_t dim = GetParam();
  std::unique_ptr<Pager> rel_pager = MakePager();
  std::unique_ptr<Pager> idx_pager = MakePager();
  std::unique_ptr<RelationD> relation;
  ASSERT_TRUE(
      RelationD::Open(rel_pager.get(), dim, kInvalidPageId, &relation).ok());
  // Slope points: the origin and the d-1 axis points at 0.1, one small
  // simplex whose interior holds the off-S query slope. T1 runs an ALL
  // query as ALL at the nearest point, the origin, and EXIST at the others.
  std::vector<std::vector<double>> slopes(dim, std::vector<double>(dim - 1));
  for (size_t t = 1; t < dim; ++t) slopes[t][t - 1] = 0.1;
  std::vector<double> off_s(dim - 1, 0.02);
  off_s[0] = 0.035;
  std::unique_ptr<DDimDualIndex> index;
  ASSERT_TRUE(
      DDimDualIndex::Create(idx_pager.get(), relation.get(), slopes, &index)
          .ok());
  Rng rng(8103 + dim);
  std::vector<GeneralizedTupleD> tuples;
  for (int i = 0; i < 150; ++i) {
    tuples.push_back(RandomBoundedTupleD(&rng, dim, 20.0));
    Result<TupleId> id = index->Insert(tuples.back());
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ASSERT_EQ(id.value(), static_cast<TupleId>(i));
  }

  // Page runs in id order and distinct pages of the live ids 0..n-1.
  uint64_t page_runs = 0;
  std::vector<PageId> pages;
  for (TupleId id = 0; id < tuples.size(); ++id) {
    PageId pid;
    ASSERT_TRUE(relation->LocateTuple(id, &pid).ok());
    if (pages.empty() || pages.back() != pid) ++page_runs;
    pages.push_back(pid);
  }
  std::sort(pages.begin(), pages.end());
  const uint64_t distinct_pages = static_cast<uint64_t>(
      std::unique(pages.begin(), pages.end()) - pages.begin());
  ASSERT_GT(distinct_pages, 1u);

  // Every tuple's TOP at some axis point is at least `low`, and its BOT at
  // some axis point at most `high`: the EXIST app-queries of
  // ALL y >= s.x + low and of ALL y <= s.x + high admit every tuple.
  double low = std::numeric_limits<double>::infinity();
  double high = -low;
  for (const GeneralizedTupleD& t : tuples) {
    double top = -std::numeric_limits<double>::infinity();
    double bot = std::numeric_limits<double>::infinity();
    for (size_t j = 1; j < dim; ++j) {
      top = std::max(top, TopValueD(t.constraints(), slopes[j]));
      bot = std::min(bot, BotValueD(t.constraints(), slopes[j]));
    }
    low = std::min(low, top);
    high = std::max(high, bot);
  }
  HalfPlaneQueryD queries[2];
  queries[0].slope = off_s;
  queries[0].intercept = low - 0.01;
  queries[0].cmp = Cmp::kGE;
  queries[1].slope = off_s;
  queries[1].intercept = high + 0.01;
  queries[1].cmp = Cmp::kLE;

  obs::GlobalMetrics().SetEnabled(true);
  obs::Counter* lp = obs::GlobalMetrics().counter("ddim.refine.lp_calls");
  obs::Counter* batch_pages =
      obs::GlobalMetrics().counter("refine.batch.pages");
  obs::Counter* batch_candidates =
      obs::GlobalMetrics().counter("refine.batch.candidates");
  for (const HalfPlaneQueryD& q : queries) {
    std::vector<TupleId> truth;
    for (size_t i = 0; i < tuples.size(); ++i) {
      if (ExactAllD(tuples[i].constraints(), q)) truth.push_back(i);
    }
    ASSERT_TRUE(idx_pager->Flush().ok());
    ASSERT_TRUE(rel_pager->Flush().ok());
    ASSERT_TRUE(rel_pager->DropCache().ok());
    const IoStats io_before = rel_pager->stats();
    const uint64_t lp_before = lp->value();
    const uint64_t pages_before = batch_pages->value();
    const uint64_t candidates_before = batch_candidates->value();
    QueryStats stats;
    Result<std::vector<TupleId>> got =
        index->Select(SelectionType::kAll, q, &stats);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    const uint64_t lp_calls = lp->value() - lp_before;
    const uint64_t pinned_runs = batch_pages->value() - pages_before;
    const uint64_t refined = batch_candidates->value() - candidates_before;
    const uint64_t page_reads =
        rel_pager->stats().Delta(io_before).page_reads;

    EXPECT_EQ(got.value(), truth) << "cmp=" << static_cast<int>(q.cmp);
    EXPECT_GT(truth.size(), 0u);
    EXPECT_LT(truth.size(), tuples.size());

    const obs::FilterCounts& f = stats.filter;
    EXPECT_EQ(refined, tuples.size());
    EXPECT_EQ(f.candidates - f.dedup_dropped, tuples.size());
    EXPECT_EQ(lp_calls, tuples.size());
    EXPECT_EQ(pinned_runs, page_runs);
    EXPECT_LE(page_reads, distinct_pages);
    EXPECT_TRUE(f.Balances());
    EXPECT_EQ(f.abandoned, 0u);
    EXPECT_EQ(f.early_accepts, 0u);
    EXPECT_EQ(f.refine_accepts, truth.size());
    EXPECT_EQ(f.refine_rejects, tuples.size() - truth.size());
    ExpectNoPinnedFrames(*rel_pager);
    ExpectNoPinnedFrames(*idx_pager);
  }
  obs::GlobalMetrics().SetEnabled(false);
}

INSTANTIATE_TEST_SUITE_P(Dims, RefineBatchDDimTest,
                         ::testing::Values(size_t{2}, size_t{3}));

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
      EXPECT_EQ(stats.filter.refine_rejects, 0u);
      EXPECT_TRUE(stats.filter.Balances());
      fx.CheckClean();
    }
  }
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
  // Items of RunBatch that failed after refining some candidates and
  // booked the rest as abandoned.
  uint64_t partial_refines = 0;

  FaultRig() {
    PagerOptions opts;
    opts.page_size = 1024;
    opts.cache_frames = 64;
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
      if (stats.filter.abandoned > 0 &&
          stats.filter.refine_accepts + stats.filter.refine_rejects > 0) {
        ++partial_refines;
      }
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
  FaultRig rig;

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
  // Some fault must land between two refinement pages: the candidates
  // already refined stay in their buckets, the untested tail is abandoned.
  EXPECT_GT(rig.partial_refines, 0u)
      << "no fault stopped a query part-way through refinement";
}

}  // namespace
}  // namespace cdb
