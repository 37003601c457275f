// Chaos sweep harness (ISSUE 7): inject a transient I/O fault at *every*
// operation index of a build and a serve batch, and assert the system
// degrades exactly as specified — per-item kUnavailable statuses only,
// never a crash, hang, or corruption; accounting invariants still
// balance; and the pager stays usable (a follow-up clean batch is
// all-OK). The d-dimensional index, the R+-tree baseline and the dual
// index's vertical and slab selections get the same read-fault sweep,
// which also proves that a query stopped part-way books its unprocessed
// candidates as filter.abandoned.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "constraint/naive_eval.h"
#include "constraint/relation_d.h"
#include "dualindex/ddim_index.h"
#include "dualindex/dual_index.h"
#include "rtree/rtree_query.h"
#include "storage/fault_file.h"
#include "storage/file.h"
#include "storage/pager.h"
#include "workload/generator.h"

namespace cdb {
namespace {

using FaultPlan = FaultInjectionFile::FaultPlan;

struct ServeQuery {
  SelectionType type;
  HalfPlaneQuery q;
  QueryMethod method;
};

std::vector<ServeQuery> ServeBatch() {
  return {
      {SelectionType::kAll, HalfPlaneQuery(0.37, 5.0, Cmp::kGE),
       QueryMethod::kT1},
      {SelectionType::kExist, HalfPlaneQuery(0.37, -3.0, Cmp::kLE),
       QueryMethod::kT2},
      {SelectionType::kAll, HalfPlaneQuery(-0.8, 0.0, Cmp::kGE),
       QueryMethod::kT2},
      {SelectionType::kExist, HalfPlaneQuery(1.1, 2.0, Cmp::kGE),
       QueryMethod::kT1},
  };
}

// A relation pager and an index pager on FaultInjectionFile wrappers
// sharing one plan, so one armed window indexes the combined data+index
// read stream — the same way production storage would see a single flaky
// device under both files.
struct FaultPagers {
  std::shared_ptr<FaultPlan> plan = std::make_shared<FaultPlan>();
  FaultInjectionFile* rel_fault = nullptr;  // Owned by the pagers.
  FaultInjectionFile* idx_fault = nullptr;
  std::unique_ptr<Pager> rel_pager;
  std::unique_ptr<Pager> idx_pager;

  FaultPagers() {
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
  }

  // Cold-cache reset so every sweep iteration replays the identical
  // physical read sequence.
  void DropCaches() {
    ASSERT_TRUE(rel_pager->Flush().ok());
    ASSERT_TRUE(idx_pager->Flush().ok());
    ASSERT_TRUE(rel_pager->DropCache().ok());
    ASSERT_TRUE(idx_pager->DropCache().ok());
  }

  uint64_t reads_seen() const {
    return rel_fault->reads_seen() + idx_fault->reads_seen();
  }
};

// Relation + dual index on FaultPagers.
struct ChaosRig : FaultPagers {
  std::unique_ptr<Relation> relation;
  std::unique_ptr<DualIndex> index;

  // `load` populates and builds (clean); set false to drive the build
  // yourself (the build-phase sweep arms faults first).
  explicit ChaosRig(bool load = true) {
    if (load) {
      EXPECT_TRUE(Load().ok());
    }
  }

  Status Load() {
    CDB_RETURN_IF_ERROR(
        Relation::Open(rel_pager.get(), kInvalidPageId, &relation));
    Rng rng(9001);
    WorkloadOptions w;
    for (int i = 0; i < 80; ++i) {
      CDB_RETURN_IF_ERROR(relation->Insert(RandomBoundedTuple(&rng, w)).status());
    }
    CDB_RETURN_IF_ERROR(DualIndex::Build(
        idx_pager.get(), relation.get(),
        SlopeSet::UniformInAngle(4, -1.3, 1.3), {}, &index));
    CDB_RETURN_IF_ERROR(rel_pager->Flush());
    return idx_pager->Flush();
  }

  // Runs the serve batch, checking the per-query chaos invariants:
  // balanced filter accounting and zero pinned frames whatever the
  // outcome. Returns one status per item.
  std::vector<Status> RunBatch() {
    std::vector<Status> out;
    for (const ServeQuery& sq : ServeBatch()) {
      QueryStats stats;
      Result<std::vector<TupleId>> r =
          index->Select(sq.type, sq.q, sq.method, &stats);
      out.push_back(r.status());
      EXPECT_TRUE(stats.filter.Balances());
      EXPECT_EQ(rel_pager->pinned_frame_count(), 0u);
      EXPECT_EQ(idx_pager->pinned_frame_count(), 0u);
    }
    return out;
  }

  std::vector<std::vector<TupleId>> RunBatchResults() {
    std::vector<std::vector<TupleId>> out;
    for (const ServeQuery& sq : ServeBatch()) {
      Result<std::vector<TupleId>> r = index->Select(sq.type, sq.q, sq.method);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      out.push_back(r.ok() ? r.value() : std::vector<TupleId>{});
    }
    return out;
  }
};

TEST(ChaosSweepTest, ServeTransientFaultAtEveryReadIndexWithoutRetries) {
  ChaosRig rig;

  // Ground truth and the serve-phase read count, from a fault-free run.
  rig.DropCaches();
  const std::vector<std::vector<TupleId>> truth = rig.RunBatchResults();
  rig.DropCaches();
  const uint64_t reads_before = rig.reads_seen();
  rig.RunBatchResults();
  const uint64_t total_reads = rig.reads_seen() - reads_before;
  ASSERT_GT(total_reads, 0u);

  uint64_t faulted_items = 0;
  for (uint64_t k = 0; k < total_reads; ++k) {
    rig.DropCaches();
    rig.plan->ArmTransientReads(static_cast<int64_t>(k), /*k=*/1);
    std::vector<Status> statuses = rig.RunBatch();
    rig.plan->DisarmTransient();

    // Only per-item kUnavailable — never a crash, never another code.
    for (const Status& st : statuses) {
      if (!st.ok()) {
        EXPECT_TRUE(st.IsUnavailable()) << "k=" << k << ": " << st.ToString();
        ++faulted_items;
      }
    }

    // The pager must remain fully usable: a clean batch reproduces truth.
    rig.DropCaches();
    EXPECT_EQ(rig.RunBatchResults(), truth) << "after fault at read " << k;
  }
  // Every armed window that landed inside the batch must have surfaced.
  EXPECT_GT(faulted_items, 0u);
  EXPECT_EQ(rig.plan->transient_faults(), total_reads);
}

TEST(QueryCancelTest, DualIndexAbandonedCountsPartialRefine) {
  // A 2-d T1 query stopped by a failed read between two refinement
  // candidates keeps the candidates it already refined in their buckets
  // and books the untested tail as abandoned.
  ChaosRig rig;
  const HalfPlaneQuery q(0.37, 5.0, Cmp::kGE);
  rig.DropCaches();
  QueryStats full;
  ASSERT_TRUE(
      rig.index->Select(SelectionType::kAll, q, QueryMethod::kT1, &full).ok());
  ASSERT_GT(full.filter.refine_accepts + full.filter.refine_rejects, 2u)
      << "workload produced no refinement to interrupt";
  rig.DropCaches();
  const uint64_t reads_before = rig.reads_seen();
  ASSERT_TRUE(rig.index->Select(SelectionType::kAll, q, QueryMethod::kT1).ok());
  const uint64_t total_reads = rig.reads_seen() - reads_before;

  bool saw_partial = false;
  for (uint64_t k = 0; k < total_reads && !saw_partial; ++k) {
    rig.DropCaches();
    rig.plan->ArmTransientReads(static_cast<int64_t>(k), /*k=*/1);
    QueryStats stats;
    Status st = rig.index->Select(SelectionType::kAll, q, QueryMethod::kT1,
                                  &stats)
                    .status();
    rig.plan->DisarmTransient();
    ASSERT_FALSE(st.ok()) << "fault at read " << k << " did not surface";
    EXPECT_TRUE(st.IsUnavailable()) << "k=" << k << ": " << st.ToString();
    if (stats.filter.abandoned > 0 &&
        stats.filter.refine_accepts + stats.filter.refine_rejects > 0) {
      saw_partial = true;
      EXPECT_TRUE(stats.filter.Balances());
      EXPECT_EQ(stats.filter.candidates,
                stats.filter.dedup_dropped + stats.filter.early_accepts +
                    stats.filter.refine_accepts +
                    stats.filter.refine_rejects + stats.filter.abandoned);
    }
  }
  EXPECT_TRUE(saw_partial)
      << "no read fault landed between two refinement candidates";
}

TEST(ChaosSweepTest, BuildTransientWriteFaultAtEveryIndexFailsCleanly) {
  // Dry run: count the writes a clean load issues.
  uint64_t total_writes = 0;
  {
    ChaosRig rig;
    total_writes = rig.rel_fault->writes_seen() + rig.idx_fault->writes_seen();
    ASSERT_GT(total_writes, 0u);
  }

  // Writes are never retried (DESIGN.md §2g), so a transient write fault
  // at any index must abort the load with kUnavailable — surfaced, not
  // swallowed — and leave no pinned frames behind. Stride the sweep to
  // keep the suite fast while still covering early, middle, and late
  // build phases.
  const uint64_t stride = std::max<uint64_t>(1, total_writes / 37);
  int aborted = 0;
  for (uint64_t k = 0; k < total_writes; k += stride) {
    ChaosRig rig(/*load=*/false);
    rig.plan->ArmTransientWrites(static_cast<int64_t>(k), /*k=*/1);
    Status st = rig.Load();
    rig.plan->DisarmTransient();
    if (!st.ok()) {
      EXPECT_TRUE(st.IsUnavailable()) << "k=" << k << ": " << st.ToString();
      ++aborted;
      EXPECT_EQ(rig.rel_pager->pinned_frame_count(), 0u);
      EXPECT_EQ(rig.idx_pager->pinned_frame_count(), 0u);
    }
  }
  EXPECT_GT(aborted, 0);

  // And a fresh, fault-free rig still builds and serves.
  ChaosRig rig;
  for (const Status& st : rig.RunBatch()) EXPECT_TRUE(st.ok());
}

// Runs `query` cold once per physical read of a clean cold run, with a
// single transient fault armed at that read. Every failure must be
// kUnavailable with balanced filter accounting and no pinned frames; a
// clean run after each fault must reproduce the clean answer; and some
// fault must stop the query part-way, with candidates booked as
// filter.abandoned.
void SweepQueryReadFaults(
    FaultPagers* io,
    const std::function<Result<std::vector<TupleId>>(QueryStats*)>& query) {
  io->DropCaches();
  QueryStats clean;
  Result<std::vector<TupleId>> truth = query(&clean);
  ASSERT_TRUE(truth.ok()) << truth.status().ToString();
  io->DropCaches();
  const uint64_t reads_before = io->reads_seen();
  ASSERT_TRUE(query(&clean).ok());
  const uint64_t total_reads = io->reads_seen() - reads_before;
  ASSERT_GT(total_reads, 0u);

  uint64_t failed = 0;
  uint64_t abandoned_runs = 0;
  for (uint64_t k = 0; k < total_reads; ++k) {
    io->DropCaches();
    io->plan->ArmTransientReads(static_cast<int64_t>(k), /*k=*/1);
    QueryStats stats;
    Result<std::vector<TupleId>> r = query(&stats);
    io->plan->DisarmTransient();
    if (!r.ok()) {
      EXPECT_TRUE(r.status().IsUnavailable())
          << "k=" << k << ": " << r.status().ToString();
      ++failed;
    }
    EXPECT_TRUE(stats.filter.Balances()) << "fault at read " << k;
    if (stats.filter.abandoned > 0) ++abandoned_runs;
    EXPECT_EQ(io->rel_pager->pinned_frame_count(), 0u);
    EXPECT_EQ(io->idx_pager->pinned_frame_count(), 0u);

    io->DropCaches();
    Result<std::vector<TupleId>> again = query(&stats);
    ASSERT_TRUE(again.ok()) << "after fault at read " << k << ": "
                            << again.status().ToString();
    EXPECT_EQ(again.value(), truth.value()) << "after fault at read " << k;
  }
  // Every armed read surfaces as a failed query.
  EXPECT_EQ(failed, total_reads);
  EXPECT_EQ(io->plan->transient_faults(), total_reads);
  EXPECT_GT(abandoned_runs, 0u)
      << "no fault stopped the query with candidates in hand";
}

TEST(ChaosSweepTest, DDimT1TransientFaultAtEveryReadIndex) {
  FaultPagers io;
  std::unique_ptr<RelationD> relation;
  ASSERT_TRUE(
      RelationD::Open(io.rel_pager.get(), 3, kInvalidPageId, &relation).ok());
  std::vector<std::vector<double>> slopes;
  for (double x : {-1.0, 0.0, 1.0}) {
    for (double y : {-1.0, 0.0, 1.0}) slopes.push_back({x, y});
  }
  std::unique_ptr<DDimDualIndex> index;
  ASSERT_TRUE(DDimDualIndex::Create(io.idx_pager.get(), relation.get(),
                                    std::move(slopes), &index)
                  .ok());
  Rng rng(9002);
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(index->Insert(RandomBoundedTupleD(&rng, 3, 20.0)).ok());
  }

  HalfPlaneQueryD q;
  q.slope = {0.3, -0.2};  // Inside the hull of S, not in S.
  q.intercept = 2.0;
  q.cmp = Cmp::kGE;
  SweepQueryReadFaults(&io, [&](QueryStats* stats) {
    return index->Select(SelectionType::kAll, q, stats);
  });
}

TEST(ChaosSweepTest, RTreeTransientFaultAtEveryReadIndex) {
  FaultPagers io;
  std::unique_ptr<Relation> relation;
  ASSERT_TRUE(
      Relation::Open(io.rel_pager.get(), kInvalidPageId, &relation).ok());
  Rng rng(9003);
  WorkloadOptions w;
  std::vector<std::pair<Rect, TupleId>> rects;
  for (int i = 0; i < 120; ++i) {
    GeneralizedTuple t = RandomBoundedTuple(&rng, w);
    Result<TupleId> id = relation->Insert(t);
    ASSERT_TRUE(id.ok());
    Rect box;
    ASSERT_TRUE(t.GetBoundingRect(&box));
    rects.push_back({box, id.value()});
  }
  std::unique_ptr<RPlusTree> tree;
  ASSERT_TRUE(RPlusTree::BulkBuild(io.idx_pager.get(), rects, &tree).ok());

  const HalfPlaneQuery q(0.4, 0.0, Cmp::kGE);
  SweepQueryReadFaults(&io, [&](QueryStats* stats) {
    return RTreeSelect(tree.get(), relation.get(), SelectionType::kAll, q,
                       stats);
  });
}

TEST(ChaosSweepTest, VerticalAndSlabTransientFaultAtEveryReadIndex) {
  // The vertical and slab selections read only the index pager. Each
  // armed read fault must fail the query with its books closed like any
  // other selection's: balanced partition over every swept candidate,
  // page fetches equal to the pager's own count, and a filled profile.
  FaultPagers io;
  std::unique_ptr<Relation> relation;
  ASSERT_TRUE(
      Relation::Open(io.rel_pager.get(), kInvalidPageId, &relation).ok());
  Rng rng(9004);
  WorkloadOptions w;
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(relation->Insert(RandomBoundedTuple(&rng, w)).ok());
  }
  DualIndexOptions opts;
  opts.support_vertical = true;
  std::unique_ptr<DualIndex> index;
  ASSERT_TRUE(DualIndex::Build(io.idx_pager.get(), relation.get(),
                               SlopeSet::UniformInAngle(4, -1.3, 1.3), opts,
                               &index)
                  .ok());
  ASSERT_TRUE(io.idx_pager->Flush().ok());

  using Query = std::function<Result<std::vector<TupleId>>(
      QueryStats*, obs::ExplainProfile*)>;
  const double slope = index->slopes().slope(1);
  const std::vector<std::pair<std::string, Query>> queries = {
      {"dual/select-vertical",
       [&](QueryStats* stats, obs::ExplainProfile* profile) {
         return index->SelectVertical(SelectionType::kExist,
                                      {-20.0, Cmp::kGE}, stats, profile);
       }},
      {"dual/select-vertical",
       [&](QueryStats* stats, obs::ExplainProfile* profile) {
         return index->SelectVertical(SelectionType::kAll, {30.0, Cmp::kLE},
                                      stats, profile);
       }},
      {"dual/select-slab",
       [&](QueryStats* stats, obs::ExplainProfile* profile) {
         return index->SelectSlab(SelectionType::kExist, slope, -40.0, 40.0,
                                  stats, profile);
       }},
      {"dual/select-slab",
       [&](QueryStats* stats, obs::ExplainProfile* profile) {
         return index->SelectSlab(SelectionType::kAll, slope, -60.0, 20.0,
                                  stats, profile);
       }},
  };
  for (const auto& [root, query] : queries) {
    io.DropCaches();
    const uint64_t reads_before = io.reads_seen();
    Result<std::vector<TupleId>> truth = query(nullptr, nullptr);
    ASSERT_TRUE(truth.ok()) << truth.status().ToString();
    const uint64_t total_reads = io.reads_seen() - reads_before;
    ASSERT_GT(total_reads, 2u) << root;

    const uint64_t faults_before = io.plan->transient_faults();
    uint64_t abandoned_runs = 0;
    for (uint64_t k = 0; k < total_reads; ++k) {
      io.DropCaches();
      io.plan->ArmTransientReads(static_cast<int64_t>(k), /*k=*/1);
      const uint64_t fetches_before = io.idx_pager->stats().page_fetches;
      QueryStats stats;
      obs::ExplainProfile profile;
      Result<std::vector<TupleId>> r = query(&stats, &profile);
      const uint64_t fetches =
          io.idx_pager->stats().page_fetches - fetches_before;
      io.plan->DisarmTransient();

      EXPECT_TRUE(r.status().IsUnavailable())
          << root << " k=" << k << ": " << r.status().ToString();
      EXPECT_EQ(io.rel_pager->pinned_frame_count(), 0u);
      EXPECT_EQ(io.idx_pager->pinned_frame_count(), 0u);
      EXPECT_TRUE(stats.filter.Balances()) << root << " k=" << k;
      EXPECT_EQ(stats.filter.candidates, stats.candidates)
          << root << " k=" << k;
      EXPECT_EQ(stats.index_page_fetches, fetches) << root << " k=" << k;
      if (stats.filter.abandoned > 0) ++abandoned_runs;
      // The profile is filled: its span tree, totals and partition.
      EXPECT_EQ(profile.root.name, root);
      EXPECT_EQ(profile.totals.index_fetches, fetches) << root << " k=" << k;
      EXPECT_TRUE(profile.SumsBalance());
      EXPECT_EQ(profile.filter.candidates, stats.filter.candidates);
      EXPECT_EQ(profile.filter.abandoned, stats.filter.abandoned);

      io.DropCaches();
      Result<std::vector<TupleId>> again = query(nullptr, nullptr);
      ASSERT_TRUE(again.ok()) << again.status().ToString();
      EXPECT_EQ(again.value(), truth.value()) << root << " k=" << k;
    }
    EXPECT_EQ(io.plan->transient_faults() - faults_before, total_reads);
    EXPECT_GT(abandoned_runs, 0u)
        << root << ": no fault stopped the query with candidates in hand";
  }
}

}  // namespace
}  // namespace cdb
