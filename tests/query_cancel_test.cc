// Deadlines and cooperative cancellation through the query paths
// (ISSUE 7): a QueryContext fired at *every* checkpoint position must
// surface kDeadlineExceeded/kCancelled — never a crash, never a leaked
// pin — with FilterCounts still balancing on the partially-executed
// query, on the 2-d dual index, the d-dimensional index, and the R+-tree
// baseline.

#include "common/query_context.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "dualindex/ddim_index.h"
#include "dualindex/dual_index.h"
#include "pager_test_util.h"
#include "rtree/rtree_query.h"
#include "storage/file.h"
#include "workload/generator.h"

namespace cdb {
namespace {

// Advances one nanosecond per reading: with deadline_ns = j, the j-th
// context check is the first to fire, so sweeping j visits every
// checkpoint position of a query deterministically.
class TickingClock final : public Clock {
 public:
  uint64_t NowNanos() override { return ++now_; }
  void SleepNanos(uint64_t ns) override { now_ += ns; }

 private:
  uint64_t now_ = 0;
};

std::unique_ptr<Pager> MakePager() {
  PagerOptions opts;
  opts.page_size = 1024;
  opts.cache_frames = 64;
  std::unique_ptr<Pager> pager;
  EXPECT_TRUE(
      Pager::Open(std::make_unique<MemFile>(1024), opts, &pager).ok());
  return pager;
}

// --- Context unit semantics --------------------------------------------------

TEST(QueryContextTest, NullAndDefaultContextsAlwaysPass) {
  EXPECT_TRUE(CheckQueryContext(nullptr).ok());
  QueryContext ctx;  // No deadline, no token.
  EXPECT_TRUE(ctx.Check().ok());
}

TEST(QueryContextTest, DeadlineFiresAtItsInstant) {
  TickingClock clock;
  QueryContext ctx;
  ctx.deadline_ns = 3;
  ctx.clock = &clock;
  EXPECT_TRUE(ctx.Check().ok());   // now = 1
  EXPECT_TRUE(ctx.Check().ok());   // now = 2
  EXPECT_TRUE(ctx.Check().IsDeadlineExceeded());  // now = 3
}

TEST(QueryContextTest, CancellationOutranksDeadline) {
  TickingClock clock;
  CancelToken token;
  token.Cancel();
  QueryContext ctx;
  ctx.deadline_ns = 1;  // Would fire immediately too.
  ctx.clock = &clock;
  ctx.cancel = &token;
  EXPECT_TRUE(ctx.Check().IsCancelled());
}

// --- Sweep driver ------------------------------------------------------------

// Runs `query` (which must honor the passed context) once per deadline
// position until it completes, asserting that every early exit is
// kDeadlineExceeded with balanced filter accounting. Returns the number
// of deadline positions that aborted the query.
int SweepDeadlines(
    const std::function<Status(const QueryContext*, QueryStats*)>& query,
    const std::function<void()>& check_clean) {
  int aborted = 0;
  for (uint64_t j = 1; j < 100000; ++j) {
    TickingClock clock;
    QueryContext ctx;
    ctx.deadline_ns = j;
    ctx.clock = &clock;
    QueryStats stats;
    Status st = query(&ctx, &stats);
    EXPECT_TRUE(stats.filter.Balances())
        << "deadline at check " << j << ": " << st.ToString();
    check_clean();
    if (st.ok()) {
      // Checkpoints only ever grow with j; once a run completes, all
      // later deadlines are past the last check.
      EXPECT_EQ(stats.filter.abandoned, 0u);
      return aborted;
    }
    EXPECT_TRUE(st.IsDeadlineExceeded()) << st.ToString();
    ++aborted;
  }
  ADD_FAILURE() << "query never completed";
  return aborted;
}

// --- 2-d dual index ----------------------------------------------------------

struct DualFixture {
  std::unique_ptr<Pager> rel_pager = MakePager();
  std::unique_ptr<Pager> idx_pager = MakePager();
  std::unique_ptr<Relation> relation;
  std::unique_ptr<DualIndex> index;

  DualFixture() {
    EXPECT_TRUE(
        Relation::Open(rel_pager.get(), kInvalidPageId, &relation).ok());
    Rng rng(7001);
    WorkloadOptions w;
    for (int i = 0; i < 150; ++i) {
      EXPECT_TRUE(relation->Insert(RandomBoundedTuple(&rng, w)).ok());
    }
    EXPECT_TRUE(DualIndex::Build(idx_pager.get(), relation.get(),
                                 SlopeSet::UniformInAngle(4, -1.3, 1.3), {},
                                 &index)
                    .ok());
  }

  ~DualFixture() {
    ExpectNoPinnedFrames(*rel_pager);
    ExpectNoPinnedFrames(*idx_pager);
  }

  void CheckClean() {
    ExpectNoPinnedFrames(*rel_pager);
    ExpectNoPinnedFrames(*idx_pager);
  }
};

TEST(QueryCancelTest, DualIndexDeadlineAtEveryCheckpoint) {
  DualFixture fx;
  // Off-set slope: T1 sweeps two trees and refines, so checkpoints cover
  // both sweep loops and the per-candidate refine loop.
  HalfPlaneQuery q(0.37, 5.0, Cmp::kGE);
  int aborted = SweepDeadlines(
      [&](const QueryContext* ctx, QueryStats* stats) {
        return fx.index
            ->Select(SelectionType::kAll, q, QueryMethod::kT1, stats,
                     /*profile=*/nullptr, ctx)
            .status();
      },
      [&] { fx.CheckClean(); });
  EXPECT_GT(aborted, 0) << "query too short to ever hit a checkpoint";
}

TEST(QueryCancelTest, DualIndexPreCancelledToken) {
  DualFixture fx;
  CancelToken token;
  token.Cancel();
  QueryContext ctx;
  ctx.cancel = &token;
  QueryStats stats;
  Result<std::vector<TupleId>> r =
      fx.index->Select(SelectionType::kExist, HalfPlaneQuery(0.37, 5.0, Cmp::kGE),
                       QueryMethod::kT1, &stats, /*profile=*/nullptr, &ctx);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCancelled()) << r.status().ToString();
  EXPECT_TRUE(stats.filter.Balances());
  fx.CheckClean();
}

TEST(QueryCancelTest, DualIndexAbandonedCountsPartialRefine) {
  // Fire mid-refinement and check the abandoned bucket actually fills:
  // complete the query once to learn its checkpoint count, then aim a
  // deadline inside the refine loop.
  DualFixture fx;
  HalfPlaneQuery q(0.37, 5.0, Cmp::kGE);
  QueryStats full;
  ASSERT_TRUE(fx.index
                  ->Select(SelectionType::kAll, q, QueryMethod::kT1, &full)
                  .ok());
  ASSERT_GT(full.filter.refine_accepts + full.filter.refine_rejects, 2u)
      << "workload produced no refinement to interrupt";

  bool saw_partial = false;
  for (uint64_t j = 2; j < 100000 && !saw_partial; ++j) {
    TickingClock clock;
    QueryContext ctx;
    ctx.deadline_ns = j;
    ctx.clock = &clock;
    QueryStats stats;
    Status st = fx.index
                    ->Select(SelectionType::kAll, q, QueryMethod::kT1,
                             &stats, /*profile=*/nullptr, &ctx)
                    .status();
    if (st.ok()) break;
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
      << "no deadline landed between two refinement candidates";
}

// --- d-dimensional dual index ------------------------------------------------

TEST(QueryCancelTest, DDimDeadlineAtEveryCheckpoint) {
  auto rel_pager = MakePager();
  auto idx_pager = MakePager();
  std::unique_ptr<RelationD> relation;
  ASSERT_TRUE(
      RelationD::Open(rel_pager.get(), 3, kInvalidPageId, &relation).ok());
  std::vector<std::vector<double>> slopes;
  for (double x : {-1.0, 0.0, 1.0}) {
    for (double y : {-1.0, 0.0, 1.0}) slopes.push_back({x, y});
  }
  std::unique_ptr<DDimDualIndex> index;
  ASSERT_TRUE(DDimDualIndex::Create(idx_pager.get(), relation.get(),
                                    std::move(slopes), &index)
                  .ok());
  Rng rng(7002);
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(index->Insert(RandomBoundedTupleD(&rng, 3, 20.0)).ok());
  }

  HalfPlaneQueryD q;
  q.slope = {0.3, -0.2};  // In the box, not in S: T2 handicap search.
  q.intercept = 2.0;
  q.cmp = Cmp::kGE;
  for (DDimDualIndex::Method method :
       {DDimDualIndex::Method::kT1, DDimDualIndex::Method::kT2}) {
    int aborted = SweepDeadlines(
        [&](const QueryContext* ctx, QueryStats* stats) {
          return index
              ->Select(SelectionType::kExist, q, method, stats,
                       /*profile=*/nullptr, ctx)
              .status();
        },
        [&] {
          ExpectNoPinnedFrames(*rel_pager);
          ExpectNoPinnedFrames(*idx_pager);
        });
    EXPECT_GT(aborted, 0) << "method " << static_cast<int>(method);
  }
}

// --- R+-tree baseline --------------------------------------------------------

TEST(QueryCancelTest, RTreeDeadlineAtEveryCheckpoint) {
  auto rel_pager = MakePager();
  auto idx_pager = MakePager();
  std::unique_ptr<Relation> relation;
  ASSERT_TRUE(
      Relation::Open(rel_pager.get(), kInvalidPageId, &relation).ok());
  Rng rng(7003);
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
  ASSERT_TRUE(RPlusTree::BulkBuild(idx_pager.get(), rects, &tree).ok());

  HalfPlaneQuery q(0.4, 0.0, Cmp::kGE);
  int aborted = SweepDeadlines(
      [&](const QueryContext* ctx, QueryStats* stats) {
        return RTreeSelect(tree.get(), relation.get(), SelectionType::kAll,
                           q, stats, /*profile=*/nullptr, ctx)
            .status();
      },
      [&] {
        ExpectNoPinnedFrames(*rel_pager);
        ExpectNoPinnedFrames(*idx_pager);
      });
  EXPECT_GT(aborted, 0);
}

TEST(QueryCancelTest, RTreePreCancelledToken) {
  auto rel_pager = MakePager();
  auto idx_pager = MakePager();
  std::unique_ptr<Relation> relation;
  ASSERT_TRUE(
      Relation::Open(rel_pager.get(), kInvalidPageId, &relation).ok());
  Rng rng(7004);
  WorkloadOptions w;
  std::vector<std::pair<Rect, TupleId>> rects;
  for (int i = 0; i < 40; ++i) {
    GeneralizedTuple t = RandomBoundedTuple(&rng, w);
    Result<TupleId> id = relation->Insert(t);
    ASSERT_TRUE(id.ok());
    Rect box;
    ASSERT_TRUE(t.GetBoundingRect(&box));
    rects.push_back({box, id.value()});
  }
  std::unique_ptr<RPlusTree> tree;
  ASSERT_TRUE(RPlusTree::BulkBuild(idx_pager.get(), rects, &tree).ok());

  CancelToken token;
  token.Cancel();
  QueryContext ctx;
  ctx.cancel = &token;
  QueryStats stats;
  Result<std::vector<TupleId>> r =
      RTreeSelect(tree.get(), relation.get(), SelectionType::kExist,
                  HalfPlaneQuery(0.4, 0.0, Cmp::kGE), &stats,
                  /*profile=*/nullptr, &ctx);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCancelled());
  EXPECT_TRUE(stats.filter.Balances());
  ExpectNoPinnedFrames(*rel_pager);
  ExpectNoPinnedFrames(*idx_pager);
}

}  // namespace
}  // namespace cdb
