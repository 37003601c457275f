#include "rtree/rplus_tree.h"

#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"
#include "pager_test_util.h"
#include "rtree/rtree_query.h"
#include "storage/file.h"
#include "workload/generator.h"

namespace cdb {
namespace {

// Owns the pager and asserts at scope end that no search leaked a pin.
struct GuardedPager {
  std::unique_ptr<Pager> pager;
  Pager* get() const { return pager.get(); }
  ~GuardedPager() {
    if (pager != nullptr) ExpectNoPinnedFrames(*pager);
  }
};

GuardedPager MakePager() {
  PagerOptions opts;
  opts.page_size = 1024;
  std::unique_ptr<Pager> pager;
  EXPECT_TRUE(
      Pager::Open(std::make_unique<MemFile>(1024), opts, &pager).ok());
  return {std::move(pager)};
}

std::vector<std::pair<Rect, TupleId>> RandomRects(Rng* rng, int n,
                                                  double window = 50,
                                                  double max_half = 5) {
  std::vector<std::pair<Rect, TupleId>> out;
  for (int i = 0; i < n; ++i) {
    double cx = rng->Uniform(-window, window);
    double cy = rng->Uniform(-window, window);
    double hw = rng->Uniform(0.2, max_half), hh = rng->Uniform(0.2, max_half);
    out.push_back(
        {Rect(cx - hw, cy - hh, cx + hw, cy + hh), static_cast<TupleId>(i)});
  }
  return out;
}

std::vector<TupleId> BruteRect(
    const std::vector<std::pair<Rect, TupleId>>& data, const Rect& w) {
  std::vector<TupleId> out;
  for (const auto& [r, id] : data) {
    if (r.Intersects(w)) out.push_back(id);
  }
  return out;
}

std::vector<TupleId> BruteHalfPlane(
    const std::vector<std::pair<Rect, TupleId>>& data,
    const HalfPlaneQuery& q) {
  std::vector<TupleId> out;
  for (const auto& [r, id] : data) {
    if (r.IntersectsHalfPlane(q)) out.push_back(id);
  }
  return out;
}

TEST(RPlusTreeTest, EmptyTreeSearches) {
  auto pager = MakePager();
  std::unique_ptr<RPlusTree> tree;
  ASSERT_TRUE(RPlusTree::Create(pager.get(), &tree).ok());
  Result<std::vector<TupleId>> r =
      tree->SearchRect(Rect(-10, -10, 10, 10));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().empty());
  EXPECT_TRUE(tree->CheckInvariants().ok());
}

TEST(RPlusTreeTest, BulkBuildFindsEverything) {
  auto pager = MakePager();
  Rng rng(33);
  auto data = RandomRects(&rng, 500);
  std::unique_ptr<RPlusTree> tree;
  ASSERT_TRUE(RPlusTree::BulkBuild(pager.get(), data, &tree).ok());
  EXPECT_TRUE(tree->CheckInvariants().ok());
  EXPECT_GE(tree->height(), 2u);
  Result<std::vector<TupleId>> all =
      tree->SearchRect(Rect(-100, -100, 100, 100));
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all.value().size(), 500u);
}

TEST(RPlusTreeTest, RectSearchMatchesBruteForce) {
  auto pager = MakePager();
  Rng rng(34);
  auto data = RandomRects(&rng, 400);
  std::unique_ptr<RPlusTree> tree;
  ASSERT_TRUE(RPlusTree::BulkBuild(pager.get(), data, &tree).ok());
  for (int qi = 0; qi < 40; ++qi) {
    double cx = rng.Uniform(-50, 50), cy = rng.Uniform(-50, 50);
    double h = rng.Uniform(1, 25);
    Rect w(cx - h, cy - h, cx + h, cy + h);
    Result<std::vector<TupleId>> got = tree->SearchRect(w);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), BruteRect(data, w)) << "query " << qi;
  }
}

TEST(RPlusTreeTest, HalfPlaneSearchMatchesBruteForce) {
  auto pager = MakePager();
  Rng rng(35);
  auto data = RandomRects(&rng, 400);
  std::unique_ptr<RPlusTree> tree;
  ASSERT_TRUE(RPlusTree::BulkBuild(pager.get(), data, &tree).ok());
  for (int qi = 0; qi < 40; ++qi) {
    HalfPlaneQuery q(rng.Uniform(-3, 3), rng.Uniform(-60, 60),
                     rng.Chance(0.5) ? Cmp::kGE : Cmp::kLE);
    Result<std::vector<TupleId>> got = tree->SearchHalfPlane(q);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), BruteHalfPlane(data, q)) << "query " << qi;
  }
}

TEST(RPlusTreeTest, ClippingProducesDuplicatesThatAreRemoved) {
  auto pager = MakePager();
  Rng rng(36);
  // Large objects force clipping at cut lines.
  auto data = RandomRects(&rng, 300, 50, 20);
  std::unique_ptr<RPlusTree> tree;
  ASSERT_TRUE(RPlusTree::BulkBuild(pager.get(), data, &tree).ok());
  RTreeStats stats;
  Result<std::vector<TupleId>> got =
      tree->SearchRect(Rect(-60, -60, 60, 60), &stats);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().size(), 300u);
  EXPECT_GT(stats.duplicates, 0u);  // Clipped copies were deduplicated.
}

TEST(RPlusTreeTest, DynamicInsertMatchesBruteForce) {
  auto pager = MakePager();
  Rng rng(37);
  auto data = RandomRects(&rng, 400);
  std::unique_ptr<RPlusTree> tree;
  ASSERT_TRUE(RPlusTree::Create(pager.get(), &tree).ok());
  for (const auto& [r, id] : data) {
    ASSERT_TRUE(tree->Insert(r, id).ok());
  }
  EXPECT_EQ(tree->entry_count(), 400u);
  EXPECT_TRUE(tree->CheckInvariants().ok());
  for (int qi = 0; qi < 30; ++qi) {
    double cx = rng.Uniform(-50, 50), cy = rng.Uniform(-50, 50);
    double h = rng.Uniform(1, 20);
    Rect w(cx - h, cy - h, cx + h, cy + h);
    Result<std::vector<TupleId>> got = tree->SearchRect(w);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), BruteRect(data, w)) << "query " << qi;
  }
}

TEST(RPlusTreeTest, DeleteRemovesAllFragments) {
  auto pager = MakePager();
  Rng rng(38);
  auto data = RandomRects(&rng, 200, 50, 15);  // Big enough to clip.
  std::unique_ptr<RPlusTree> tree;
  ASSERT_TRUE(RPlusTree::BulkBuild(pager.get(), data, &tree).ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(tree->Delete(data[static_cast<size_t>(i)].first,
                             static_cast<TupleId>(i))
                    .ok());
  }
  EXPECT_EQ(tree->entry_count(), 150u);
  Result<std::vector<TupleId>> got =
      tree->SearchRect(Rect(-100, -100, 100, 100));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().size(), 150u);
  for (TupleId id : got.value()) {
    EXPECT_GE(id, 50u);
  }
  EXPECT_TRUE(tree->Delete(data[0].first, 0).IsNotFound());
}

TEST(RPlusTreeTest, RandomizedInsertDeleteFuzz) {
  auto pager = MakePager();
  Rng rng(75);
  std::unique_ptr<RPlusTree> tree;
  ASSERT_TRUE(RPlusTree::Create(pager.get(), &tree).ok());
  // Ids are handed out in increasing order and erased in place, so `live`
  // stays sorted by id, the order searches return.
  std::vector<std::pair<Rect, TupleId>> live;
  TupleId next_id = 0;
  for (int op = 0; op < 1200; ++op) {
    if (live.empty() || rng.Chance(0.6)) {
      double cx = rng.Uniform(-50, 50), cy = rng.Uniform(-50, 50);
      double h = rng.Uniform(0.2, 6);
      Rect r(cx - h, cy - h, cx + h, cy + h);
      ASSERT_TRUE(tree->Insert(r, next_id).ok());
      live.push_back({r, next_id++});
    } else {
      size_t pos = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
      ASSERT_TRUE(tree->Delete(live[pos].first, live[pos].second).ok());
      live.erase(live.begin() + static_cast<long>(pos));
    }
    if (op % 200 == 199) {
      ASSERT_TRUE(tree->CheckInvariants().ok()) << "op " << op;
      Result<std::vector<TupleId>> all =
          tree->SearchRect(Rect(-100, -100, 100, 100));
      ASSERT_TRUE(all.ok());
      std::vector<TupleId> live_ids;
      for (const auto& [r, id] : live) live_ids.push_back(id);
      EXPECT_EQ(all.value(), live_ids) << "op " << op;
      for (int qi = 0; qi < 5; ++qi) {
        HalfPlaneQuery q(rng.Uniform(-3, 3), rng.Uniform(-60, 60),
                         rng.Chance(0.5) ? Cmp::kGE : Cmp::kLE);
        Result<std::vector<TupleId>> got = tree->SearchHalfPlane(q);
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(got.value(), BruteHalfPlane(live, q))
            << "op " << op << " query " << qi;
      }
    }
  }
}

TEST(RPlusTreeTest, RejectsUnboundedRect) {
  auto pager = MakePager();
  std::unique_ptr<RPlusTree> tree;
  ASSERT_TRUE(RPlusTree::Create(pager.get(), &tree).ok());
  EXPECT_TRUE(tree->Insert(Rect::Empty(), 0).IsInvalidArgument());
}

TEST(RTreeSelectTest, MatchesNaiveOnWorkload) {
  auto rel_pager = MakePager();
  auto idx_pager = MakePager();
  std::unique_ptr<Relation> relation;
  ASSERT_TRUE(Relation::Open(rel_pager.get(), kInvalidPageId, &relation).ok());
  Rng rng(39);
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
  ASSERT_TRUE(RPlusTree::BulkBuild(idx_pager.get(), rects, &tree).ok());
  for (int qi = 0; qi < 30; ++qi) {
    HalfPlaneQuery q(rng.Uniform(-3, 3), rng.Uniform(-80, 80),
                     rng.Chance(0.5) ? Cmp::kGE : Cmp::kLE);
    for (SelectionType type : {SelectionType::kAll, SelectionType::kExist}) {
      QueryStats stats;
      Result<std::vector<TupleId>> got =
          RTreeSelect(tree.get(), relation.get(), type, q, &stats);
      ASSERT_TRUE(got.ok());
      Result<std::vector<TupleId>> want = NaiveSelect(*relation, type, q);
      ASSERT_TRUE(want.ok());
      EXPECT_EQ(got.value(), want.value())
          << "qi=" << qi
          << " type=" << (type == SelectionType::kAll ? "ALL" : "EXIST");
      EXPECT_EQ(stats.results, got.value().size());
    }
  }
}

TEST(RTreeSelectTest, AllQueriesScanMoreThanExist) {
  // The paper's core observation: R+-trees must execute ALL as an EXIST
  // scan, so ALL touches at least as many candidates as EXIST.
  auto rel_pager = MakePager();
  auto idx_pager = MakePager();
  std::unique_ptr<Relation> relation;
  ASSERT_TRUE(Relation::Open(rel_pager.get(), kInvalidPageId, &relation).ok());
  Rng rng(40);
  WorkloadOptions w;
  std::vector<std::pair<Rect, TupleId>> rects;
  for (int i = 0; i < 300; ++i) {
    GeneralizedTuple t = RandomBoundedTuple(&rng, w);
    Result<TupleId> id = relation->Insert(t);
    ASSERT_TRUE(id.ok());
    Rect box;
    ASSERT_TRUE(t.GetBoundingRect(&box));
    rects.push_back({box, id.value()});
  }
  std::unique_ptr<RPlusTree> tree;
  ASSERT_TRUE(RPlusTree::BulkBuild(idx_pager.get(), rects, &tree).ok());
  HalfPlaneQuery q(0.3, -20.0, Cmp::kGE);
  QueryStats all_stats, exist_stats;
  ASSERT_TRUE(RTreeSelect(tree.get(), relation.get(), SelectionType::kAll, q,
                          &all_stats)
                  .ok());
  ASSERT_TRUE(RTreeSelect(tree.get(), relation.get(), SelectionType::kExist,
                          q, &exist_stats)
                  .ok());
  EXPECT_EQ(all_stats.candidates, exist_stats.candidates);
  EXPECT_LE(all_stats.results, exist_stats.results);
  EXPECT_GE(all_stats.false_hits, exist_stats.false_hits);
}

}  // namespace
}  // namespace cdb
