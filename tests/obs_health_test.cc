// Index-health inspector (ISSUE 6): CollectHealth's handicap-tightness
// replay must report exact values on a settled index (all gaps zero, no
// unsound slots), conservative-but-sound values after deletions, and
// exactness again after RebuildHandicaps(); augmented trees never drift.
// Also covers the slope observer/coverage report.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "dualindex/dual_index.h"
#include "obs/json.h"
#include "pager_test_util.h"
#include "storage/file.h"
#include "workload/generator.h"

namespace cdb {
namespace {

std::unique_ptr<Pager> MakePager() {
  PagerOptions opts;
  opts.page_size = 1024;
  opts.cache_frames = 64;
  std::unique_ptr<Pager> pager;
  EXPECT_TRUE(
      Pager::Open(std::make_unique<MemFile>(1024), opts, &pager).ok());
  return pager;
}

struct HealthFixture {
  std::unique_ptr<Pager> rel_pager = MakePager();
  std::unique_ptr<Pager> idx_pager = MakePager();
  std::unique_ptr<Relation> relation;
  std::unique_ptr<DualIndex> index;
  std::vector<std::pair<TupleId, GeneralizedTuple>> live;
  Rng rng;

  explicit HealthFixture(uint64_t seed) : rng(seed) {
    EXPECT_TRUE(
        Relation::Open(rel_pager.get(), kInvalidPageId, &relation).ok());
  }

  ~HealthFixture() {
    ExpectNoPinnedFrames(*rel_pager);
    ExpectNoPinnedFrames(*idx_pager);
  }

  void Populate(int n) {
    WorkloadOptions w;
    for (int i = 0; i < n; ++i) {
      GeneralizedTuple t = RandomBoundedTuple(&rng, w);
      Result<TupleId> id = relation->Insert(t);
      ASSERT_TRUE(id.ok());
      live.push_back({id.value(), t});
    }
  }

  void BuildIndex(DualIndexOptions opts = {}) {
    ASSERT_TRUE(DualIndex::Build(idx_pager.get(), relation.get(),
                                 SlopeSet::UniformInAngle(4, -1.3, 1.3),
                                 opts, &index)
                    .ok());
  }

  // Removes every 3rd live tuple from index and relation.
  void RemoveSome() {
    std::vector<std::pair<TupleId, GeneralizedTuple>> kept;
    for (size_t i = 0; i < live.size(); ++i) {
      if (i % 3 == 0) {
        ASSERT_TRUE(index->Remove(live[i].first, live[i].second).ok());
        ASSERT_TRUE(relation->Delete(live[i].first).ok());
      } else {
        kept.push_back(live[i]);
      }
    }
    live = std::move(kept);
  }

  obs::HealthReport Collect() {
    obs::HealthReport report;
    EXPECT_TRUE(index->CollectHealth(&report).ok());
    return report;
  }
};

// Structural expectations that hold for every report.
void CheckCommon(const obs::HealthReport& r, size_t tuples,
                 size_t expected_trees) {
  EXPECT_EQ(r.tuples, tuples);
  ASSERT_EQ(r.trees.size(), expected_trees);
  uint64_t staleness = 0, unsound = 0;
  for (const obs::TreeHealth& t : r.trees) {
    SCOPED_TRACE(t.name);
    EXPECT_GT(t.leaves, 0u);
    EXPECT_GE(t.height, 1u);
    EXPECT_GT(t.occupancy, 0.0);
    EXPECT_LE(t.occupancy, 1.0);
    EXPECT_GE(t.gap_max, 0.0);
    EXPECT_GE(t.gap_sum, 0.0);
    staleness += t.staleness;
    unsound += t.unsound;
  }
  EXPECT_EQ(r.staleness_total, staleness);
  EXPECT_EQ(r.unsound_total, unsound);
  // Coverage: angles ascending, gap positive for a real slope set.
  ASSERT_FALSE(r.coverage.slope_angles.empty());
  EXPECT_TRUE(std::is_sorted(r.coverage.slope_angles.begin(),
                             r.coverage.slope_angles.end()));
  EXPECT_GT(r.coverage.max_adjacent_gap, 0.0);
}

TEST(HealthTest, FreshBulkBuildIsExactEverywhere) {
  HealthFixture fx(701);
  fx.Populate(200);
  fx.BuildIndex();
  obs::HealthReport r = fx.Collect();
  CheckCommon(r, 200, 2 * fx.index->slopes().size());
  EXPECT_EQ(r.staleness_total, 0u);
  EXPECT_EQ(r.unsound_total, 0u);
  for (const obs::TreeHealth& t : r.trees) {
    SCOPED_TRACE(t.name);
    EXPECT_FALSE(t.augmented);
    EXPECT_EQ(t.entries, 200u);
    // Bulk build settles leaves before folding: every slot is exact.
    EXPECT_EQ(t.gap_zero, t.gap_samples);
    EXPECT_EQ(t.gap_unbounded, 0u);
    EXPECT_DOUBLE_EQ(t.gap_max, 0.0);
    EXPECT_DOUBLE_EQ(t.gap_mean(), 0.0);
  }
}

TEST(HealthTest, DeletesDriftConservativelyAndRebuildRestoresExactness) {
  HealthFixture fx(702);
  fx.Populate(240);
  fx.BuildIndex();
  fx.RemoveSome();

  obs::HealthReport stale = fx.Collect();
  CheckCommon(stale, fx.live.size(), 2 * fx.index->slopes().size());
  // Deletions degrade handicaps; the index tracks that debt and the
  // report must agree with it.
  EXPECT_GT(stale.staleness_total, 0u);
  EXPECT_EQ(stale.staleness_total, fx.index->handicap_staleness());
  // Conservative is allowed; tighter-than-truth never is.
  EXPECT_EQ(stale.unsound_total, 0u);

  ASSERT_TRUE(fx.index->RebuildHandicaps().ok());
  obs::HealthReport rebuilt = fx.Collect();
  EXPECT_EQ(rebuilt.staleness_total, 0u);
  EXPECT_EQ(rebuilt.unsound_total, 0u);
  for (const obs::TreeHealth& t : rebuilt.trees) {
    SCOPED_TRACE(t.name);
    EXPECT_EQ(t.entries, fx.live.size());
    EXPECT_EQ(t.gap_zero, t.gap_samples);
    EXPECT_DOUBLE_EQ(t.gap_max, 0.0);
  }
}

TEST(HealthTest, AugmentedTreesNeverDrift) {
  HealthFixture fx(703);
  fx.Populate(200);
  DualIndexOptions opts;
  opts.incremental_handicaps = true;
  fx.BuildIndex(opts);
  fx.RemoveSome();
  WorkloadOptions w;
  for (int i = 0; i < 40; ++i) {
    GeneralizedTuple t = RandomBoundedTuple(&fx.rng, w);
    Result<TupleId> id = fx.relation->Insert(t);
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(fx.index->Insert(id.value(), t).ok());
    fx.live.push_back({id.value(), t});
  }
  obs::HealthReport r = fx.Collect();
  CheckCommon(r, fx.live.size(), 2 * fx.index->slopes().size());
  EXPECT_EQ(r.staleness_total, 0u);
  EXPECT_EQ(r.unsound_total, 0u);
  for (const obs::TreeHealth& t : r.trees) {
    SCOPED_TRACE(t.name);
    EXPECT_TRUE(t.augmented);
    // Incremental maintenance keeps every slot exact at all times.
    EXPECT_EQ(t.gap_zero, t.gap_samples);
    EXPECT_DOUBLE_EQ(t.gap_max, 0.0);
  }
}

TEST(HealthTest, VerticalSupportTreesGetStructureRows) {
  HealthFixture fx(705);
  fx.Populate(150);
  DualIndexOptions opts;
  opts.support_vertical = true;
  fx.BuildIndex(opts);
  obs::HealthReport r = fx.Collect();
  CheckCommon(r, 150, 2 * fx.index->slopes().size() + 2);
  bool saw_xmax = false, saw_xmin = false;
  for (const obs::TreeHealth& t : r.trees) {
    if (t.name == "xmax") saw_xmax = true;
    if (t.name == "xmin") saw_xmin = true;
    if (t.name == "xmax" || t.name == "xmin") {
      EXPECT_EQ(t.entries, 150u);
      // Structure-only rows: no handicap semantics on support trees.
      EXPECT_EQ(t.gap_samples, 0u);
    }
  }
  EXPECT_TRUE(saw_xmax);
  EXPECT_TRUE(saw_xmin);
}

TEST(HealthTest, SlopeObserverFeedsCoverage) {
  HealthFixture fx(706);
  fx.Populate(120);
  fx.BuildIndex();
  obs::SlopeHistogram observer;
  fx.index->set_slope_observer(&observer);

  int in_band = 0, outside = 0;
  for (int qi = 0; qi < 30; ++qi) {
    // Half the queries inside the slope band of S, half far outside it.
    double slope =
        qi % 2 == 0 ? fx.rng.Uniform(-1.2, 1.2) : fx.rng.Uniform(8.0, 40.0);
    (qi % 2 == 0 ? in_band : outside)++;
    HalfPlaneQuery q(slope, fx.rng.Uniform(-50, 50), Cmp::kGE);
    QueryStats stats;
    ASSERT_TRUE(fx.index
                    ->Select(SelectionType::kExist, q, QueryMethod::kAuto,
                             &stats)
                    .ok());
  }
  EXPECT_EQ(observer.total(), 30u);

  obs::HealthReport r = fx.Collect();
  // Detach before the fixture dies; also proves detach compiles/runs.
  fx.index->set_slope_observer(nullptr);
  ASSERT_FALSE(r.coverage.observed_counts.empty());
  EXPECT_EQ(r.coverage.observed_bounds.size(),
            r.coverage.observed_counts.size() + 1);
  EXPECT_EQ(r.coverage.observed_total, 30u);
  uint64_t sum = 0;
  for (uint64_t c : r.coverage.observed_counts) sum += c;
  EXPECT_EQ(sum, 30u);
  // The steep queries land outside S's angular band. Bucketing is by
  // bucket midpoint, so the count is at least the clearly-outside ones.
  EXPECT_GE(r.coverage.observed_outside,
            static_cast<uint64_t>(outside) - 2);
  EXPECT_LE(r.coverage.observed_outside, static_cast<uint64_t>(30));
  (void)in_band;
}

TEST(HealthTest, ReportRendersJsonAndText) {
  HealthFixture fx(707);
  fx.Populate(100);
  fx.BuildIndex();
  obs::HealthReport r = fx.Collect();

  std::string json = r.ToJson();
  Result<obs::JsonValue> doc = obs::ParseJson(json);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const obs::JsonValue* schema = doc.value().Find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->string_value, "cdb-health/v1");
  const obs::JsonValue* trees = doc.value().Find("trees");
  ASSERT_NE(trees, nullptr);
  EXPECT_EQ(trees->items.size(), r.trees.size());

  std::string text = r.ToText();
  EXPECT_NE(text.find("tuples"), std::string::npos);
  for (const obs::TreeHealth& t : r.trees) {
    EXPECT_NE(text.find(t.name), std::string::npos);
  }
}

}  // namespace
}  // namespace cdb
