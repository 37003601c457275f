#include "db/database.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "common/rng.h"
#include "constraint/naive_eval.h"
#include "workload/generator.h"

namespace cdb {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

void RemoveDb(const std::string& path) {
  std::filesystem::remove(path + ".rel");
  std::filesystem::remove(path + ".idx");
}

DatabaseOptions MemOptions() {
  DatabaseOptions opts;
  opts.in_memory = true;
  return opts;
}

TEST(DatabaseTest, InsertTextAndQuery) {
  std::unique_ptr<ConstraintDatabase> db;
  ASSERT_TRUE(ConstraintDatabase::Open("mem", MemOptions(), &db).ok());
  Result<TupleId> a = db->InsertText("x >= 0, y >= 0, x + y <= 4");
  Result<TupleId> b = db->InsertText("x >= 5, x <= 7, y >= 5, y <= 7");
  Result<TupleId> c = db->InsertText("x <= 2, y >= 3");  // Unbounded.
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_EQ(db->size(), 3u);

  Result<std::vector<TupleId>> r = db->Query("EXIST y >= 6");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value(), (std::vector<TupleId>{b.value(), c.value()}));

  r = db->Query("ALL y <= 10");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), (std::vector<TupleId>{a.value(), b.value()}));
}

TEST(DatabaseTest, QueryLanguageErrors) {
  std::unique_ptr<ConstraintDatabase> db;
  ASSERT_TRUE(ConstraintDatabase::Open("mem", MemOptions(), &db).ok());
  EXPECT_TRUE(db->Query("FROB y >= 1").status().IsInvalidArgument());
  EXPECT_TRUE(db->Query("ALL y >= 1, y <= 2").status().IsInvalidArgument());
  EXPECT_TRUE(db->Query("ALL 3 >= 1").status().IsInvalidArgument());
  EXPECT_TRUE(db->Query("").status().IsInvalidArgument());
}

TEST(DatabaseTest, VerticalQueriesThroughQueryLanguage) {
  DatabaseOptions opts = MemOptions();
  opts.index_options.support_vertical = true;
  std::unique_ptr<ConstraintDatabase> db;
  ASSERT_TRUE(ConstraintDatabase::Open("mem", opts, &db).ok());
  Result<TupleId> a = db->InsertText("x >= 0, x <= 1, y >= 0, y <= 1");
  Result<TupleId> b = db->InsertText("x >= 5, x <= 6, y >= 0, y <= 1");
  ASSERT_TRUE(a.ok() && b.ok());

  Result<std::vector<TupleId>> r = db->Query("ALL x >= 4");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value(), std::vector<TupleId>{b.value()});

  r = db->Query("EXIST x <= 0.5");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), std::vector<TupleId>{a.value()});

  // Negative coefficient flips the side: -2x >= -8  <=>  x <= 4.
  r = db->Query("ALL -2x >= -8");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), std::vector<TupleId>{a.value()});
}

TEST(DatabaseTest, RejectsUnsatisfiableText) {
  std::unique_ptr<ConstraintDatabase> db;
  ASSERT_TRUE(ConstraintDatabase::Open("mem", MemOptions(), &db).ok());
  EXPECT_TRUE(
      db->InsertText("x >= 1, x <= 0").status().IsInvalidArgument());
  EXPECT_EQ(db->size(), 0u);
}

TEST(DatabaseTest, DeleteKeepsRelationAndIndexInSync) {
  std::unique_ptr<ConstraintDatabase> db;
  ASSERT_TRUE(ConstraintDatabase::Open("mem", MemOptions(), &db).ok());
  Rng rng(5);
  WorkloadOptions w;
  std::vector<TupleId> ids;
  for (int i = 0; i < 60; ++i) {
    Result<TupleId> id = db->Insert(RandomBoundedTuple(&rng, w));
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(db->Delete(ids[static_cast<size_t>(i)]).ok());
  }
  EXPECT_EQ(db->size(), 30u);
  EXPECT_TRUE(db->Delete(ids[0]).IsNotFound());
  // Queries agree with a fresh naive scan.
  HalfPlaneQuery q(0.3, 0.0, Cmp::kGE);
  for (SelectionType type : {SelectionType::kAll, SelectionType::kExist}) {
    Result<std::vector<TupleId>> got = db->Select(type, q);
    ASSERT_TRUE(got.ok());
    Result<std::vector<TupleId>> want = NaiveSelect(*db->relation(), type, q);
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(got.value(), want.value());
  }
}

TEST(DatabaseTest, PersistsAcrossReopen) {
  std::string path = TempPath("cdb_database_test");
  RemoveDb(path);
  DatabaseOptions opts;
  opts.slopes = {-0.5, 0.5};
  opts.index_options.support_vertical = true;
  Rng rng(7);
  WorkloadOptions w;
  std::vector<std::vector<TupleId>> expected;
  std::vector<HalfPlaneQuery> queries;
  for (int qi = 0; qi < 6; ++qi) {
    queries.emplace_back(rng.Uniform(-1, 1), rng.Uniform(-40, 40),
                         rng.Chance(0.5) ? Cmp::kGE : Cmp::kLE);
  }
  {
    std::unique_ptr<ConstraintDatabase> db;
    ASSERT_TRUE(ConstraintDatabase::Open(path, opts, &db).ok());
    for (int i = 0; i < 120; ++i) {
      ASSERT_TRUE(db->Insert(RandomBoundedTuple(&rng, w)).ok());
    }
    ASSERT_TRUE(db->Delete(17).ok());
    ASSERT_TRUE(db->Delete(42).ok());
    for (const HalfPlaneQuery& q : queries) {
      Result<std::vector<TupleId>> r = db->Select(SelectionType::kExist, q);
      ASSERT_TRUE(r.ok());
      expected.push_back(r.value());
    }
    ASSERT_TRUE(db->Flush().ok());
  }
  {
    std::unique_ptr<ConstraintDatabase> db;
    ASSERT_TRUE(ConstraintDatabase::Open(path, opts, &db).ok());
    EXPECT_EQ(db->size(), 118u);
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      Result<std::vector<TupleId>> r =
          db->Select(SelectionType::kExist, queries[qi]);
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(r.value(), expected[qi]) << "query " << qi;
    }
    // The reopened catalog restored the slope set.
    EXPECT_EQ(db->index()->slopes().size(), 2u);
    EXPECT_EQ(db->index()->slopes().slope(0), -0.5);
    // Vertical support survived too.
    EXPECT_TRUE(
        db->SelectVertical(SelectionType::kExist, {0.0, Cmp::kGE}).ok());
    // And the database stays writable.
    Result<TupleId> id = db->Insert(RandomBoundedTuple(&rng, w));
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(id.value(), 120u);
  }
  RemoveDb(path);
}

TEST(DatabaseTest, ReopenWithWrongPageSizeFails) {
  std::string path = TempPath("cdb_database_pagesize");
  RemoveDb(path);
  DatabaseOptions opts;
  {
    std::unique_ptr<ConstraintDatabase> db;
    ASSERT_TRUE(ConstraintDatabase::Open(path, opts, &db).ok());
    ASSERT_TRUE(db->InsertText("x >= 0, x <= 1, y >= 0, y <= 1").ok());
  }
  DatabaseOptions other = opts;
  other.page_size = 512;
  std::unique_ptr<ConstraintDatabase> db;
  EXPECT_FALSE(ConstraintDatabase::Open(path, other, &db).ok());
  RemoveDb(path);
}

TEST(DatabaseTest, HalfMissingDatabaseIsCorruption) {
  std::string path = TempPath("cdb_database_half");
  RemoveDb(path);
  DatabaseOptions opts;
  {
    std::unique_ptr<ConstraintDatabase> db;
    ASSERT_TRUE(ConstraintDatabase::Open(path, opts, &db).ok());
    ASSERT_TRUE(db->InsertText("x >= 0, x <= 1, y >= 0, y <= 1").ok());
  }
  std::filesystem::remove(path + ".idx");
  std::unique_ptr<ConstraintDatabase> db;
  EXPECT_TRUE(ConstraintDatabase::Open(path, opts, &db).IsCorruption());
  RemoveDb(path);
}

TEST(DatabaseTest, ExplainDescribesThePlan) {
  DatabaseOptions opts = MemOptions();
  opts.slopes = {-1.0, 0.0, 1.0};
  opts.index_options.support_vertical = true;
  std::unique_ptr<ConstraintDatabase> db;
  ASSERT_TRUE(ConstraintDatabase::Open("mem", opts, &db).ok());
  ASSERT_TRUE(db->InsertText("x >= 0, x <= 1, y >= 0, y <= 1").ok());

  Result<std::string> plan = db->Explain("EXIST y >= 0*x + 3");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan.value().find("exact"), std::string::npos);
  EXPECT_NE(plan.value().find("B^up"), std::string::npos);

  // An off-S slope runs T1 (DESIGN.md decision 74).
  plan = db->Explain("ALL y >= 0.4x + 1");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan.value().find("app-query"), std::string::npos);
  EXPECT_NE(plan.value().find("B^down"), std::string::npos);
  EXPECT_NE(plan.value().find("refine"), std::string::npos);

  plan = db->Explain("EXIST x <= 3");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan.value().find("X^min"), std::string::npos);

  EXPECT_TRUE(db->Explain("BOGUS y >= 1").status().IsInvalidArgument());
}

// Explain refuses what Query refuses: without the vertical support trees
// a vertical query has no plan, only Query's NotSupported.
TEST(DatabaseTest, ExplainRefusesVerticalQueriesWithoutSupportTrees) {
  DatabaseOptions opts = MemOptions();
  opts.slopes = {-1.0, 0.0, 1.0};
  std::unique_ptr<ConstraintDatabase> db;
  ASSERT_TRUE(ConstraintDatabase::Open("mem", opts, &db).ok());
  ASSERT_TRUE(db->InsertText("x >= 0, x <= 1, y >= 0, y <= 1").ok());

  const Status query = db->Query("EXIST x <= 3").status();
  const Status plan = db->Explain("EXIST x <= 3").status();
  EXPECT_TRUE(query.IsNotSupported());
  EXPECT_TRUE(plan.IsNotSupported());
  EXPECT_EQ(plan.ToString(), query.ToString());
}

// Every branch of the query planner as Explain prints it, as one text: a
// slope in S, between two slopes of S (nearer the lower and nearer the
// upper one), below min S and above max S, under each method, on ordinary
// and augmented trees, ALL with >= and EXIST with <=; then vertical
// queries with both comparisons.
std::string ExplainAllBranches() {
  std::string out;
  for (bool augmented : {false, true}) {
    DatabaseOptions opts = MemOptions();
    opts.slopes = {-1.0, 0.0, 1.0};
    opts.index_options.support_vertical = true;
    opts.index_options.incremental_handicaps = augmented;
    std::unique_ptr<ConstraintDatabase> db;
    EXPECT_TRUE(ConstraintDatabase::Open("mem", opts, &db).ok());
    EXPECT_TRUE(db->InsertText("x >= 0, x <= 1, y >= 0, y <= 1").ok());
    const std::vector<double> slopes =
        augmented ? std::vector<double>{0.4, 0.7}
                  : std::vector<double>{0.0, 0.4, 0.7, -2.5, 3.0};
    for (double slope : slopes) {
      for (QueryMethod method : {QueryMethod::kAuto, QueryMethod::kT1,
                                 QueryMethod::kT2, QueryMethod::kRestricted}) {
        if (augmented && method != QueryMethod::kT2) continue;
        for (SelectionType type :
             {SelectionType::kAll, SelectionType::kExist}) {
          const Cmp cmp =
              type == SelectionType::kAll ? Cmp::kGE : Cmp::kLE;
          Result<std::string> plan = db->index()->Explain(
              type, HalfPlaneQuery(slope, 1.5, cmp), method);
          EXPECT_TRUE(plan.ok());
          out += plan.ok() ? plan.value() : "";
        }
      }
    }
    if (augmented) continue;
    for (const char* text :
         {"ALL x >= 2", "ALL x <= -1.5", "EXIST x >= 0.25", "EXIST x <= 3"}) {
      Result<std::string> plan = db->Explain(text);
      EXPECT_TRUE(plan.ok());
      out += plan.ok() ? plan.value() : "";
    }
  }
  return out;
}

TEST(DatabaseTest, ExplainTextIsPinnedForEveryPlanBranch) {
  EXPECT_EQ(ExplainAllBranches(), R"(ALL(y >= 0*x + 1.5) via auto
  exact: ALL(>=) on B^down[slope=0]: seek b=1.5, sweep upward
  no refinement needed
EXIST(y <= 0*x + 1.5) via auto
  exact: EXIST(<=) on B^down[slope=0]: seek b=1.5, sweep downward
  no refinement needed
ALL(y >= 0*x + 1.5) via T1
  exact: ALL(>=) on B^down[slope=0]: seek b=1.5, sweep upward
  no refinement needed
EXIST(y <= 0*x + 1.5) via T1
  exact: EXIST(<=) on B^down[slope=0]: seek b=1.5, sweep downward
  no refinement needed
ALL(y >= 0*x + 1.5) via T2
  exact: ALL(>=) on B^down[slope=0]: seek b=1.5, sweep upward
  no refinement needed
EXIST(y <= 0*x + 1.5) via T2
  exact: EXIST(<=) on B^down[slope=0]: seek b=1.5, sweep downward
  no refinement needed
ALL(y >= 0*x + 1.5) via restricted
  exact: ALL(>=) on B^down[slope=0]: seek b=1.5, sweep upward
  no refinement needed
EXIST(y <= 0*x + 1.5) via restricted
  exact: EXIST(<=) on B^down[slope=0]: seek b=1.5, sweep downward
  no refinement needed
ALL(y >= 0.4*x + 1.5) via auto
  app-query: ALL(>=) on B^down[slope=0]: seek b=1.5, sweep upward
  app-query: EXIST(>=) on B^up[slope=1]: seek b=1.5, sweep upward
  deduplicate ids, refine candidates on their V-representation
EXIST(y <= 0.4*x + 1.5) via auto
  app-query: EXIST(<=) on B^down[slope=0]: seek b=1.5, sweep downward
  app-query: EXIST(<=) on B^down[slope=1]: seek b=1.5, sweep downward
  deduplicate ids, refine candidates on their V-representation
ALL(y >= 0.4*x + 1.5) via T1
  app-query: ALL(>=) on B^down[slope=0]: seek b=1.5, sweep upward
  app-query: EXIST(>=) on B^up[slope=1]: seek b=1.5, sweep upward
  deduplicate ids, refine candidates on their V-representation
EXIST(y <= 0.4*x + 1.5) via T1
  app-query: EXIST(<=) on B^down[slope=0]: seek b=1.5, sweep downward
  app-query: EXIST(<=) on B^down[slope=1]: seek b=1.5, sweep downward
  deduplicate ids, refine candidates on their V-representation
ALL(y >= 0.4*x + 1.5) via T2
  T2: B^down[slope=0] (nearest), handicap side=next
  first sweep upward from b=1.5
  second-sweep bound: handicap slot 1 folded over the first sweep's leaves
  second sweep downward to that bound
  refine candidates on their V-representation
EXIST(y <= 0.4*x + 1.5) via T2
  T2: B^down[slope=0] (nearest), handicap side=next
  first sweep downward from b=1.5
  second-sweep bound: handicap slot 3 folded over the first sweep's leaves
  second sweep upward to that bound
  refine candidates on their V-representation
ALL(y >= 0.4*x + 1.5) via restricted
  ERROR: slope not in S
EXIST(y <= 0.4*x + 1.5) via restricted
  ERROR: slope not in S
ALL(y >= 0.7*x + 1.5) via auto
  app-query: EXIST(>=) on B^up[slope=0]: seek b=1.5, sweep upward
  app-query: ALL(>=) on B^down[slope=1]: seek b=1.5, sweep upward
  deduplicate ids, refine candidates on their V-representation
EXIST(y <= 0.7*x + 1.5) via auto
  app-query: EXIST(<=) on B^down[slope=0]: seek b=1.5, sweep downward
  app-query: EXIST(<=) on B^down[slope=1]: seek b=1.5, sweep downward
  deduplicate ids, refine candidates on their V-representation
ALL(y >= 0.7*x + 1.5) via T1
  app-query: EXIST(>=) on B^up[slope=0]: seek b=1.5, sweep upward
  app-query: ALL(>=) on B^down[slope=1]: seek b=1.5, sweep upward
  deduplicate ids, refine candidates on their V-representation
EXIST(y <= 0.7*x + 1.5) via T1
  app-query: EXIST(<=) on B^down[slope=0]: seek b=1.5, sweep downward
  app-query: EXIST(<=) on B^down[slope=1]: seek b=1.5, sweep downward
  deduplicate ids, refine candidates on their V-representation
ALL(y >= 0.7*x + 1.5) via T2
  T2: B^down[slope=1] (nearest), handicap side=prev
  first sweep upward from b=1.5
  second-sweep bound: handicap slot 0 folded over the first sweep's leaves
  second sweep downward to that bound
  refine candidates on their V-representation
EXIST(y <= 0.7*x + 1.5) via T2
  T2: B^down[slope=1] (nearest), handicap side=prev
  first sweep downward from b=1.5
  second-sweep bound: handicap slot 2 folded over the first sweep's leaves
  second sweep upward to that bound
  refine candidates on their V-representation
ALL(y >= 0.7*x + 1.5) via restricted
  ERROR: slope not in S
EXIST(y <= 0.7*x + 1.5) via restricted
  ERROR: slope not in S
ALL(y >= -2.5*x + 1.5) via auto
  app-query: EXIST(<=) on B^down[slope=1]: seek b=1.5, sweep downward
  app-query: ALL(>=) on B^down[slope=-1]: seek b=1.5, sweep upward
  deduplicate ids, refine candidates on their V-representation
EXIST(y <= -2.5*x + 1.5) via auto
  app-query: EXIST(>=) on B^up[slope=1]: seek b=1.5, sweep upward
  app-query: EXIST(<=) on B^down[slope=-1]: seek b=1.5, sweep downward
  deduplicate ids, refine candidates on their V-representation
ALL(y >= -2.5*x + 1.5) via T1
  app-query: EXIST(<=) on B^down[slope=1]: seek b=1.5, sweep downward
  app-query: ALL(>=) on B^down[slope=-1]: seek b=1.5, sweep upward
  deduplicate ids, refine candidates on their V-representation
EXIST(y <= -2.5*x + 1.5) via T1
  app-query: EXIST(>=) on B^up[slope=1]: seek b=1.5, sweep upward
  app-query: EXIST(<=) on B^down[slope=-1]: seek b=1.5, sweep downward
  deduplicate ids, refine candidates on their V-representation
ALL(y >= -2.5*x + 1.5) via T2
  slope outside [min S, max S]: T2 falls back to T1
  app-query: EXIST(<=) on B^down[slope=1]: seek b=1.5, sweep downward
  app-query: ALL(>=) on B^down[slope=-1]: seek b=1.5, sweep upward
  deduplicate ids, refine candidates on their V-representation
EXIST(y <= -2.5*x + 1.5) via T2
  slope outside [min S, max S]: T2 falls back to T1
  app-query: EXIST(>=) on B^up[slope=1]: seek b=1.5, sweep upward
  app-query: EXIST(<=) on B^down[slope=-1]: seek b=1.5, sweep downward
  deduplicate ids, refine candidates on their V-representation
ALL(y >= -2.5*x + 1.5) via restricted
  ERROR: slope not in S
EXIST(y <= -2.5*x + 1.5) via restricted
  ERROR: slope not in S
ALL(y >= 3*x + 1.5) via auto
  app-query: ALL(>=) on B^down[slope=1]: seek b=1.5, sweep upward
  app-query: EXIST(<=) on B^down[slope=-1]: seek b=1.5, sweep downward
  deduplicate ids, refine candidates on their V-representation
EXIST(y <= 3*x + 1.5) via auto
  app-query: EXIST(<=) on B^down[slope=1]: seek b=1.5, sweep downward
  app-query: EXIST(>=) on B^up[slope=-1]: seek b=1.5, sweep upward
  deduplicate ids, refine candidates on their V-representation
ALL(y >= 3*x + 1.5) via T1
  app-query: ALL(>=) on B^down[slope=1]: seek b=1.5, sweep upward
  app-query: EXIST(<=) on B^down[slope=-1]: seek b=1.5, sweep downward
  deduplicate ids, refine candidates on their V-representation
EXIST(y <= 3*x + 1.5) via T1
  app-query: EXIST(<=) on B^down[slope=1]: seek b=1.5, sweep downward
  app-query: EXIST(>=) on B^up[slope=-1]: seek b=1.5, sweep upward
  deduplicate ids, refine candidates on their V-representation
ALL(y >= 3*x + 1.5) via T2
  slope outside [min S, max S]: T2 falls back to T1
  app-query: ALL(>=) on B^down[slope=1]: seek b=1.5, sweep upward
  app-query: EXIST(<=) on B^down[slope=-1]: seek b=1.5, sweep downward
  deduplicate ids, refine candidates on their V-representation
EXIST(y <= 3*x + 1.5) via T2
  slope outside [min S, max S]: T2 falls back to T1
  app-query: EXIST(<=) on B^down[slope=1]: seek b=1.5, sweep downward
  app-query: EXIST(>=) on B^up[slope=-1]: seek b=1.5, sweep upward
  deduplicate ids, refine candidates on their V-representation
ALL(y >= 3*x + 1.5) via restricted
  ERROR: slope not in S
EXIST(y <= 3*x + 1.5) via restricted
  ERROR: slope not in S
ALL(x >= 2) via vertical support trees
  exact: sweep X^min upward from 2
  no refinement needed
ALL(x <= -1.5) via vertical support trees
  exact: sweep X^max downward from -1.5
  no refinement needed
EXIST(x >= 0.25) via vertical support trees
  exact: sweep X^max upward from 0.25
  no refinement needed
EXIST(x <= 3) via vertical support trees
  exact: sweep X^min downward from 3
  no refinement needed
ALL(y >= 0.4*x + 1.5) via T2
  T2: B^down[slope=0] (nearest), handicap side=next
  first sweep upward from b=1.5
  second-sweep bound: one aggregate descent on handicap slot 1
  second sweep downward to that bound
  refine candidates on their V-representation
EXIST(y <= 0.4*x + 1.5) via T2
  T2: B^down[slope=0] (nearest), handicap side=next
  first sweep downward from b=1.5
  second-sweep bound: one aggregate descent on handicap slot 3
  second sweep upward to that bound
  refine candidates on their V-representation
ALL(y >= 0.7*x + 1.5) via T2
  T2: B^down[slope=1] (nearest), handicap side=prev
  first sweep upward from b=1.5
  second-sweep bound: one aggregate descent on handicap slot 0
  second sweep downward to that bound
  refine candidates on their V-representation
EXIST(y <= 0.7*x + 1.5) via T2
  T2: B^down[slope=1] (nearest), handicap side=prev
  first sweep downward from b=1.5
  second-sweep bound: one aggregate descent on handicap slot 2
  second sweep upward to that bound
  refine candidates on their V-representation
)");
}

TEST(DatabaseTest, StatsFlowThrough) {
  std::unique_ptr<ConstraintDatabase> db;
  ASSERT_TRUE(ConstraintDatabase::Open("mem", MemOptions(), &db).ok());
  Rng rng(9);
  WorkloadOptions w;
  for (int i = 0; i < 80; ++i) {
    ASSERT_TRUE(db->Insert(RandomBoundedTuple(&rng, w)).ok());
  }
  QueryStats stats;
  Result<std::vector<TupleId>> r =
      db->Query("EXIST y >= 0.3x + 1", &stats);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(stats.index_page_fetches, 0u);
  EXPECT_EQ(stats.results, r.value().size());
}

}  // namespace
}  // namespace cdb
