// Unit tests for the observability layer (ISSUE 1): MetricsRegistry
// counters/gauges/latency histograms, the JSON writer/parser, span tracing with
// pager-delta attribution, and the fault path (injected read failures must
// leave no pinned frames and no ambient tracer behind).

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "constraint/naive_eval.h"
#include "constraint/relation.h"
#include "dualindex/dual_index.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/fault_file.h"
#include "storage/file.h"
#include "storage/pager.h"
#include "workload/generator.h"

namespace cdb {
namespace obs {
namespace {

std::unique_ptr<Pager> MakeMemPager(size_t cache_frames = 64) {
  PagerOptions opts;
  opts.cache_frames = cache_frames;
  std::unique_ptr<Pager> pager;
  Status st =
      Pager::Open(std::make_unique<MemFile>(opts.page_size), opts, &pager);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return pager;
}

// --- MetricsRegistry ---------------------------------------------------------

TEST(MetricsTest, CounterAndGaugeHandlesAreStableAndNamed) {
  MetricsRegistry reg(/*enabled=*/true);
  Counter* c = reg.counter("queries.total");
  EXPECT_EQ(c->name(), "queries.total");
  EXPECT_EQ(c->value(), 0u);
  c->Increment();
  c->Increment(4);
  EXPECT_EQ(c->value(), 5u);
  // Same name returns the same handle.
  EXPECT_EQ(reg.counter("queries.total"), c);

  Gauge* g = reg.gauge("pool.resident");
  g->Set(17.5);
  EXPECT_EQ(reg.gauge("pool.resident"), g);
  EXPECT_DOUBLE_EQ(g->value(), 17.5);
}

TEST(MetricsTest, DisabledRegistryDropsEventsButKeepsGauges) {
  MetricsRegistry reg(/*enabled=*/false);
  Counter* c = reg.counter("dropped");
  c->Increment(100);
  EXPECT_EQ(c->value(), 0u);

  LatencyRecorder* h = reg.histogram("latency");
  h->RecordNanos(5000);
  LatencyRecorder batch;
  batch.RecordNanos(7000);
  h->MergeFrom(batch);
  EXPECT_EQ(h->count(), 0u);
  EXPECT_EQ(h->sum_ns(), 0u);

  // Gauges are snapshot metrics: they store regardless of the flag.
  Gauge* g = reg.gauge("resident");
  g->Set(3);
  EXPECT_DOUBLE_EQ(g->value(), 3.0);

  reg.SetEnabled(true);
  c->Increment();
  EXPECT_EQ(c->value(), 1u);
  h->RecordNanos(5000);
  h->MergeFrom(batch);
  EXPECT_EQ(h->count(), 2u);
  EXPECT_EQ(h->sum_ns(), 12000u);
}

// Every registry histogram has the recorder's layout: kBuckets - 1 finite
// inclusive upper bounds from kMinTrackedNs up, then one overflow bucket.
TEST(MetricsTest, HistogramBucketBoundsAreInclusiveUpperBounds) {
  MetricsRegistry reg(/*enabled=*/true);
  LatencyRecorder* h = reg.histogram("h");
  ASSERT_EQ(LatencyRecorder::UpperBoundNs(0), 1024u);
  ASSERT_EQ(LatencyRecorder::UpperBoundNs(1), 1217u);
  const uint64_t last = LatencyRecorder::UpperBoundNs(
      LatencyRecorder::kBuckets - 2);
  ASSERT_EQ(last, uint64_t{1} << 42);
  h->RecordNanos(0);         // Bucket 0.
  h->RecordNanos(1024);      // Bucket 0 (bounds are inclusive).
  h->RecordNanos(1025);      // Bucket 1.
  h->RecordNanos(1217);      // Bucket 1.
  h->RecordNanos(1218);      // Bucket 2.
  h->RecordNanos(last);      // Last finite bucket.
  h->RecordNanos(last + 1);  // Overflow.
  EXPECT_EQ(h->bucket_count(0), 2u);
  EXPECT_EQ(h->bucket_count(1), 2u);
  EXPECT_EQ(h->bucket_count(2), 1u);
  EXPECT_EQ(h->bucket_count(LatencyRecorder::kBuckets - 2), 1u);
  EXPECT_EQ(h->bucket_count(LatencyRecorder::kBuckets - 1), 1u);
  EXPECT_EQ(h->count(), 7u);
  EXPECT_EQ(h->sum_ns(),
            0 + 1024 + 1025 + 1217 + 1218 + last + (last + 1));

  const MetricsSnapshot snap = reg.Snapshot();
  const MetricsSnapshot::HistogramData& data = snap.histograms.at("h");
  ASSERT_EQ(data.bounds.size(), LatencyRecorder::kBuckets - 1);
  EXPECT_DOUBLE_EQ(data.bounds[0], 0.001024);  // Milliseconds.
  ASSERT_EQ(data.counts.size(), LatencyRecorder::kBuckets);
  EXPECT_EQ(data.counts[0], 2u);
  EXPECT_EQ(data.counts.back(), 1u);
  EXPECT_EQ(data.count, 7u);
}

TEST(MetricsTest, HistogramRegistrationIsIdempotent) {
  MetricsRegistry reg(/*enabled=*/true);
  LatencyRecorder* h = reg.histogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(reg.histogram("h"), h);
  EXPECT_NE(reg.histogram("other"), h);
}

TEST(MetricsTest, ResetAllZeroesEverythingAndKeepsHandles) {
  MetricsRegistry reg(/*enabled=*/true);
  Counter* c = reg.counter("c");
  Gauge* g = reg.gauge("g");
  LatencyRecorder* h = reg.histogram("h");
  c->Increment(3);
  g->Set(9);
  h->RecordNanos(1);
  h->RecordNanos(100'000);
  reg.ResetAll();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_DOUBLE_EQ(g->value(), 0.0);
  EXPECT_EQ(h->count(), 0u);
  EXPECT_EQ(h->sum_ns(), 0u);
  EXPECT_EQ(h->max_ns(), 0u);
  for (size_t i = 0; i < LatencyRecorder::kBuckets; ++i) {
    EXPECT_EQ(h->bucket_count(i), 0u);
  }
  EXPECT_EQ(reg.counter("c"), c);  // Handles survive the reset.
  EXPECT_EQ(reg.histogram("h"), h);
}

TEST(MetricsTest, JsonSnapshotRoundTripsAndSortsByName) {
  MetricsRegistry reg(/*enabled=*/true);
  reg.counter("z.last")->Increment(2);
  reg.counter("a.first")->Increment(1);
  reg.gauge("mid")->Set(0.25);
  reg.histogram("lat")->RecordNanos(1'500'000);

  Result<JsonValue> doc = ParseJson(reg.ToJson());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const JsonValue* counters = doc.value().Find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_EQ(counters->members.size(), 2u);
  // Sorted member order is part of the artifact contract.
  EXPECT_EQ(counters->members[0].first, "a.first");
  EXPECT_EQ(counters->members[1].first, "z.last");
  EXPECT_DOUBLE_EQ(counters->members[1].second.number, 2.0);

  const JsonValue* gauges = doc.value().Find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_DOUBLE_EQ(gauges->Find("mid")->number, 0.25);

  const JsonValue* hists = doc.value().Find("histograms");
  ASSERT_NE(hists, nullptr);
  const JsonValue* lat = hists->Find("lat");
  ASSERT_NE(lat, nullptr);
  EXPECT_DOUBLE_EQ(lat->Find("count")->number, 1.0);
  EXPECT_DOUBLE_EQ(lat->Find("sum")->number, 1.5);  // Milliseconds.
  EXPECT_EQ(lat->Find("bounds")->items.size(),
            LatencyRecorder::kBuckets - 1);
  EXPECT_EQ(lat->Find("counts")->items.size(), LatencyRecorder::kBuckets);
}

TEST(MetricsTest, ExportPagerMetricsPublishesGauges) {
  auto pager = MakeMemPager(/*cache_frames=*/4);
  std::vector<PageId> ids;
  for (int i = 0; i < 6; ++i) {
    Result<PageId> id = pager->Allocate();
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  for (PageId id : ids) ASSERT_TRUE(pager->Fetch(id).ok());

  MetricsRegistry reg(/*enabled=*/false);  // Gauges land even when disabled.
  ExportPagerMetrics(*pager, &reg, "relation");
  const IoStats& st = pager->stats();
  EXPECT_DOUBLE_EQ(reg.gauge("relation.page_fetches")->value(),
                   static_cast<double>(st.page_fetches));
  EXPECT_DOUBLE_EQ(reg.gauge("relation.page_reads")->value(),
                   static_cast<double>(st.page_reads));
  EXPECT_DOUBLE_EQ(reg.gauge("relation.buffer_hits")->value(),
                   static_cast<double>(st.buffer_hits));
  EXPECT_DOUBLE_EQ(reg.gauge("relation.buffer_evictions")->value(),
                   static_cast<double>(st.buffer_evictions));
  EXPECT_DOUBLE_EQ(reg.gauge("relation.dirty_writebacks")->value(),
                   static_cast<double>(st.dirty_writebacks));
  EXPECT_DOUBLE_EQ(reg.gauge("relation.resident_frames")->value(),
                   static_cast<double>(pager->resident_frame_count()));
  EXPECT_DOUBLE_EQ(reg.gauge("relation.pinned_frames")->value(), 0.0);
}

// --- JSON --------------------------------------------------------------------

TEST(JsonTest, WriterEscapesAndParserDecodes) {
  JsonWriter w;
  w.BeginObject();
  w.Key("s").Value(std::string_view("a\"b\\c\nd\te\x01"
                                    "f"));
  w.Key("i").Value(uint64_t{42});
  w.Key("neg").Value(int64_t{-7});
  w.Key("frac").Value(0.125);
  w.Key("integral").Value(200.0);  // Must print "200", not "2e+02".
  w.Key("b").Value(true);
  w.Key("null").Null();
  w.Key("arr").BeginArray().Value(uint64_t{1}).Value(uint64_t{2}).EndArray();
  w.EndObject();

  const std::string text = w.TakeString();
  EXPECT_NE(text.find("\"integral\":200"), std::string::npos) << text;
  EXPECT_NE(text.find("\\u0001"), std::string::npos) << text;

  Result<JsonValue> doc = ParseJson(text);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc.value().Find("s")->string_value,
            "a\"b\\c\nd\te\x01"
            "f");
  EXPECT_DOUBLE_EQ(doc.value().Find("i")->number, 42.0);
  EXPECT_DOUBLE_EQ(doc.value().Find("neg")->number, -7.0);
  EXPECT_DOUBLE_EQ(doc.value().Find("frac")->number, 0.125);
  EXPECT_DOUBLE_EQ(doc.value().Find("integral")->number, 200.0);
  EXPECT_TRUE(doc.value().Find("b")->bool_value);
  EXPECT_EQ(doc.value().Find("null")->kind, JsonValue::Kind::kNull);
  ASSERT_EQ(doc.value().Find("arr")->items.size(), 2u);
}

TEST(JsonTest, DoubleValuesRoundTripExactly) {
  for (double v : {0.1, 1.0 / 3.0, 6.02214076e23, -2.5e-8, 553.0, 0.0}) {
    JsonWriter w;
    w.Value(v);
    Result<JsonValue> parsed = ParseJson(w.TakeString());
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value().number, v);
  }
}

TEST(JsonTest, ParserRejectsMalformedInput) {
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{\"a\":1} trailing").ok());
  EXPECT_FALSE(ParseJson("{\"a\":}").ok());
  EXPECT_FALSE(ParseJson("[1,]").ok());
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
  EXPECT_FALSE(ParseJson("\"bad\\q\"").ok());
  EXPECT_FALSE(ParseJson("truthy").ok());
  // Nesting deeper than the parser's limit must fail, not crash.
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(ParseJson(deep).ok());
}

TEST(JsonTest, UnicodeEscapeDecodesToUtf8) {
  Result<JsonValue> r = ParseJson("\"\\u0041\\u00e9\\u20ac\"");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().string_value, "A\xc3\xa9\xe2\x82\xac");
}

// --- Tracing -----------------------------------------------------------------

TEST(TraceTest, SpanSelfCostsSumToWholeRegionDelta) {
  auto pager = MakeMemPager();
  std::vector<PageId> ids;
  for (int i = 0; i < 8; ++i) {
    Result<PageId> id = pager->Allocate();
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }

  Tracer tracer("query", pager.get(), nullptr);
  ASSERT_EQ(Tracer::Current(), &tracer);
  ASSERT_TRUE(pager->Fetch(ids[0]).ok());  // Root self: 1 fetch.
  {
    CDB_TRACE_SPAN("filter");
    ASSERT_TRUE(pager->Fetch(ids[1]).ok());
    ASSERT_TRUE(pager->Fetch(ids[2]).ok());
    {
      CDB_TRACE_SPAN("sweep");
      ASSERT_TRUE(pager->Fetch(ids[3]).ok());
    }
    ASSERT_TRUE(pager->Fetch(ids[4]).ok());  // Back in filter's self cost.
  }
  {
    CDB_TRACE_SPAN("refine");
    ASSERT_TRUE(pager->Fetch(ids[5]).ok());
  }
  PhaseCost overall;
  ProfileNode root = tracer.Finish(&overall);
  EXPECT_EQ(Tracer::Current(), nullptr);

  EXPECT_EQ(root.name, "query");
  EXPECT_EQ(root.self.index_fetches, 1u);
  const ProfileNode* filter = root.Find("filter");
  ASSERT_NE(filter, nullptr);
  EXPECT_EQ(filter->invocations, 1u);
  EXPECT_EQ(filter->self.index_fetches, 3u);  // ids[1], ids[2], ids[4].
  const ProfileNode* sweep = root.Find("sweep");
  ASSERT_NE(sweep, nullptr);
  EXPECT_EQ(sweep->self.index_fetches, 1u);
  EXPECT_EQ(filter->Total().index_fetches, 4u);  // Inclusive of sweep.
  const ProfileNode* refine = root.Find("refine");
  ASSERT_NE(refine, nullptr);
  EXPECT_EQ(refine->self.index_fetches, 1u);

  EXPECT_EQ(overall.index_fetches, 6u);
  EXPECT_TRUE(root.Total().IoEquals(overall));
  EXPECT_EQ(root.Find("absent"), nullptr);
}

TEST(TraceTest, SameNameSpansUnderOneParentMerge) {
  auto pager = MakeMemPager();
  Result<PageId> id = pager->Allocate();
  ASSERT_TRUE(id.ok());

  Tracer tracer("loop", pager.get(), nullptr);
  for (int i = 0; i < 5; ++i) {
    CDB_TRACE_SPAN("fetch-tuple");
    ASSERT_TRUE(pager->Fetch(id.value()).ok());
  }
  ProfileNode root = tracer.Finish();
  ASSERT_EQ(root.children.size(), 1u);
  EXPECT_EQ(root.children[0].invocations, 5u);
  EXPECT_EQ(root.children[0].self.index_fetches, 5u);
}

TEST(TraceTest, DistinctTuplePagerReportsOnTupleSlots) {
  auto index_pager = MakeMemPager();
  auto tuple_pager = MakeMemPager();
  Result<PageId> ip = index_pager->Allocate();
  Result<PageId> tp = tuple_pager->Allocate();
  ASSERT_TRUE(ip.ok());
  ASSERT_TRUE(tp.ok());

  Tracer tracer("q", index_pager.get(), tuple_pager.get());
  {
    CDB_TRACE_SPAN("filter");
    ASSERT_TRUE(index_pager->Fetch(ip.value()).ok());
  }
  {
    CDB_TRACE_SPAN("refine");
    ASSERT_TRUE(tuple_pager->Fetch(tp.value()).ok());
  }
  PhaseCost overall;
  ProfileNode root = tracer.Finish(&overall);
  EXPECT_EQ(root.Find("filter")->self.index_fetches, 1u);
  EXPECT_EQ(root.Find("filter")->self.tuple_fetches, 0u);
  EXPECT_EQ(root.Find("refine")->self.index_fetches, 0u);
  EXPECT_EQ(root.Find("refine")->self.tuple_fetches, 1u);
  EXPECT_EQ(overall.index_fetches, 1u);
  EXPECT_EQ(overall.tuple_fetches, 1u);
}

TEST(TraceTest, TuplePagerEqualToIndexPagerCollapses) {
  auto pager = MakeMemPager();
  Result<PageId> id = pager->Allocate();
  ASSERT_TRUE(id.ok());
  Tracer tracer("q", pager.get(), pager.get());
  {
    CDB_TRACE_SPAN("refine");
    ASSERT_TRUE(pager->Fetch(id.value()).ok());
  }
  PhaseCost overall;
  tracer.Finish(&overall);
  // All cost lands on the index slots; the tuple slots stay zero instead of
  // double-counting the shared pager.
  EXPECT_EQ(overall.index_fetches, 1u);
  EXPECT_EQ(overall.tuple_fetches, 0u);
}

TEST(TraceTest, TracersNestAndRestoreThePreviousAmbient) {
  auto pager = MakeMemPager();
  ASSERT_EQ(Tracer::Current(), nullptr);
  Tracer outer("outer", pager.get(), nullptr);
  EXPECT_EQ(Tracer::Current(), &outer);
  {
    Tracer inner("inner", pager.get(), nullptr);
    EXPECT_EQ(Tracer::Current(), &inner);
    inner.Finish();
    EXPECT_EQ(Tracer::Current(), &outer);
  }
  outer.Finish();
  EXPECT_EQ(Tracer::Current(), nullptr);
}

TEST(TraceTest, SpansAreNoopsWithoutAnAmbientTracer) {
  ASSERT_EQ(Tracer::Current(), nullptr);
  CDB_TRACE_SPAN("orphan");  // Must not crash or install anything.
  EXPECT_EQ(Tracer::Current(), nullptr);
}

TEST(TraceTest, ExplainProfileJsonRoundTrips) {
  auto pager = MakeMemPager();
  Result<PageId> id = pager->Allocate();
  ASSERT_TRUE(id.ok());
  Tracer tracer("query", pager.get(), nullptr);
  {
    CDB_TRACE_SPAN("filter");
    ASSERT_TRUE(pager->Fetch(id.value()).ok());
  }
  ExplainProfile profile;
  FinishQueryTrace(&tracer, &profile);
  ASSERT_TRUE(profile.SumsBalance());

  Result<JsonValue> doc = ParseJson(profile.ToJson());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const JsonValue* totals = doc.value().Find("totals");
  ASSERT_NE(totals, nullptr);
  EXPECT_DOUBLE_EQ(totals->Find("index_fetches")->number, 1.0);
  const JsonValue* root = doc.value().Find("root");
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->Find("name")->string_value, "query");
  ASSERT_EQ(root->Find("children")->items.size(), 1u);
  EXPECT_EQ(root->Find("children")->items[0].Find("name")->string_value,
            "filter");
  // The human dump mentions every phase.
  std::string text = profile.ToString();
  EXPECT_NE(text.find("filter"), std::string::npos) << text;
}

// --- Fault path (ISSUE satellite: no leaked pins, balanced span tree) --------

TEST(FaultPathTest, InjectedReadFailureLeavesNoPinsAndNoAmbientTracer) {
  PagerOptions opts;
  // Relation pager sits on a fault-injecting file; the index pager is clean.
  auto fault_owner =
      std::make_unique<FaultInjectionFile>(std::make_unique<MemFile>(opts.page_size));
  FaultInjectionFile* fault = fault_owner.get();
  std::unique_ptr<Pager> rel_pager;
  ASSERT_TRUE(Pager::Open(std::move(fault_owner), opts, &rel_pager).ok());
  std::unique_ptr<Pager> idx_pager;
  ASSERT_TRUE(
      Pager::Open(std::make_unique<MemFile>(opts.page_size), opts, &idx_pager)
          .ok());

  std::unique_ptr<Relation> relation;
  ASSERT_TRUE(Relation::Open(rel_pager.get(), kInvalidPageId, &relation).ok());
  Rng rng(20260807);
  WorkloadOptions wopts;
  for (int i = 0; i < 48; ++i) {
    Result<TupleId> id = relation->Insert(RandomBoundedTuple(&rng, wopts));
    ASSERT_TRUE(id.ok());
  }
  std::unique_ptr<DualIndex> dual;
  ASSERT_TRUE(DualIndex::Build(idx_pager.get(), relation.get(),
                               SlopeSet::UniformInAngle(3, -0.8, 0.8),
                               DualIndexOptions(), &dual)
                  .ok());

  // A T2 query off the slope set: approximate sweep + refinement over the
  // relation. First run fault-free to prove refinement physically reads.
  HalfPlaneQuery q(0.31, 0.0, Cmp::kGE);
  ASSERT_TRUE(idx_pager->DropCache().ok());
  ASSERT_TRUE(rel_pager->DropCache().ok());
  QueryStats clean_stats;
  Result<std::vector<TupleId>> clean =
      dual->Select(SelectionType::kExist, q, QueryMethod::kT2, &clean_stats);
  ASSERT_TRUE(clean.ok());
  ASSERT_GT(clean_stats.tuple_page_fetches, 0u)
      << "query must reach refinement for the fault to be exercised";

  // Same query, cold cache, every further relation read fails.
  ASSERT_TRUE(idx_pager->DropCache().ok());
  ASSERT_TRUE(rel_pager->DropCache().ok());
  fault->FailAfter(0);
  QueryStats stats;
  ExplainProfile profile;
  Result<std::vector<TupleId>> r = dual->Select(SelectionType::kExist, q,
                                                QueryMethod::kT2, &stats,
                                                &profile);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("injected fault"), std::string::npos)
      << r.status().ToString();
  EXPECT_GE(fault->injected_failures(), 1u);

  // The error unwound through open spans: no pinned frames leaked, the
  // ambient tracer is gone, and the partial profile still balances.
  EXPECT_EQ(rel_pager->pinned_frame_count(), 0u);
  EXPECT_EQ(idx_pager->pinned_frame_count(), 0u);
  EXPECT_EQ(Tracer::Current(), nullptr);
  EXPECT_TRUE(profile.SumsBalance()) << profile.ToString();

  // Clearing the fault restores full service with identical results.
  fault->ClearFault();
  ASSERT_TRUE(idx_pager->DropCache().ok());
  ASSERT_TRUE(rel_pager->DropCache().ok());
  Result<std::vector<TupleId>> retry =
      dual->Select(SelectionType::kExist, q, QueryMethod::kT2);
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(retry.value(), clean.value());
  Result<std::vector<TupleId>> naive =
      NaiveSelect(*relation, SelectionType::kExist, q);
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ(retry.value(), naive.value());
}


// --- Concurrency (ISSUE 3): the registry is shared by executor workers ------

TEST(MetricsConcurrencyTest, ConcurrentIncrementsAreExact) {
  constexpr size_t kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  MetricsRegistry reg(/*enabled=*/true);
  Counter* c = reg.counter("concurrent.total");
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([c] {
      for (uint64_t i = 0; i < kPerThread; ++i) c->Increment();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c->value(), kThreads * kPerThread);
}

TEST(MetricsConcurrencyTest, ConcurrentHistogramObservationsAreExact) {
  constexpr size_t kThreads = 8;
  constexpr uint64_t kPerThread = 5000;
  MetricsRegistry reg(/*enabled=*/true);
  LatencyRecorder* h = reg.histogram("concurrent.h");
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([h, t] {
      // Thread t records a constant landing in bucket t % 3 (1024, 1217
      // and 1448 ns are the first three inclusive bounds), so per-bucket
      // totals are predictable.
      const uint64_t v = 1000 + 200 * (t % 3);
      for (uint64_t i = 0; i < kPerThread; ++i) h->RecordNanos(v);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(h->count(), kThreads * kPerThread);
  // 8 threads over 3 buckets: t % 3 == 0 for t in {0,3,6} -> 3 threads,
  // == 1 for {1,4,7} -> 3 threads, == 2 for {2,5} -> 2 threads.
  EXPECT_EQ(h->bucket_count(0), 3 * kPerThread);
  EXPECT_EQ(h->bucket_count(1), 3 * kPerThread);
  EXPECT_EQ(h->bucket_count(2), 2 * kPerThread);
  // The integer nanosecond sum loses nothing either.
  EXPECT_EQ(h->sum_ns(), kPerThread * (3 * 1000 + 3 * 1200 + 2 * 1400));
}

TEST(MetricsConcurrencyTest, ConcurrentRegistrationYieldsOneStableHandle) {
  constexpr size_t kThreads = 8;
  MetricsRegistry reg(/*enabled=*/true);
  std::vector<Counter*> handles(kThreads);
  std::vector<Gauge*> gauges(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Everyone races to register the same names and then uses them.
      handles[t] = reg.counter("raced.counter");
      gauges[t] = reg.gauge("raced.gauge");
      handles[t]->Increment();
    });
  }
  for (auto& th : threads) th.join();
  for (size_t t = 1; t < kThreads; ++t) {
    EXPECT_EQ(handles[t], handles[0]);
    EXPECT_EQ(gauges[t], gauges[0]);
  }
  EXPECT_EQ(handles[0]->value(), kThreads);
}

}  // namespace
}  // namespace obs
}  // namespace cdb
