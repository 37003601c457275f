// Write-path pipeline tracing, stall attribution, and the dump-on-fault
// flight recorder (ISSUE 10 tentpole).
//
// The ManualClock tests pin every stage recorder exactly: with submits at
// known times and the clock frozen while the writer runs, admission must
// equal (writer wake - submit) per append and every other stage must be
// zero, so counts and sums are asserted to the nanosecond — and the
// telescoping invariant (the five stages partition Submit -> visibility)
// is re-proven per sampled group via IngestGroupProfile::Balances() and
// through the ExplainProfile/Chrome-trace export. The chaos sweep arms a
// transient write fault at *every* physical write index of a grouped
// ingest and asserts each poisoned lane leaves a parseable cdb-flight/v1
// dump containing the lane_poisoned event (runs under `-L chaos`/ASan).

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "exec/ingest_queue.h"
#include "obs/event_log.h"
#include "obs/export.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/pipeline.h"
#include "pager_test_util.h"
#include "storage/fault_file.h"
#include "storage/file.h"
#include "workload/generator.h"

namespace cdb {
namespace {

using exec::IngestHandle;
using exec::IngestQueue;
using exec::IngestQueueOptions;
using exec::IngestQueueStats;
using obs::EventLog;
using obs::EventType;
using obs::IngestGroupProfile;
using obs::IngestPipelineRecorders;
using obs::IngestStage;
using FaultPlan = FaultInjectionFile::FaultPlan;

constexpr uint64_t kSeed = 20260810;

std::unique_ptr<Pager> MakePager(std::unique_ptr<BlockFile> file,
                                 std::unique_ptr<BlockFile> journal = nullptr) {
  PagerOptions opts;
  opts.page_size = 1024;
  opts.cache_frames = 64;
  std::unique_ptr<Pager> pager;
  if (journal != nullptr) {
    EXPECT_TRUE(
        Pager::Open(std::move(file), std::move(journal), opts, &pager).ok());
  } else {
    EXPECT_TRUE(Pager::Open(std::move(file), opts, &pager).ok());
  }
  return pager;
}

struct LaneFixture {
  std::unique_ptr<Pager> pager;
  std::unique_ptr<Relation> relation;
  Rng rng{kSeed};
  WorkloadOptions wopts;

  LaneFixture() {
    pager = MakePager(std::make_unique<MemFile>(1024),
                      std::make_unique<MemFile>(Pager::JournalBlockSize(1024)));
    EXPECT_TRUE(Relation::Open(pager.get(), kInvalidPageId, &relation).ok());
    EXPECT_TRUE(pager->Flush().ok());
  }

  ~LaneFixture() { ExpectNoPinnedFrames(*pager); }

  GeneralizedTuple NextTuple() { return RandomBoundedTuple(&rng, wopts); }
};

std::string ReadFileOrDie(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  EXPECT_NE(f, nullptr) << "missing file " << path;
  std::string contents;
  if (f != nullptr) {
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      contents.append(buf, n);
    }
    std::fclose(f);
  }
  return contents;
}

// Counts events of `type` in a parsed cdb-flight/v1 document.
size_t CountEvents(const obs::JsonValue& doc, std::string_view type_name) {
  const obs::JsonValue* events = doc.Find("events");
  if (events == nullptr || !events->is_array()) return 0;
  size_t n = 0;
  for (const obs::JsonValue& e : events->items) {
    const obs::JsonValue* t = e.Find("type");
    if (t != nullptr && t->string_value == type_name) ++n;
  }
  return n;
}

// Submits at staggered ManualClock times, then runs the writer with the
// clock frozen at T: per append i, admission == T - submit_i exactly and
// every downstream stage is zero-width, so the recorder digests are
// asserted to the nanosecond.
TEST(IngestPipelineTest, StageAttributionIsExactOnManualClock) {
  LaneFixture fx;
  ManualClock clock;
  IngestPipelineRecorders pipeline(/*sample_every=*/1, /*sample_seed=*/kSeed);
  IngestQueueOptions opts;
  opts.max_group_size = 4;
  opts.clock = &clock;
  opts.pipeline = &pipeline;
  IngestQueue queue(fx.relation.get(), nullptr, fx.pager.get(), nullptr, opts);

  // Submits at t = 0, 100, 200, 300; the writer wakes at T = 1000.
  constexpr uint64_t kAppends = 4;
  std::vector<IngestHandle> handles;
  for (uint64_t i = 0; i < kAppends; ++i) {
    clock.SetNanos(i * 100);
    Result<IngestHandle> h = queue.Submit(fx.NextTuple());
    ASSERT_TRUE(h.ok()) << h.status().ToString();
    handles.push_back(h.value());
  }
  clock.SetNanos(1000);
  queue.Close();
  ASSERT_TRUE(queue.RunWriter().ok());
  for (IngestHandle& h : handles) ASSERT_TRUE(h.Wait().ok());

  // admission_i = 1000 - 100*i; everything downstream happened at the
  // frozen instant T, so group_wait/apply/fsync/publish are all zero and
  // visibility_i == admission_i.
  const uint64_t expected_sum = 1000 + 900 + 800 + 700;
  const obs::LatencyRecorder& admission = pipeline.stage(IngestStage::kAdmission);
  EXPECT_EQ(admission.count(), kAppends);
  EXPECT_EQ(admission.sum_ns(), expected_sum);
  EXPECT_EQ(admission.max_ns(), 1000u);
  for (IngestStage s : {IngestStage::kGroupWait, IngestStage::kApply,
                        IngestStage::kFsync, IngestStage::kPublish}) {
    EXPECT_EQ(pipeline.stage(s).count(), kAppends)
        << obs::IngestStageName(s);
    EXPECT_EQ(pipeline.stage(s).sum_ns(), 0u) << obs::IngestStageName(s);
  }
  EXPECT_EQ(pipeline.visibility().count(), kAppends);
  EXPECT_EQ(pipeline.visibility().sum_ns(), expected_sum);

  // sample_every=1: the single full group was sampled and balances.
  EXPECT_EQ(pipeline.sampled_groups(), 1u);
  EXPECT_EQ(pipeline.unbalanced_groups(), 0u);
  const std::vector<IngestGroupProfile> profiles = pipeline.SampledProfiles();
  ASSERT_EQ(profiles.size(), 1u);
  EXPECT_EQ(profiles[0].appends, kAppends);
  EXPECT_EQ(profiles[0].visibility_ns, expected_sum);
  EXPECT_TRUE(profiles[0].Balances());
}

// Stages that advance the clock mid-commit still telescope: a second
// thread steps the clock while the writer commits, and whatever landed in
// each stage, the per-group sums must reproduce visibility exactly.
TEST(IngestPipelineTest, StageSumsBalanceWhenClockAdvancesMidCommit) {
  LaneFixture fx;
  ManualClock clock;
  IngestPipelineRecorders pipeline(/*sample_every=*/1, /*sample_seed=*/kSeed);
  IngestQueueOptions opts;
  opts.max_group_size = 8;
  opts.clock = &clock;
  opts.pipeline = &pipeline;
  IngestQueue queue(fx.relation.get(), nullptr, fx.pager.get(), nullptr, opts);

  constexpr size_t kAppends = 48;
  std::thread ticker([&] {
    for (int i = 0; i < 5000; ++i) clock.AdvanceNanos(13);
  });
  std::vector<IngestHandle> handles;
  for (size_t i = 0; i < kAppends; ++i) {
    Result<IngestHandle> h = queue.Submit(fx.NextTuple());
    ASSERT_TRUE(h.ok());
    handles.push_back(h.value());
  }
  std::thread writer([&] { EXPECT_TRUE(queue.RunWriter().ok()); });
  for (IngestHandle& h : handles) ASSERT_TRUE(h.Wait().ok());
  queue.Close();
  writer.join();
  ticker.join();

  const std::vector<IngestGroupProfile> profiles = pipeline.SampledProfiles();
  EXPECT_EQ(profiles.size(), pipeline.sampled_groups());
  ASSERT_GT(profiles.size(), 0u);
  uint64_t appends_sampled = 0;
  for (const IngestGroupProfile& p : profiles) {
    EXPECT_TRUE(p.Balances()) << "group " << p.group_seq;
    appends_sampled += p.appends;
    // The trace rendering preserves the balance as an ExplainProfile.
    EXPECT_TRUE(p.ToExplainProfile().SumsBalance());
  }
  EXPECT_EQ(appends_sampled, kAppends);
  EXPECT_EQ(pipeline.unbalanced_groups(), 0u);
  EXPECT_EQ(pipeline.visibility().count(), kAppends);

  // The Chrome-trace export of the sampled groups is parseable JSON.
  Result<obs::JsonValue> trace = obs::ParseJson(pipeline.TraceJson());
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  const obs::JsonValue* events = trace.value().Find("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_GE(events->items.size(), profiles.size());
}

// The commit-trigger ledger: a full group, a greedy drain, and a deadline
// expiry each land in their own counter, and the three sum to
// groups_committed.
TEST(IngestPipelineTest, CommitTriggerLedgerClassifiesEveryGroup) {
  // Full + drain: 6 appends into groups of 4 = one full group, one drain.
  {
    LaneFixture fx;
    ManualClock clock;
    IngestPipelineRecorders pipeline(1, kSeed);
    EventLog log(64, &clock);
    IngestQueueOptions opts;
    opts.max_group_size = 4;
    opts.clock = &clock;
    opts.pipeline = &pipeline;
    opts.event_log = &log;
    IngestQueue queue(fx.relation.get(), nullptr, fx.pager.get(), nullptr,
                      opts);
    std::vector<IngestHandle> handles;
    for (size_t i = 0; i < 6; ++i) {
      Result<IngestHandle> h = queue.Submit(fx.NextTuple());
      ASSERT_TRUE(h.ok());
      handles.push_back(h.value());
    }
    queue.Close();
    ASSERT_TRUE(queue.RunWriter().ok());
    for (IngestHandle& h : handles) ASSERT_TRUE(h.Wait().ok());

    const IngestQueueStats stats = queue.stats();
    EXPECT_EQ(stats.groups_committed, 2u);
    EXPECT_EQ(stats.commits_full, 1u);
    EXPECT_EQ(stats.commits_deadline, 0u);
    EXPECT_EQ(stats.commits_drain, 1u);
    EXPECT_EQ(stats.commits_full + stats.commits_deadline +
                  stats.commits_drain,
              stats.groups_committed);

    // The flight recorder saw both commits with their trigger payloads.
    Result<obs::JsonValue> doc = obs::ParseJson(log.ToJson());
    ASSERT_TRUE(doc.ok());
    EXPECT_EQ(CountEvents(doc.value(), "group_committed"), 2u);
    EXPECT_EQ(CountEvents(doc.value(), "submit"), 6u);
    EXPECT_EQ(CountEvents(doc.value(), "lane_closed"), 1u);
  }
  // Deadline: a partial group held open by commit_wait_ns commits when the
  // ManualClock passes the deadline.
  {
    LaneFixture fx;
    ManualClock clock;
    IngestQueueOptions opts;
    opts.max_group_size = 4;
    opts.commit_wait_ns = 1000;
    opts.clock = &clock;
    IngestPipelineRecorders pipeline(1, kSeed);
    opts.pipeline = &pipeline;
    IngestQueue queue(fx.relation.get(), nullptr, fx.pager.get(), nullptr,
                      opts);
    std::thread writer([&] { EXPECT_TRUE(queue.RunWriter().ok()); });
    Result<IngestHandle> h = queue.Submit(fx.NextTuple());
    ASSERT_TRUE(h.ok());
    // Step the clock until the writer's window (opened at whatever instant
    // it sampled) has provably expired; each step exceeds the whole wait.
    while (!h.value().done()) {
      clock.AdvanceNanos(2000);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_TRUE(h.value().Wait().ok());
    queue.Close();
    writer.join();

    const IngestQueueStats stats = queue.stats();
    EXPECT_EQ(stats.groups_committed, 1u);
    EXPECT_EQ(stats.commits_deadline, 1u);
    EXPECT_EQ(stats.commits_full, 0u);
    EXPECT_EQ(stats.commits_drain, 0u);
  }
}

// Time-weighted depth: submits and drains at pinned ManualClock instants
// make the depth integral a small exact sum.
TEST(IngestPipelineTest, DepthIntegralAndHighWaterAreExact) {
  LaneFixture fx;
  ManualClock clock;
  IngestPipelineRecorders pipeline(0, 0);
  IngestQueueOptions opts;
  opts.max_group_size = 8;
  opts.clock = &clock;
  opts.pipeline = &pipeline;
  IngestQueue queue(fx.relation.get(), nullptr, fx.pager.get(), nullptr, opts);

  // depth 0 -> 1 at t=0, 1 -> 2 at t=100, drained to 0 at t=150:
  // integral = 1*100 + 2*50 = 200 depth-ns; high water = 2.
  ASSERT_TRUE(queue.Submit(fx.NextTuple()).ok());
  clock.SetNanos(100);
  ASSERT_TRUE(queue.Submit(fx.NextTuple()).ok());
  clock.SetNanos(150);
  queue.Close();
  ASSERT_TRUE(queue.RunWriter().ok());

  const IngestQueueStats stats = queue.stats();
  EXPECT_EQ(stats.depth_time_ns, 200u);
  EXPECT_EQ(stats.depth_high_water, 2u);
}

// Satellite: lane health is scrapeable — ExportMetrics publishes the
// stats struct as gauges and the pipeline digests land beside them in the
// Prometheus exposition.
TEST(IngestPipelineTest, ExportMetricsPublishesLaneAndStageGauges) {
  LaneFixture fx;
  ManualClock clock;
  IngestPipelineRecorders pipeline(1, kSeed);
  IngestQueueOptions opts;
  opts.max_group_size = 4;
  opts.clock = &clock;
  opts.pipeline = &pipeline;
  IngestQueue queue(fx.relation.get(), nullptr, fx.pager.get(), nullptr, opts);

  std::vector<IngestHandle> handles;
  for (size_t i = 0; i < 8; ++i) {
    Result<IngestHandle> h = queue.Submit(fx.NextTuple());
    ASSERT_TRUE(h.ok());
    handles.push_back(h.value());
  }
  queue.Close();
  ASSERT_TRUE(queue.RunWriter().ok());
  for (IngestHandle& h : handles) ASSERT_TRUE(h.Wait().ok());

  obs::MetricsRegistry registry(/*enabled=*/true);
  queue.ExportMetrics(&registry, "ingest.lane");
  pipeline.ExportMetrics(&registry, "ingest");

  const obs::MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.gauges.at("ingest.lane.submitted"), 8);
  EXPECT_EQ(snap.gauges.at("ingest.lane.groups_committed"), 2);
  EXPECT_EQ(snap.gauges.at("ingest.lane.appends_committed"), 8);
  EXPECT_EQ(snap.gauges.at("ingest.lane.commits_full"), 2);
  EXPECT_EQ(snap.gauges.at("ingest.lane.depth_high_water"), 8);
  EXPECT_EQ(snap.gauges.at("ingest.lane.depth"), 0);
  EXPECT_EQ(snap.gauges.at("ingest.lane.poisoned"), 0);
  EXPECT_EQ(snap.gauges.at("ingest.lane.closed"), 1);
  EXPECT_EQ(snap.histograms.at("ingest.stage.admission.latency").count, 8u);
  EXPECT_EQ(snap.histograms.at("ingest.stage.publish.latency").count, 8u);
  EXPECT_EQ(snap.histograms.at("ingest.visibility.latency").count, 8u);
  EXPECT_EQ(snap.gauges.at("ingest.sampled_groups"), 2);
  EXPECT_EQ(snap.gauges.at("ingest.unbalanced_groups"), 0);

  // Exporting again republishes the same digests: no append counts twice.
  pipeline.ExportMetrics(&registry, "ingest");
  const obs::MetricsSnapshot again = registry.Snapshot();
  for (const auto& [name, h] : snap.histograms) {
    EXPECT_EQ(again.histograms.at(name).count, h.count) << name;
    EXPECT_EQ(again.histograms.at(name).counts, h.counts) << name;
    EXPECT_EQ(again.histograms.at(name).sum, h.sum) << name;
  }

  const std::string exposition = obs::ToPrometheus(snap);
  EXPECT_NE(exposition.find("ingest_lane_depth_high_water"),
            std::string::npos);
  EXPECT_NE(exposition.find("ingest_visibility_latency_count"),
            std::string::npos);
}

// Poisoning dumps the black box: a transient journal fault fails the
// group, poisons the lane, and leaves a parseable cdb-flight/v1 dump
// containing the lane_poisoned event.
TEST(IngestPipelineTest, LanePoisonWritesParseableFlightDump) {
  const std::string dump_path =
      ::testing::TempDir() + "cdb_flight_poison.json";
  std::remove(dump_path.c_str());

  auto plan = std::make_shared<FaultPlan>();
  auto data_fault = std::make_unique<FaultInjectionFile>(
      std::make_unique<MemFile>(1024), plan);
  auto jnl_fault = std::make_unique<FaultInjectionFile>(
      std::make_unique<MemFile>(Pager::JournalBlockSize(1024)), plan);
  std::unique_ptr<Pager> pager =
      MakePager(std::move(data_fault), std::move(jnl_fault));
  std::unique_ptr<Relation> relation;
  ASSERT_TRUE(Relation::Open(pager.get(), kInvalidPageId, &relation).ok());
  ASSERT_TRUE(pager->Flush().ok());

  Rng rng(kSeed + 1);
  WorkloadOptions wopts;
  ManualClock clock;
  EventLog log(128, &clock);
  IngestQueueOptions opts;
  opts.max_group_size = 3;
  opts.clock = &clock;
  opts.event_log = &log;
  opts.flight_dump_path = dump_path;
  IngestQueue queue(relation.get(), nullptr, pager.get(), nullptr, opts);

  std::vector<IngestHandle> handles;
  for (size_t i = 0; i < 5; ++i) {
    Result<IngestHandle> h = queue.Submit(RandomBoundedTuple(&rng, wopts));
    ASSERT_TRUE(h.ok());
    handles.push_back(h.value());
  }
  queue.Close();
  plan->ArmTransientWrites(0, 1);
  Status st = queue.RunWriter();
  plan->DisarmTransient();
  ASSERT_FALSE(st.ok());
  for (IngestHandle& h : handles) EXPECT_FALSE(h.Wait().ok());

  Result<obs::JsonValue> doc = obs::ParseJson(ReadFileOrDie(dump_path));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc.value().Find("schema")->string_value, "cdb-flight/v1");
  EXPECT_EQ(CountEvents(doc.value(), "lane_poisoned"), 1u);
  EXPECT_EQ(CountEvents(doc.value(), "group_failed"), 1u);
  EXPECT_EQ(CountEvents(doc.value(), "submit"), 5u);
  // The dump carries the whole pipeline history leading to the fault.
  EXPECT_GE(CountEvents(doc.value(), "group_open"), 1u);
  std::remove(dump_path.c_str());
}

// Chaos sweep: arm a transient write fault at every physical write index
// of a grouped ingest; every run that poisons the lane must leave a
// parseable flight dump whose last events explain the poisoning.
TEST(IngestPipelineTest, ChaosSweepProducesParseableDumpAtEveryFaultIndex) {
  Rng rng(kSeed + 2);
  WorkloadOptions wopts;
  constexpr size_t kAppends = 9;
  constexpr size_t kGroup = 3;
  std::vector<GeneralizedTuple> tuples;
  for (size_t i = 0; i < kAppends; ++i) {
    tuples.push_back(RandomBoundedTuple(&rng, wopts));
  }

  // One run of the workload; the fault (when armed) counts writes from
  // *after* the lane's setup, so fault index 0 is the first write the
  // grouped ingest itself issues.
  const std::string dump_path =
      ::testing::TempDir() + "cdb_flight_sweep.json";
  constexpr uint64_t kNoFault = ~uint64_t{0};
  auto run_once = [&](uint64_t fault_at, uint64_t* writes_seen,
                      Status* writer_status) {
    auto plan = std::make_shared<FaultPlan>();
    auto data_fault = std::make_unique<FaultInjectionFile>(
        std::make_unique<MemFile>(1024), plan);
    auto jnl_fault = std::make_unique<FaultInjectionFile>(
        std::make_unique<MemFile>(Pager::JournalBlockSize(1024)), plan);
    FaultInjectionFile* data_raw = data_fault.get();
    FaultInjectionFile* jnl_raw = jnl_fault.get();
    std::unique_ptr<Pager> pager =
        MakePager(std::move(data_fault), std::move(jnl_fault));
    std::unique_ptr<Relation> relation;
    ASSERT_TRUE(Relation::Open(pager.get(), kInvalidPageId, &relation).ok());
    ASSERT_TRUE(pager->Flush().ok());
    const uint64_t base_writes =
        data_raw->writes_seen() + jnl_raw->writes_seen();
    if (fault_at != kNoFault) {
      plan->ArmTransientWrites(fault_at, 1);
    }

    ManualClock clock;
    EventLog log(256, &clock);
    IngestQueueOptions opts;
    opts.max_group_size = kGroup;
    opts.clock = &clock;
    opts.event_log = &log;
    opts.flight_dump_path = dump_path;
    IngestQueue queue(relation.get(), nullptr, pager.get(), nullptr, opts);
    for (const GeneralizedTuple& t : tuples) {
      Result<IngestHandle> h = queue.Submit(t);
      if (!h.ok()) break;  // Poisoned mid-submit loop: fine, sweep goes on.
    }
    queue.Close();
    *writer_status = queue.RunWriter();
    plan->DisarmTransient();
    *writes_seen =
        data_raw->writes_seen() + jnl_raw->writes_seen() - base_writes;
  };

  // Dry run: count the ingest's physical writes with no fault armed.
  uint64_t total_writes = 0;
  {
    Status st;
    run_once(kNoFault, &total_writes, &st);
    ASSERT_TRUE(st.ok()) << st.ToString();
    ASSERT_GT(total_writes, 0u);
  }

  size_t poisoned_runs = 0;
  for (uint64_t fault_at = 0; fault_at < total_writes; ++fault_at) {
    SCOPED_TRACE("fault_at=" + std::to_string(fault_at));
    std::remove(dump_path.c_str());
    uint64_t writes = 0;
    Status st;
    run_once(fault_at, &writes, &st);
    ASSERT_FALSE(st.ok()) << "write " << fault_at << " never happened";
    EXPECT_TRUE(st.IsUnavailable()) << st.ToString();
    ++poisoned_runs;

    // The black box must exist, parse, and name the poisoning.
    Result<obs::JsonValue> doc = obs::ParseJson(ReadFileOrDie(dump_path));
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();
    const obs::JsonValue& flight = doc.value();
    ASSERT_NE(flight.Find("schema"), nullptr);
    EXPECT_EQ(flight.Find("schema")->string_value, "cdb-flight/v1");
    EXPECT_EQ(CountEvents(flight, "lane_poisoned"), 1u);
    EXPECT_EQ(CountEvents(flight, "group_failed"), 1u);
  }
  EXPECT_EQ(poisoned_runs, total_writes);
  std::remove(dump_path.c_str());
}

}  // namespace
}  // namespace cdb
