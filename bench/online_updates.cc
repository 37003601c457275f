// E19 — online updates (PR 4): what incremental handicap maintenance buys.
//
// Phase A (serial): build N0 tuples, insert ΔN more through the index, then
// measure T2 page accesses three ways over the same calibrated query set —
//   stale:        ordinary handicaps, no rebuild (splits copied slots,
//                 every fold was conservative),
//   incremental:  augmented trees maintaining exact per-leaf values on
//                 every insert,
//   rebuilt:      ordinary handicaps after a full RebuildHandicaps().
// Results must be identical across all three and equal to the naive
// evaluator; the unrefined candidate sets are proven supersets. The
// validator (scripts/check_bench_json.py) enforces the headline claim:
// incremental stays within 1.2x of freshly rebuilt and strictly beats
// stale.
//
// Phase B (concurrent): sustained query throughput while a single writer
// ingests and publishes through the same index
// (exec::QueryExecutor::RunBatch with a writer); zero failed queries
// required.
// ISSUE 5 instruments the publish pipeline: every writer-side publish
// (Flush + PublishAppends + Flush) is timed into a LatencyRecorder and
// reported as percentiles ("publish" row), alongside the pager's SWMR
// publish/contention counters and the full ExportPagerMetrics gauge set
// for the dual-index pager.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "exec/ingest_queue.h"
#include "exec/query_executor.h"
#include "harness.h"
#include "obs/event_log.h"
#include "obs/json.h"
#include "obs/latency.h"
#include "obs/metrics.h"
#include "obs/pipeline.h"

namespace cdb {
namespace bench {
namespace {

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

bool InsertEverywhere(const GeneralizedTuple& t,
                      std::vector<Dataset*> datasets) {
  for (Dataset* ds : datasets) {
    Result<TupleId> id = ds->relation->Insert(t);
    if (!id.ok() || !ds->dual->Insert(id.value(), t).ok()) {
      std::fprintf(stderr, "FATAL: online insert failed\n");
      return false;
    }
  }
  return true;
}

}  // namespace
}  // namespace bench
}  // namespace cdb

int main(int argc, char** argv) {
  using namespace cdb;
  using namespace cdb::bench;

  bool smoke = false;  // --smoke: CI-sized run, same shape and same rules.
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      break;
    }
  }
  BenchReporter reporter("online_updates", &argc, argv);
  std::string trace_path;  // --trace PATH: phase-D pipeline Chrome trace.
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    }
    if (std::strncmp(argv[i], "--trace=", 8) == 0) trace_path = argv[i] + 8;
  }

  const int kN0 = smoke ? 800 : 3000;
  const int kDelta = smoke ? 250 : 1000;
  const size_t kK = 3;
  std::printf(
      "=== Online updates: incremental vs stale vs rebuilt handicaps "
      "(N0=%d, +%d inserts, k=%zu, sel 10-15%%) ===\n",
      kN0, kDelta, kK);

  // Three structurally independent copies of the same data: the ordinary
  // index (measured stale, then rebuilt), the incremental index, and an
  // unrefined incremental index for the superset proofs.
  DatasetConfig base;
  base.n = kN0;
  base.k = kK;
  base.build_rtree = false;
  DatasetConfig inc_cfg = base;
  inc_cfg.dual_options.incremental_handicaps = true;
  DatasetConfig raw_cfg = inc_cfg;
  raw_cfg.dual_options.refine = false;
  Dataset ord = BuildDataset(base);
  Dataset inc = BuildDataset(inc_cfg);
  Dataset raw = BuildDataset(raw_cfg);

  // One insert stream, applied identically everywhere.
  Rng irng(7117);
  WorkloadOptions w;
  for (int i = 0; i < kDelta; ++i) {
    if (!InsertEverywhere(RandomBoundedTuple(&irng, w), {&ord, &inc, &raw})) {
      return 1;
    }
  }
  const double ord_staleness =
      static_cast<double>(ord.dual->handicap_staleness());
  ord.dual->ExportStalenessMetrics();  // Degradation gauge -> artifact.

  Rng qrng(2468);
  std::vector<CalibratedQuery> qs =
      MakeQueries(*ord.relation, SelectionType::kExist, 4, 0.10, 0.15, &qrng);
  std::vector<CalibratedQuery> all_qs =
      MakeQueries(*ord.relation, SelectionType::kAll, 4, 0.10, 0.15, &qrng);
  qs.insert(qs.end(), all_qs.begin(), all_qs.end());

  // Correctness gate before any costs are reported: stale, incremental and
  // naive agree, and the unrefined candidates are supersets of the truth.
  std::vector<std::vector<TupleId>> truth;
  for (const CalibratedQuery& cq : qs) {
    Result<std::vector<TupleId>> naive =
        NaiveSelect(*inc.relation, cq.type, cq.query);
    if (!naive.ok()) return 1;
    Result<std::vector<TupleId>> from_ord =
        ord.dual->Select(cq.type, cq.query, QueryMethod::kT2);
    Result<std::vector<TupleId>> from_inc =
        inc.dual->Select(cq.type, cq.query, QueryMethod::kT2);
    Result<std::vector<TupleId>> cand =
        raw.dual->Select(cq.type, cq.query, QueryMethod::kT2);
    if (!from_ord.ok() || !from_inc.ok() || !cand.ok()) return 1;
    if (from_ord.value() != naive.value() ||
        from_inc.value() != naive.value()) {
      std::fprintf(stderr, "BUG: results diverge from the naive evaluator\n");
      return 1;
    }
    std::vector<TupleId> sorted = cand.value();
    std::sort(sorted.begin(), sorted.end());
    for (TupleId id : naive.value()) {
      if (!std::binary_search(sorted.begin(), sorted.end(), id)) {
        std::fprintf(stderr, "BUG: candidate set lost tuple %u\n", id);
        return 1;
      }
    }
    truth.push_back(std::move(naive.value()));
  }

  Measurement stale_m = MeasureDual(&ord, qs, QueryMethod::kT2);
  Measurement inc_m = MeasureDual(&inc, qs, QueryMethod::kT2);
  if (!ord.dual->RebuildHandicaps().ok()) return 1;
  Measurement reb_m = MeasureDual(&ord, qs, QueryMethod::kT2);
  for (size_t i = 0; i < qs.size(); ++i) {  // Rebuild changed no results.
    Result<std::vector<TupleId>> r =
        ord.dual->Select(qs[i].type, qs[i].query, QueryMethod::kT2);
    if (!r.ok() || r.value() != truth[i]) {
      std::fprintf(stderr, "BUG: results changed across rebuild\n");
      return 1;
    }
  }

  PrintTableHeader("T2 page accesses after the insert burst",
                   {"variant", "index-pages", "tuple-pages", "cands"});
  PrintTableRow({"stale", Fmt(stale_m.index_fetches),
                 Fmt(stale_m.tuple_fetches), Fmt(stale_m.candidates)});
  PrintTableRow({"incremental", Fmt(inc_m.index_fetches),
                 Fmt(inc_m.tuple_fetches), Fmt(inc_m.candidates)});
  PrintTableRow({"rebuilt", Fmt(reb_m.index_fetches),
                 Fmt(reb_m.tuple_fetches), Fmt(reb_m.candidates)});
  std::printf("ordinary-index staleness events: %.0f (incremental: %llu)\n",
              ord_staleness,
              static_cast<unsigned long long>(inc.dual->handicap_staleness()));

  BenchReporter::Params params = {{"n0", static_cast<double>(kN0)},
                                  {"inserted", static_cast<double>(kDelta)},
                                  {"k", static_cast<double>(kK)}};
  reporter.Add("stale", params, stale_m);
  reporter.Add("incremental", params, inc_m);
  reporter.Add("rebuilt", params, reb_m);
  reporter.AddValue("staleness", params, "ordinary_staleness", ord_staleness);
  reporter.AddValue("staleness", params, "incremental_staleness",
                    static_cast<double>(inc.dual->handicap_staleness()));

  // --- Phase B: sustained throughput under a live writer -----------------
  const size_t kThreads = 8;
  const size_t kIngest = smoke ? 150 : 500;
  const size_t kPublishEvery = 50;
  const int kQueries = smoke ? 64 : 128;

  std::vector<exec::BatchQuery> batch;
  {
    Rng brng(20260807);
    for (int i = 0; i < kQueries; ++i) {
      SelectionType type =
          i % 2 == 0 ? SelectionType::kExist : SelectionType::kAll;
      std::vector<CalibratedQuery> cq =
          MakeQueries(*inc.relation, type, 1, 0.05, 0.20, &brng);
      exec::BatchQuery q;
      q.type = cq[0].type;
      q.query = cq[0].query;
      q.method = QueryMethod::kT2;
      batch.push_back(q);
    }
  }
  std::vector<GeneralizedTuple> stream;
  for (size_t i = 0; i < kIngest; ++i) {
    stream.push_back(RandomBoundedTuple(&irng, w));
  }

  if (!inc.relation->BeginOnlineAppends(kIngest).ok()) return 1;
  size_t inserted = 0;
  obs::LatencyRecorder publish_lat;
  Clock* clock = DefaultClock();
  auto writer = [&]() -> Status {
    for (const GeneralizedTuple& t : stream) {
      Result<TupleId> id = inc.relation->Insert(t);
      if (!id.ok()) return id.status();
      CDB_RETURN_IF_ERROR(inc.dual->Insert(id.value(), t));
      ++inserted;
      if (inserted % kPublishEvery == 0) {
        // One publish = making this batch of inserts visible to readers:
        // relation flush, append snapshot swap, index flush (which drains
        // the read sessions — the drain is part of the cost).
        const uint64_t t0 = clock->NowNanos();
        CDB_RETURN_IF_ERROR(inc.rel_pager->Flush());
        inc.relation->PublishAppends();
        CDB_RETURN_IF_ERROR(inc.dual_pager->Flush());
        publish_lat.RecordNanos(clock->NowNanos() - t0);
      }
    }
    return Status::OK();
  };

  exec::QueryExecutor executor(kThreads);
  exec::BatchResult run;
  auto start = std::chrono::steady_clock::now();
  Status st = executor.RunBatch(inc.dual.get(), batch, {}, &run, writer);
  const double wall_ms = MillisSince(start);
  if (!st.ok()) {
    std::fprintf(stderr, "FATAL: ingest run failed: %s\n",
                 st.ToString().c_str());
    return 1;
  }
  size_t failed = 0;
  for (const exec::BatchItemResult& r : run.items) {
    if (!r.status.ok()) ++failed;
  }
  const double qps =
      wall_ms > 0 ? static_cast<double>(batch.size()) / (wall_ms / 1000.0)
                  : 0.0;

  // Post-run exactness: the index absorbed the whole stream.
  if (!inc.dual->CheckInvariants().ok()) return 1;
  for (const exec::BatchQuery& bq : batch) {
    Result<std::vector<TupleId>> serial =
        inc.dual->Select(bq.type, bq.query, QueryMethod::kT2);
    Result<std::vector<TupleId>> naive =
        NaiveSelect(*inc.relation, bq.type, bq.query);
    if (!serial.ok() || !naive.ok() || serial.value() != naive.value()) {
      std::fprintf(stderr, "BUG: post-ingest results diverge from naive\n");
      return 1;
    }
  }

  PrintTableHeader("Sustained serving with a concurrent writer",
                   {"threads", "queries", "inserted", "failed", "qps"});
  PrintTableRow({Fmt(static_cast<double>(kThreads), 0),
                 Fmt(static_cast<double>(batch.size()), 0),
                 Fmt(static_cast<double>(inserted), 0),
                 Fmt(static_cast<double>(failed), 0), Fmt(qps, 0)});

  BenchReporter::Params online_params = {
      {"threads", static_cast<double>(kThreads)}};
  reporter.AddValue("online", online_params, "qps", qps);
  reporter.AddValue("online", online_params, "wall_ms", wall_ms);
  reporter.AddValue("online", online_params, "queries",
                    static_cast<double>(batch.size()));
  reporter.AddValue("online", online_params, "inserted",
                    static_cast<double>(inserted));
  reporter.AddValue("online", online_params, "failed",
                    static_cast<double>(failed));

  // Publish-pipeline visibility (ISSUE 5): writer-side publish latency
  // percentiles plus the pager's own SWMR accounting (epochs includes the
  // final EndConcurrentReads publish, so epochs >= count).
  const obs::LatencySnapshot pub = publish_lat.Snapshot();
  const PagerConcurrencyStats cs = inc.dual_pager->concurrency_stats();
  std::printf(
      "publish latency: %llu publishes  p50 %.3f ms  p95 %.3f ms  p99 %.3f "
      "ms  max %.3f ms  (%llu epochs, %llu pages, %llu sessions drained)\n",
      static_cast<unsigned long long>(pub.count), pub.p50_ms, pub.p95_ms,
      pub.p99_ms, pub.max_ms,
      static_cast<unsigned long long>(cs.publish_epochs),
      static_cast<unsigned long long>(cs.publish_pages),
      static_cast<unsigned long long>(cs.publish_sessions_drained));
  reporter.AddValue("publish", online_params, "count",
                    static_cast<double>(pub.count));
  reporter.AddValue("publish", online_params, "p50_ms", pub.p50_ms);
  reporter.AddValue("publish", online_params, "p95_ms", pub.p95_ms);
  reporter.AddValue("publish", online_params, "p99_ms", pub.p99_ms);
  reporter.AddValue("publish", online_params, "max_ms", pub.max_ms);
  reporter.AddValue("publish", online_params, "epochs",
                    static_cast<double>(cs.publish_epochs));
  reporter.AddValue("publish", online_params, "pages",
                    static_cast<double>(cs.publish_pages));
  reporter.AddValue("publish", online_params, "sessions_drained",
                    static_cast<double>(cs.publish_sessions_drained));
  reporter.AddValue("publish", online_params, "drain_ms",
                    static_cast<double>(cs.publish_drain_ns) / 1e6);
  obs::ExportPagerMetrics(*inc.dual_pager, &obs::GlobalMetrics(),
                          "pager.dual");

  // --- Phase C: group-commit ingest throughput vs group size -------------
  //
  // ISSUE 9 tentpole measurement: the same append stream through
  // exec::IngestQueue lanes whose only difference is max_group_size. Every
  // group costs exactly one journal commit and one publish, so the
  // durability bill shrinks linearly with the group size and writer
  // throughput rises with it. Appends are pre-queued so greedy batching
  // drains full groups — the group size under test is exact, which keeps
  // the fsync accounting deterministic (bench_diff treats the throughput
  // as schedule-dependent but the per-group fsync bound as directional).
  {
    const size_t kAppends = smoke ? 512 : 2048;
    const size_t kGroupSizes[] = {1, 8, 64, 256};
    PrintTableHeader("Group-commit ingest (single writer, journaled pager)",
                     {"group", "appends", "groups", "fsyncs", "appends/s",
                      "pub-p99-ms"});
    for (size_t group_size : kGroupSizes) {
      PagerOptions popts;
      popts.page_size = 1024;
      popts.cache_frames = 256;
      std::unique_ptr<Pager> pager;
      if (!Pager::Open(
               std::make_unique<MemFile>(popts.page_size),
               std::make_unique<MemFile>(
                   Pager::JournalBlockSize(popts.page_size)),
               popts, &pager)
               .ok()) {
        return 1;
      }
      std::unique_ptr<Relation> relation;
      if (!Relation::Open(pager.get(), kInvalidPageId, &relation).ok() ||
          !pager->Flush().ok()) {
        return 1;
      }
      const uint64_t commits_before = pager->stats().journal_commits;

      // One deterministic stream per lane: only the grouping differs.
      Rng srng(9119);
      std::vector<GeneralizedTuple> lane_stream;
      for (size_t i = 0; i < kAppends; ++i) {
        lane_stream.push_back(RandomBoundedTuple(&srng, w));
      }
      obs::LatencyRecorder group_publish;
      exec::IngestQueueOptions qopts;
      qopts.queue_capacity = kAppends;
      qopts.max_group_size = group_size;
      qopts.publish_latency = &group_publish;
      exec::IngestQueue queue(relation.get(), /*index=*/nullptr, pager.get(),
                              /*idx_pager=*/nullptr, qopts);
      std::vector<exec::IngestHandle> handles;
      for (const GeneralizedTuple& t : lane_stream) {
        Result<exec::IngestHandle> h = queue.Submit(t);
        if (!h.ok()) {
          std::fprintf(stderr, "FATAL: ingest submit failed: %s\n",
                       h.status().ToString().c_str());
          return 1;
        }
        handles.push_back(h.value());
      }
      queue.Close();
      auto lane_start = std::chrono::steady_clock::now();
      Status lane_st = queue.RunWriter();
      const double lane_ms = MillisSince(lane_start);
      if (!lane_st.ok()) {
        std::fprintf(stderr, "FATAL: ingest writer failed: %s\n",
                     lane_st.ToString().c_str());
        return 1;
      }
      for (exec::IngestHandle& h : handles) {
        if (!h.Wait().ok()) {
          std::fprintf(stderr, "FATAL: append not acknowledged\n");
          return 1;
        }
      }

      // The durability claim, proven on the lane itself: every committed
      // group paid exactly one journal commit, so the lane's group count
      // agrees with the pager's transaction ledger.
      const exec::IngestQueueStats qstats = queue.stats();
      const uint64_t expected_groups =
          (kAppends + group_size - 1) / group_size;
      const uint64_t commits =
          pager->stats().journal_commits - commits_before;
      if (qstats.groups_committed != expected_groups ||
          qstats.appends_committed != kAppends ||
          commits != qstats.groups_committed) {
        std::fprintf(stderr,
                     "BUG: group %zu: %llu groups (%llu expected), %llu "
                     "journal commits\n",
                     group_size,
                     static_cast<unsigned long long>(qstats.groups_committed),
                     static_cast<unsigned long long>(expected_groups),
                     static_cast<unsigned long long>(commits));
        return 1;
      }
      if (relation->size() != kAppends) {
        std::fprintf(stderr, "BUG: lane lost appends\n");
        return 1;
      }

      const double appends_per_s =
          lane_ms > 0 ? static_cast<double>(kAppends) / (lane_ms / 1000.0)
                      : 0.0;
      const obs::LatencySnapshot gp = group_publish.Snapshot();
      PrintTableRow({Fmt(static_cast<double>(group_size), 0),
                     Fmt(static_cast<double>(kAppends), 0),
                     Fmt(static_cast<double>(qstats.groups_committed), 0),
                     Fmt(static_cast<double>(commits), 0),
                     Fmt(appends_per_s, 0), Fmt(gp.p99_ms, 3)});

      BenchReporter::Params ingest_params = {
          {"group", static_cast<double>(group_size)}};
      reporter.AddValue("ingest", ingest_params, "appends",
                        static_cast<double>(kAppends));
      reporter.AddValue("ingest", ingest_params, "groups",
                        static_cast<double>(qstats.groups_committed));
      reporter.AddValue("ingest", ingest_params, "group_fsyncs",
                        static_cast<double>(commits));
      reporter.AddValue("ingest", ingest_params, "appends_per_s",
                        appends_per_s);
      reporter.AddValue("ingest", ingest_params, "wall_ms", lane_ms);
      reporter.AddValue("ingest", ingest_params, "publish_p50_ms", gp.p50_ms);
      reporter.AddValue("ingest", ingest_params, "publish_p95_ms", gp.p95_ms);
      reporter.AddValue("ingest", ingest_params, "publish_p99_ms", gp.p99_ms);
      reporter.AddValue("ingest", ingest_params, "publish_max_ms", gp.max_ms);
    }
  }

  // --- Phase D: write-path pipeline attribution & stall ledger -----------
  //
  // ISSUE 10 tentpole measurement: queries race grouped publishes under
  // SWMR serving while every append's Submit -> reader-visibility latency
  // is decomposed into the five pipeline stages (obs/pipeline.h) on the
  // ingest lane itself, the commit-trigger/stall ledger is captured, and a
  // flight recorder shadows the run. Appends are pre-queued and kAppends
  // is a multiple of the group size, so greedy batching drains full groups
  // only — groups, triggers and the stage-sum balance are deterministic
  // while the latencies themselves remain timing (bench_diff classifies
  // them accordingly).
  {
    const size_t kGroup = 32;
    const size_t kAppends = smoke ? 256 : 1024;  // Multiple of kGroup.
    const size_t kDThreads = 8;
    const int kDQueries = smoke ? 48 : 96;
    const uint64_t kSampleEvery = 4;

    DatasetConfig dcfg = inc_cfg;
    dcfg.seed += 13;
    Dataset live = BuildDataset(dcfg);
    std::vector<exec::BatchQuery> dbatch;
    {
      Rng drng(20260809);
      for (int i = 0; i < kDQueries; ++i) {
        SelectionType type =
            i % 2 == 0 ? SelectionType::kExist : SelectionType::kAll;
        std::vector<CalibratedQuery> cq =
            MakeQueries(*live.relation, type, 1, 0.05, 0.20, &drng);
        exec::BatchQuery q;
        q.type = cq[0].type;
        q.query = cq[0].query;
        q.method = QueryMethod::kT2;
        dbatch.push_back(q);
      }
    }
    std::vector<GeneralizedTuple> dstream;
    for (size_t i = 0; i < kAppends; ++i) {
      dstream.push_back(RandomBoundedTuple(&irng, w));
    }

    if (!live.relation->BeginOnlineAppends(kAppends).ok()) return 1;
    obs::IngestPipelineRecorders pipeline(kSampleEvery, /*seed=*/20260810);
    obs::EventLog flight(4096);
    exec::IngestQueueOptions dopts;
    dopts.queue_capacity = kAppends;
    dopts.max_group_size = kGroup;
    dopts.pipeline = &pipeline;
    dopts.event_log = &flight;
    exec::IngestQueue dqueue(live.relation.get(), live.dual.get(),
                             live.rel_pager.get(), live.dual_pager.get(),
                             dopts);
    std::vector<exec::IngestHandle> dhandles;
    for (const GeneralizedTuple& t : dstream) {
      Result<exec::IngestHandle> h = dqueue.Submit(t);
      if (!h.ok()) {
        std::fprintf(stderr, "FATAL: phase-D submit failed: %s\n",
                     h.status().ToString().c_str());
        return 1;
      }
      dhandles.push_back(h.value());
    }
    dqueue.Close();

    const PagerConcurrencyStats cs_before =
        live.dual_pager->concurrency_stats();
    exec::QueryExecutor dexecutor(kDThreads);
    exec::BatchResult drun;
    Clock* dclock = DefaultClock();
    const uint64_t run_t0 = dclock->NowNanos();
    Status dst = dexecutor.RunBatch(live.dual.get(), dbatch, {}, &drun,
                                    [&] { return dqueue.RunWriter(); });
    const uint64_t run_ns = dclock->NowNanos() - run_t0;
    if (!dst.ok()) {
      std::fprintf(stderr, "FATAL: phase-D run failed: %s\n",
                   dst.ToString().c_str());
      return 1;
    }
    for (exec::IngestHandle& h : dhandles) {
      if (!h.Wait().ok()) {
        std::fprintf(stderr, "FATAL: phase-D append not acknowledged\n");
        return 1;
      }
    }
    size_t dfailed = 0;
    for (const exec::BatchItemResult& r : drun.items) {
      if (!r.status.ok()) ++dfailed;
    }
    if (dfailed != 0 || !live.dual->CheckInvariants().ok()) {
      std::fprintf(stderr, "FATAL: phase-D serving failed\n");
      return 1;
    }

    // Deterministic shape, proven on the lane: all-full groups, a clean
    // trigger ledger, balanced stage sums on every sampled group, and a
    // flight recorder that saw every transition.
    const exec::IngestQueueStats dstats = dqueue.stats();
    const uint64_t expected_groups = kAppends / kGroup;
    if (dstats.groups_committed != expected_groups ||
        dstats.commits_full != expected_groups ||
        dstats.commits_deadline != 0 || dstats.commits_drain != 0 ||
        dstats.appends_committed != kAppends) {
      std::fprintf(stderr, "BUG: phase-D group/trigger ledger is off\n");
      return 1;
    }
    if (pipeline.visibility().count() != kAppends ||
        pipeline.unbalanced_groups() != 0) {
      std::fprintf(stderr, "BUG: phase-D pipeline digests are off\n");
      return 1;
    }
    const std::vector<obs::IngestGroupProfile> dprofiles =
        pipeline.SampledProfiles();
    for (const obs::IngestGroupProfile& p : dprofiles) {
      if (!p.Balances() || !p.ToExplainProfile().SumsBalance()) {
        std::fprintf(stderr, "BUG: sampled group %llu does not balance\n",
                     static_cast<unsigned long long>(p.group_seq));
        return 1;
      }
    }
    {
      Result<obs::JsonValue> doc = obs::ParseJson(flight.ToJson());
      if (!doc.ok()) {
        std::fprintf(stderr, "BUG: flight recorder JSON does not parse\n");
        return 1;
      }
      size_t committed_events = 0;
      const obs::JsonValue* events = doc.value().Find("events");
      if (events != nullptr) {
        for (const obs::JsonValue& e : events->items) {
          const obs::JsonValue* t = e.Find("type");
          if (t != nullptr && t->string_value == "group_committed") {
            ++committed_events;
          }
        }
      }
      if (committed_events + flight.dropped() < expected_groups) {
        std::fprintf(stderr, "BUG: flight recorder missed commits\n");
        return 1;
      }
    }

    // Visibility sums are reported from the exact integer accumulators,
    // so the artifact-level balance rule can hold to double precision.
    uint64_t stage_sum_ns = 0;
    for (int i = 0; i < obs::kIngestStageCount; ++i) {
      stage_sum_ns +=
          pipeline.stage(static_cast<obs::IngestStage>(i)).sum_ns();
    }
    const obs::LatencySnapshot vis = pipeline.visibility().Snapshot();
    const PagerConcurrencyStats cs_after =
        live.dual_pager->concurrency_stats();
    const double depth_avg =
        run_ns > 0
            ? static_cast<double>(dstats.depth_time_ns) /
                  static_cast<double>(run_ns)
            : 0.0;

    PrintTableHeader("Write-path pipeline stages (Submit -> visibility)",
                     {"stage", "count", "p50-ms", "p95-ms", "p99-ms",
                      "max-ms"});
    BenchReporter::Params dparams = {
        {"group", static_cast<double>(kGroup)},
        {"appends", static_cast<double>(kAppends)}};
    for (int i = 0; i < obs::kIngestStageCount; ++i) {
      const obs::IngestStage s = static_cast<obs::IngestStage>(i);
      const std::string name(obs::IngestStageName(s));
      const obs::LatencySnapshot snap = pipeline.stage(s).Snapshot();
      PrintTableRow({name, Fmt(static_cast<double>(snap.count), 0),
                     Fmt(snap.p50_ms, 4), Fmt(snap.p95_ms, 4),
                     Fmt(snap.p99_ms, 4), Fmt(snap.max_ms, 4)});
      const std::string label = "pipeline_" + name;
      reporter.AddValue(label, dparams, "count",
                        static_cast<double>(snap.count));
      reporter.AddValue(label, dparams, "sum_ms",
                        static_cast<double>(pipeline.stage(s).sum_ns()) / 1e6);
      reporter.AddValue(label, dparams, "p50_ms", snap.p50_ms);
      reporter.AddValue(label, dparams, "p95_ms", snap.p95_ms);
      reporter.AddValue(label, dparams, "p99_ms", snap.p99_ms);
      reporter.AddValue(label, dparams, "max_ms", snap.max_ms);
    }
    PrintTableRow({"visibility", Fmt(static_cast<double>(vis.count), 0),
                   Fmt(vis.p50_ms, 4), Fmt(vis.p95_ms, 4), Fmt(vis.p99_ms, 4),
                   Fmt(vis.max_ms, 4)});
    reporter.AddValue("visibility", dparams, "count",
                      static_cast<double>(vis.count));
    reporter.AddValue("visibility", dparams, "sum_ms",
                      static_cast<double>(pipeline.visibility().sum_ns()) /
                          1e6);
    reporter.AddValue("visibility", dparams, "stage_sum_ms",
                      static_cast<double>(stage_sum_ns) / 1e6);
    reporter.AddValue("visibility", dparams, "p50_ms", vis.p50_ms);
    reporter.AddValue("visibility", dparams, "p95_ms", vis.p95_ms);
    reporter.AddValue("visibility", dparams, "p99_ms", vis.p99_ms);
    reporter.AddValue("visibility", dparams, "max_ms", vis.max_ms);
    reporter.AddValue("visibility", dparams, "unbalanced",
                      static_cast<double>(pipeline.unbalanced_groups()));
    reporter.AddValue("visibility", dparams, "sampled_groups",
                      static_cast<double>(pipeline.sampled_groups()));

    std::printf(
        "stall ledger: depth high-water %llu  avg depth %.3f  triggers "
        "full/deadline/drain %llu/%llu/%llu  sessions drained %llu  drain "
        "%.3f ms\n",
        static_cast<unsigned long long>(dstats.depth_high_water), depth_avg,
        static_cast<unsigned long long>(dstats.commits_full),
        static_cast<unsigned long long>(dstats.commits_deadline),
        static_cast<unsigned long long>(dstats.commits_drain),
        static_cast<unsigned long long>(cs_after.publish_sessions_drained -
                                        cs_before.publish_sessions_drained),
        static_cast<double>(cs_after.publish_drain_ns -
                            cs_before.publish_drain_ns) /
            1e6);
    reporter.AddValue("stall", dparams, "groups",
                      static_cast<double>(dstats.groups_committed));
    reporter.AddValue("stall", dparams, "commits_full",
                      static_cast<double>(dstats.commits_full));
    reporter.AddValue("stall", dparams, "commits_deadline",
                      static_cast<double>(dstats.commits_deadline));
    reporter.AddValue("stall", dparams, "commits_drain",
                      static_cast<double>(dstats.commits_drain));
    reporter.AddValue("stall", dparams, "depth_high_water",
                      static_cast<double>(dstats.depth_high_water));
    reporter.AddValue("stall", dparams, "depth_avg", depth_avg);
    reporter.AddValue("stall", dparams, "sessions_drained",
                      static_cast<double>(cs_after.publish_sessions_drained -
                                          cs_before.publish_sessions_drained));
    reporter.AddValue("stall", dparams, "drain_ms",
                      static_cast<double>(cs_after.publish_drain_ns -
                                          cs_before.publish_drain_ns) /
                          1e6);

    // Lane health as gauges, stage digests as histograms: the artifact's
    // metrics section and any Prometheus scrape see them side by side.
    dqueue.ExportMetrics(&obs::GlobalMetrics(), "ingest.lane");
    pipeline.ExportMetrics(&obs::GlobalMetrics(), "ingest");

    if (!trace_path.empty()) {
      const std::string trace = pipeline.TraceJson();
      if (!obs::ParseJson(trace).ok()) {
        std::fprintf(stderr, "FAIL: pipeline trace is not valid JSON\n");
        return 1;
      }
      std::FILE* f = std::fopen(trace_path.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "FAIL: cannot write %s\n", trace_path.c_str());
        return 1;
      }
      std::fwrite(trace.data(), 1, trace.size(), f);
      std::fclose(f);
      std::printf("trace: %zu sampled group profiles -> %s\n",
                  dprofiles.size(), trace_path.c_str());
    }
  }

  std::printf(
      "\nExpected shape: identical results everywhere; stale handicaps pay\n"
      "extra second-sweep pages after the insert burst, incremental stays\n"
      "at the freshly-rebuilt cost without ever paying a rebuild; the\n"
      "concurrent phase serves every query (failed = 0) while the writer\n"
      "publishes %zu-insert batches.\n",
      kPublishEvery);
  return reporter.Write() ? 0 : 1;
}
