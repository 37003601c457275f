// Traced run: per-layer metrics, timed from outside around the calls into
// each layer, on the same seed and inputs as the timed runs.
//
// Reads (one set-up, kClients workers, the workload's first
// traced_queries queries, warm pools):
//   U  plain Select, metrics registry off — the untraced reference, with
//      pager stats and shard-lock waits read around the batch;
//   A  filter-only Select on a refine=false handle over the same pager;
//   B  RefineBatch2D on A's candidates (slopes not in S only: queries on S
//      are exact and never refined);
//   C  full Select with an ExplainProfile attached, registry on.
// Writes, each on a fresh set-up: the append stream replayed in groups of
// kGroupSize through the calls IngestQueue::CommitGroup makes, each timed;
// then one ingest pass with pipeline recorders.
//
// Identities checked: every C profile balances (ExplainProfile::
// SumsBalance, FilterCounts::Balances), B's refined set equals U's answer,
// and the layers' times are compared with the whole they sit in
// (dualindex.unattributed_share, exec.ingest.replay_gap_share).

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>

#include "constraint/refine_batch.h"
#include "fixture.h"
#include "geometry/dual.h"
#include "obs/metrics.h"
#include "runs.h"

namespace perfbench {

namespace {

using cdb::Status;
using cdb::TupleId;

constexpr size_t kColdQueries = 256;
constexpr int kEmptyBatches = 25;

// Self time of the spans named "lp" and of those whose name starts with
// "sweep", summed over the profile tree.
void AddSelfTimes(const cdb::obs::ProfileNode& node, double* lp_ms,
                  double* sweep_ms) {
  if (node.name == "lp") *lp_ms += node.self.wall_ms;
  if (node.name.rfind("sweep", 0) == 0) *sweep_ms += node.self.wall_ms;
  for (const cdb::obs::ProfileNode& child : node.children) {
    AddSelfTimes(child, lp_ms, sweep_ms);
  }
}

uint64_t CounterValue(const char* name) {
  return cdb::obs::GlobalMetrics().counter(name)->value();
}

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

double Ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

}  // namespace

RunReport RunTraced(const Inputs& in) {
  const WorkloadSpec& spec = in.spec();
  RunReport report;
  auto fail = [&report](const char* what, const Status& st) {
    std::fprintf(stderr, "%s: %s\n", what, st.ToString().c_str());
    ++report.failed;
    return report;
  };
  auto& metrics = report.metrics;

  Fixture fx;
  Status st = SetUp(in, &fx);
  if (!st.ok()) return fail("set-up", st);
  metrics.push_back({"constraint.relation_load_s", fx.relation_load_s, "s"});
  metrics.push_back({"dualindex.build_s", fx.build_s, "s"});

  // Index keys of the starting tuples: k TOP plus k BOT evaluations each.
  {
    const std::vector<double>& s_slopes = fx.index->slopes().slopes();
    double sink = 0;
    const uint64_t t0 = NowNs();
    for (size_t t = 0; t < in.n0(); ++t) {
      const auto& c = in.tuples()[t].constraints();
      for (double a : s_slopes) {
        sink += cdb::TopValue(c, a) - cdb::BotValue(c, a);
      }
    }
    const double us = static_cast<double>(NowNs() - t0) / 1e3;
    if (std::isnan(sink)) {
      std::fprintf(stderr, "check: a starting tuple has a NaN key\n");
      ++report.failed;
    }
    metrics.push_back({"geometry.key_eval_us_per_tuple",
                       us / static_cast<double>(in.n0()), "us"});
  }

  // --- Reads -------------------------------------------------------------
  const size_t qn = spec.traced_queries;
  const double qd = static_cast<double>(qn);
  const std::vector<BenchQuery> queries = MakeQueries(in, 0, qn);
  cdb::exec::QueryExecutor executor(kClients);
  std::vector<cdb::Pager*> pagers = {fx.idx_pager.get(), fx.rel_pager.get()};
  size_t wrong = 0;

  std::vector<QueryOutcome> u;
  double u_wall = 0;
  st = RunQueryBatch(&executor, &fx, queries, &u, &u_wall);  // Warm-up.
  if (!st.ok()) return fail("warm-up batch", st);

  // U: the untraced reference, pager counters around it.
  const cdb::IoStats rel0 = fx.rel_pager->stats(), idx0 = fx.idx_pager->stats();
  const auto rel_cs0 = fx.rel_pager->concurrency_stats();
  const auto idx_cs0 = fx.idx_pager->concurrency_stats();
  st = RunQueryBatch(&executor, &fx, queries, &u, &u_wall);
  if (!st.ok()) return fail("untraced batch", st);
  const cdb::IoStats rel_d = fx.rel_pager->stats().Delta(rel0);
  const cdb::IoStats idx_d = fx.idx_pager->stats().Delta(idx0);
  const uint64_t lock_wait_ns =
      fx.rel_pager->concurrency_stats().shard_lock_wait_ns -
      rel_cs0.shard_lock_wait_ns +
      fx.idx_pager->concurrency_stats().shard_lock_wait_ns -
      idx_cs0.shard_lock_wait_ns;
  std::vector<double> u_ms;
  for (size_t i = 0; i < qn; ++i) {
    if (!u[i].ok || !ResultMatches(in, fx, queries[i], u[i].ids, in.n0())) {
      ++wrong;
    }
    u_ms.push_back(u[i].ms);
  }
  report.attempted += qn;

  std::vector<double> empty_ms;
  for (int i = 0; i < kEmptyBatches; ++i) {
    const uint64_t t0 = NowNs();
    st = executor.RunSharded(pagers, 0, [](size_t) {});
    empty_ms.push_back(Ms(NowNs() - t0));
    if (!st.ok()) return fail("empty batch", st);
  }

  // A: filter only.
  std::unique_ptr<cdb::DualIndex> raw;
  cdb::DualIndexOptions raw_options;
  raw_options.refine = false;
  raw_options.incremental_handicaps = true;
  st = cdb::DualIndex::Open(fx.idx_pager.get(), fx.relation.get(),
                            fx.index->Manifest(), raw_options, &raw);
  if (!st.ok()) return fail("filter-only handle", st);
  std::vector<double> a_ms(qn, 0);
  std::vector<std::vector<TupleId>> candidates(qn);
  std::vector<char> a_ok(qn, 0);
  st = executor.RunSharded(pagers, qn, [&](size_t i) {
    const uint64_t t0 = NowNs();
    cdb::Result<std::vector<TupleId>> r =
        raw->Select(queries[i].type, queries[i].q, cdb::QueryMethod::kAuto);
    a_ms[i] = Ms(NowNs() - t0);
    a_ok[i] = r.ok();
    if (r.ok()) candidates[i] = std::move(r).value();
  });
  if (!st.ok()) return fail("filter batch", st);

  // B: refinement of the same candidates.
  cdb::obs::Counter* b_lp_calls =
      cdb::obs::GlobalMetrics().counter("perfbench.refine.lp_calls");
  std::vector<double> b_ms(qn, 0);
  std::vector<char> b_ok(qn, 0);
  std::vector<double> refined_candidates(qn, 0);
  st = executor.RunSharded(pagers, qn, [&](size_t i) {
    std::vector<TupleId> ids = candidates[i];
    if (queries[i].slot >= kTreesPerSide) {
      cdb::obs::FilterCounts filter;
      uint64_t false_hits = 0;
      refined_candidates[i] = static_cast<double>(ids.size());
      const uint64_t t0 = NowNs();
      Status rs = cdb::RefineBatch2D(*fx.relation, queries[i].type,
                                     queries[i].q, b_lp_calls, nullptr, &ids,
                                     &filter, &false_hits);
      b_ms[i] = Ms(NowNs() - t0);
      if (!rs.ok()) return;
    }
    b_ok[i] = a_ok[i] && ids == u[i].ids;
  });
  if (!st.ok()) return fail("refine batch", st);

  // C: full Select with a profile. The registry goes on only now, so U, A
  // and B all run untraced and unattributed_share compares like with like.
  cdb::obs::GlobalMetrics().SetEnabled(true);
  const uint64_t lp0 = CounterValue("dual.refine.lp_calls");
  const uint64_t pages0 = CounterValue("refine.batch.pages");
  const uint64_t cand0 = CounterValue("refine.batch.candidates");
  const uint64_t acc0 = CounterValue("refine.batch.bbox_accepts");
  const uint64_t rej0 = CounterValue("refine.batch.bbox_rejects");
  std::vector<double> c_ms(qn, 0), lp_ms(qn, 0), sweep_ms(qn, 0);
  std::vector<double> c_candidates(qn, 0), c_results(qn, 0);
  std::vector<char> c_ok(qn, 0), balanced(qn, 0);
  st = executor.RunSharded(pagers, qn, [&](size_t i) {
    cdb::obs::ExplainProfile profile;
    cdb::QueryStats stats;
    const uint64_t t0 = NowNs();
    cdb::Result<std::vector<TupleId>> r =
        fx.index->Select(queries[i].type, queries[i].q,
                         cdb::QueryMethod::kAuto, &stats, &profile);
    c_ms[i] = Ms(NowNs() - t0);
    c_ok[i] = r.ok() && r.value() == u[i].ids;
    balanced[i] = profile.SumsBalance() && stats.filter.Balances() &&
                  profile.filter.Balances();
    AddSelfTimes(profile.root, &lp_ms[i], &sweep_ms[i]);
    c_candidates[i] = static_cast<double>(stats.candidates);
    c_results[i] = static_cast<double>(stats.results);
  });
  if (!st.ok()) return fail("profiled batch", st);
  const double lp_calls =
      static_cast<double>(CounterValue("dual.refine.lp_calls") - lp0);
  const double batch_pages =
      static_cast<double>(CounterValue("refine.batch.pages") - pages0);
  const double batch_cands =
      static_cast<double>(CounterValue("refine.batch.candidates") - cand0);
  const double bbox_decided =
      static_cast<double>(CounterValue("refine.batch.bbox_accepts") - acc0 +
                          CounterValue("refine.batch.bbox_rejects") - rej0);

  size_t unbalanced = 0;
  for (size_t i = 0; i < qn; ++i) {
    if (!b_ok[i] || !c_ok[i]) ++wrong;
    if (!balanced[i]) ++unbalanced;
  }
  report.attempted += 3 * qn;
  if (unbalanced > 0) {
    std::fprintf(stderr, "check: %zu traced queries do not balance\n",
                 unbalanced);
  }

  double cold_pages = 0, cold_index = 0;
  size_t cold_wrong = 0;
  st = ColdPagesPerQuery(in, &fx, kColdQueries, in.n0(), &cold_pages,
                         &cold_index, &cold_wrong);
  if (!st.ok()) return fail("cold pass", st);
  report.attempted += kColdQueries;
  wrong += cold_wrong;

  const double fetches =
      static_cast<double>(rel_d.page_fetches + idx_d.page_fetches);
  const double u_sum = Sum(u_ms);
  metrics.insert(
      metrics.end(),
      {
          {"storage.hit_ratio",
           Ratio(static_cast<double>(rel_d.buffer_hits + idx_d.buffer_hits),
                 fetches),
           "ratio"},
          {"storage.reads_per_query",
           static_cast<double>(rel_d.page_reads + idx_d.page_reads) / qd,
           "pages"},
          {"storage.evictions_per_query",
           static_cast<double>(rel_d.buffer_evictions +
                               idx_d.buffer_evictions) /
               qd,
           "frames"},
          {"storage.shard_lock_wait_ms", Ms(lock_wait_ns) / (qd / 1000.0),
           "ms/kquery"},
          {"geometry.lp_self_ms_per_query", Sum(lp_ms) / qd, "ms"},
          {"constraint.refine_ms_per_query", Sum(b_ms) / qd, "ms"},
          {"constraint.refine_ns_per_candidate",
           Ratio(Sum(b_ms) * 1e6, Sum(refined_candidates)), "ns"},
          {"constraint.lp_calls_per_query", lp_calls / qd, "calls"},
          {"constraint.bbox_decided_ratio", Ratio(bbox_decided, batch_cands),
           "ratio"},
          {"constraint.refine_pages_per_candidate",
           Ratio(batch_pages, batch_cands), "pages"},
          {"btree.sweep_self_ms_per_query", Sum(sweep_ms) / qd, "ms"},
          {"btree.index_fetches_per_query", cold_index, "pages"},
          {"dualindex.filter_ms_per_query", Sum(a_ms) / qd, "ms"},
          {"dualindex.candidates_per_query", Sum(c_candidates) / qd, "tuples"},
          {"dualindex.precision", Ratio(Sum(c_results), Sum(c_candidates)),
           "ratio"},
          {"dualindex.unattributed_share",
           1.0 - Ratio(Sum(a_ms) + Sum(b_ms), u_sum), "ratio"},
          {"exec.worker_busy_ratio",
           Ratio(u_sum, static_cast<double>(kClients) * u_wall * 1e3),
           "ratio"},
          {"exec.batch_overhead_ms", Median(empty_ms), "ms"},
          {"obs.trace_overhead_ratio", Ratio(Median(c_ms), Median(u_ms)),
           "ratio"},
      });

  // --- Write replay: CommitGroup's calls, each timed ----------------------
  // On a fresh set-up, like the timed runs' probes: an index that has just
  // served appends slower and unevenly.
  Fixture writes;
  st = SetUp(in, &writes);
  if (!st.ok()) return fail("replay set-up", st);
  const size_t n0 = in.n0();
  const size_t appends = spec.appends;
  const cdb::IoStats jr0 = writes.rel_pager->stats();
  const cdb::IoStats ji0 = writes.idx_pager->stats();
  std::vector<double> insert_us;
  uint64_t rel_insert_ns = 0, flush_ns = 0, groups = 0;
  uint64_t group_wall_ns = 0, stage_ns = 0;
  for (size_t g = 0; g < appends; g += kGroupSize) {
    const uint64_t g0 = NowNs();
    uint64_t timed = 0;
    for (size_t j = g; j < std::min(g + kGroupSize, appends); ++j) {
      const cdb::GeneralizedTuple& t = in.tuples()[n0 + j];
      const uint64_t t0 = NowNs();
      cdb::Result<TupleId> id = writes.relation->Insert(t);
      const uint64_t t1 = NowNs();
      if (!id.ok()) return fail("replay relation insert", id.status());
      st = writes.index->Insert(id.value(), t);
      const uint64_t t2 = NowNs();
      if (!st.ok()) return fail("replay index insert", st);
      writes.MapId(id.value(), n0 + j);
      rel_insert_ns += t1 - t0;
      insert_us.push_back(static_cast<double>(t2 - t1) / 1e3);
      timed += t2 - t0;
    }
    const uint64_t f0 = NowNs();
    st = writes.rel_pager->Flush();
    const uint64_t f1 = NowNs();
    if (!st.ok()) return fail("replay relation flush", st);
    writes.relation->PublishAppends();
    const uint64_t f2 = NowNs();
    st = writes.idx_pager->Flush();
    const uint64_t f3 = NowNs();
    if (!st.ok()) return fail("replay index flush", st);
    flush_ns += (f1 - f0) + (f3 - f2);
    timed += f3 - f0;
    group_wall_ns += f3 - g0;
    stage_ns += timed;
    ++groups;
  }
  {
    IngestRun replayed;
    replayed.acked = appends;
    wrong += CheckAfterIngest(in, writes, replayed);
    report.attempted += appends;
  }
  const double journal_records = static_cast<double>(
      writes.rel_pager->stats().journal_records - jr0.journal_records +
      writes.idx_pager->stats().journal_records - ji0.journal_records);
  metrics.insert(
      metrics.end(),
      {
          {"storage.flush_ms", Ms(flush_ns) / static_cast<double>(groups),
           "ms"},
          {"storage.journal_records_per_append",
           journal_records / static_cast<double>(appends), "records"},
          {"constraint.relation_insert_us",
           static_cast<double>(rel_insert_ns) / 1e3 /
               static_cast<double>(appends),
           "us"},
          {"dualindex.insert_p50_us", Percentile(insert_us, 0.50), "us"},
          {"dualindex.insert_p99_us", Percentile(insert_us, 0.99), "us"},
          {"dualindex.index_pages",
           static_cast<double>(writes.index->live_page_count()), "pages"},
          {"exec.ingest.replay_gap_share",
           1.0 - Ratio(static_cast<double>(stage_ns),
                       static_cast<double>(group_wall_ns)),
           "ratio"},
      });

  // --- One ingest pass with pipeline recorders ---------------------------
  Fixture lane;
  st = SetUp(in, &lane);
  if (!st.ok()) return fail("lane set-up", st);
  cdb::obs::IngestPipelineRecorders pipeline;
  const auto drain0 = lane.idx_pager->concurrency_stats();
  IngestRun run;
  st = RunIngest(in, &lane, 1ull << 32, &pipeline, &run);
  if (!st.ok()) return fail("ingest pass", st);
  const auto drain1 = lane.idx_pager->concurrency_stats();
  report.attempted += run.submitted;
  report.failed += run.failed;
  wrong += CheckAfterIngest(in, lane, run);
  for (size_t i = 0; i < run.reads.size(); ++i) {
    if (!run.reads[i].ran) continue;
    ++report.attempted;
    if (!run.reads[i].ok ||
        !ResultMatches(in, lane, run.queries[i], run.reads[i].ids, n0)) {
      ++wrong;
    }
  }
  metrics.insert(
      metrics.end(),
      {
          {"storage.publish_drain_ms",
           Ratio(Ms(drain1.publish_drain_ns - drain0.publish_drain_ns),
                 static_cast<double>(drain1.publish_epochs -
                                     drain0.publish_epochs)),
           "ms"},
          {"exec.ingest.group_size_mean",
           Ratio(static_cast<double>(run.queue.appends_committed),
                 static_cast<double>(run.queue.groups_committed)),
           "appends"},
          {"exec.ingest.depth_avg",
           Ratio(static_cast<double>(run.queue.depth_time_ns),
                 run.wall_s * 1e9),
           "appends"},
      });
  for (int s = 0; s < cdb::obs::kIngestStageCount; ++s) {
    const auto stage = static_cast<cdb::obs::IngestStage>(s);
    metrics.push_back({"exec.ingest.stage." +
                           std::string(cdb::obs::IngestStageName(stage)) +
                           ".p50_ms",
                       pipeline.stage(stage).Snapshot().p50_ms, "ms"});
  }

  if (wrong > 0) std::fprintf(stderr, "check: %zu wrong answers\n", wrong);
  report.failed += wrong + unbalanced;
  return report;
}

}  // namespace perfbench
