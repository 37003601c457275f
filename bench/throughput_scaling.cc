// Throughput scaling of the concurrent read path (ISSUE 3): queries/second
// of exec::QueryExecutor over the fig8-style dataset at 1/2/4/8 worker
// threads, cold- and warm-cache, plus the accounting cross-check that a
// 1-thread executor reproduces the serial Select cost model exactly —
// logical index fetches AND physical refinement reads, query by query
// (decision 11). The scaling numbers are measured honestly: on a
// single-core machine the curve is flat, and the artifact says so rather
// than inventing speedup (scripts/check_bench_json.py only requires the
// 1->2 thread step to be monotone within a scheduler-noise floor).
//
// ISSUE 5 adds a per-thread-count instrumented pass (warm cache) through
// the BatchObservability overload of RunBatch: service-latency and
// queue-wait percentiles ("latency"/"queue_wait" rows, and every batch
// merged into the exec.query.latency / exec.queue.wait histograms of the
// artifact's metrics section), plus 1-in-4 deterministic trace sampling
// whose profiles must all pass the self==total balance invariant
// ("sampling" row; the bench exits nonzero if any recorded count misses
// the batch size or a sampled profile is unbalanced). --smoke shrinks the
// dataset/batch for CI.
//
// ISSUE 6 adds --trace <path>: the sampled profiles of every instrumented
// pass are exported as a Chrome-trace JSON file (obs/export.h), self-checked
// through the strict JSON parser before it is written.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "exec/query_executor.h"
#include "harness.h"
#include "obs/export.h"

namespace cdb {
namespace bench {
namespace {

size_t kWorkerStreams = 8;
int kQueriesPerStream = 32;
constexpr uint64_t kSeed = 20260807;
int kRepeats = 3;
// Every 4th query (in expectation) carries an ExplainProfile in the
// instrumented pass — dense enough to exercise tracing on every thread,
// sparse enough to stay out of the timing's way.
constexpr uint64_t kSampleEvery = 4;

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// kWorkerStreams decorrelated client streams (WorkerRng), each alternating
// EXIST/ALL in a moderate selectivity band, interleaved round-robin.
std::vector<exec::BatchQuery> MakeBatch(const Relation& relation) {
  std::vector<std::vector<exec::BatchQuery>> streams(kWorkerStreams);
  for (size_t w = 0; w < kWorkerStreams; ++w) {
    Rng rng = WorkerRng(kSeed, static_cast<uint32_t>(w));
    for (int i = 0; i < kQueriesPerStream; ++i) {
      SelectionType type =
          i % 2 == 0 ? SelectionType::kExist : SelectionType::kAll;
      std::vector<CalibratedQuery> cq =
          MakeQueries(relation, type, 1, 0.05, 0.20, &rng);
      exec::BatchQuery q;
      q.type = cq[0].type;
      q.query = cq[0].query;
      streams[w].push_back(q);
    }
  }
  std::vector<exec::BatchQuery> batch;
  for (int i = 0; i < kQueriesPerStream; ++i) {
    for (size_t w = 0; w < kWorkerStreams; ++w) {
      batch.push_back(streams[w][static_cast<size_t>(i)]);
    }
  }
  return batch;
}

void DropCaches(Dataset* ds) {
  if (!ds->dual_pager->DropCache().ok() ||
      !ds->rel_pager->DropCache().ok()) {
    std::fprintf(stderr, "FATAL: drop cache failed\n");
    std::abort();
  }
}

// Per-query cold-cache cost through the serial Select loop and through a
// one-thread executor must be identical: same result ids, same logical
// index fetches, same physical refinement reads. Returns the number of
// queries that disagreed (0 = the accounting survives parallel plumbing).
size_t CheckAccounting(Dataset* ds, const std::vector<exec::BatchQuery>& batch,
                       BenchReporter* reporter) {
  exec::QueryExecutor executor(1);
  size_t mismatches = 0;
  for (const exec::BatchQuery& bq : batch) {
    DropCaches(ds);
    QueryStats serial_stats;
    Result<std::vector<TupleId>> serial =
        ds->dual->Select(bq.type, bq.query, bq.method, &serial_stats);
    if (!serial.ok()) {
      std::fprintf(stderr, "FATAL: serial select failed\n");
      std::abort();
    }

    DropCaches(ds);
    exec::BatchResult run;
    if (!executor.RunBatch(ds->dual.get(), {bq}, {}, &run).ok() ||
        !run.items[0].status.ok()) {
      std::fprintf(stderr, "FATAL: executor select failed\n");
      std::abort();
    }
    const exec::BatchItemResult& one = run.items[0];
    if (one.ids != serial.value() ||
        one.stats.index_page_fetches != serial_stats.index_page_fetches ||
        one.stats.tuple_page_fetches != serial_stats.tuple_page_fetches) {
      ++mismatches;
    }
  }
  reporter->AddValue("accounting", {}, "accounting_match",
                     mismatches == 0 ? 1.0 : 0.0);
  reporter->AddValue("accounting", {}, "queries_checked",
                     static_cast<double>(batch.size()));
  return mismatches;
}

struct ThroughputRow {
  double qps = 0;
  double wall_ms = 0;
  size_t failed = 0;
};

// Warm-cache instrumented pass (ISSUE 5): latency recording plus 1-in-N
// deterministic trace sampling. Returns false (after printing why) when an
// invariant failed: every recorded latency count must equal the batch size
// exactly, and every sampled profile must balance.
bool MeasureObservability(Dataset* ds,
                          const std::vector<exec::BatchQuery>& batch,
                          size_t threads, BenchReporter* reporter,
                          std::vector<obs::ExplainProfile>* sampled) {
  exec::QueryExecutor executor(threads);
  exec::BatchObservability bobs;
  bobs.clock = DefaultClock();
  bobs.trace_sample_every = kSampleEvery;
  bobs.trace_sample_seed = kSeed;
  exec::BatchResult out;
  // One unmeasured pass leaves both pools hot, as in the warm qps rows.
  DropCaches(ds);
  if (!executor.RunBatch(ds->dual.get(), batch, bobs, &out).ok() ||
      !exec::FirstError(out.items).ok()) {
    std::fprintf(stderr, "FATAL: instrumented warmup failed\n");
    std::abort();
  }
  if (!executor.RunBatch(ds->dual.get(), batch, bobs, &out).ok() ||
      !exec::FirstError(out.items).ok()) {
    std::fprintf(stderr, "FATAL: instrumented batch failed\n");
    std::abort();
  }

  if (sampled != nullptr) {
    for (const exec::BatchItemResult& item : out.items) {
      if (item.profile != nullptr) sampled->push_back(*item.profile);
    }
  }

  BenchReporter::Params params = {{"threads", static_cast<double>(threads)}};
  reporter->AddValue("latency", params, "count",
                     static_cast<double>(out.service.count));
  reporter->AddValue("latency", params, "mean_ms", out.service.mean_ms);
  reporter->AddValue("latency", params, "p50_ms", out.service.p50_ms);
  reporter->AddValue("latency", params, "p95_ms", out.service.p95_ms);
  reporter->AddValue("latency", params, "p99_ms", out.service.p99_ms);
  reporter->AddValue("latency", params, "max_ms", out.service.max_ms);
  reporter->AddValue("queue_wait", params, "count",
                     static_cast<double>(out.queue_wait.count));
  reporter->AddValue("queue_wait", params, "p50_ms", out.queue_wait.p50_ms);
  reporter->AddValue("queue_wait", params, "p95_ms", out.queue_wait.p95_ms);
  reporter->AddValue("queue_wait", params, "p99_ms", out.queue_wait.p99_ms);
  reporter->AddValue("sampling", params, "sampled",
                     static_cast<double>(out.sampled_traces));
  reporter->AddValue("sampling", params, "balanced",
                     static_cast<double>(out.balanced_traces));

  bool ok = true;
  if (out.service.count != batch.size() ||
      out.queue_wait.count != batch.size()) {
    std::fprintf(stderr,
                 "FAIL: latency counts (%llu service / %llu queue) != batch "
                 "size %zu at %zu threads\n",
                 static_cast<unsigned long long>(out.service.count),
                 static_cast<unsigned long long>(out.queue_wait.count),
                 batch.size(), threads);
    ok = false;
  }
  if (out.sampled_traces == 0 || out.sampled_traces != out.balanced_traces) {
    std::fprintf(stderr,
                 "FAIL: sampled traces %llu, balanced %llu at %zu threads\n",
                 static_cast<unsigned long long>(out.sampled_traces),
                 static_cast<unsigned long long>(out.balanced_traces),
                 threads);
    ok = false;
  }
  std::printf(
      "  obs t=%zu: p50 %.3f ms  p95 %.3f ms  p99 %.3f ms  queue p95 %.3f "
      "ms  sampled %llu/%llu balanced\n",
      threads, out.service.p50_ms, out.service.p95_ms, out.service.p99_ms,
      out.queue_wait.p95_ms,
      static_cast<unsigned long long>(out.balanced_traces),
      static_cast<unsigned long long>(out.sampled_traces));
  return ok;
}

// Overload pass (ISSUE 7): one batch through a bounded admission queue of
// half the submitted size. The "overload" row records the full ledger —
// submitted, completed, shed — and check_bench_json.py enforces the
// identity shed + completed == submitted on the artifact. Returns false
// when the ledger does not balance or an *admitted* query failed.
bool MeasureOverload(Dataset* ds, const std::vector<exec::BatchQuery>& batch,
                     BenchReporter* reporter) {
  exec::QueryExecutor executor(4);
  exec::BatchObservability bobs;
  bobs.admission_capacity = (batch.size() + 1) / 2;
  exec::BatchResult out;
  DropCaches(ds);
  if (!executor.RunBatch(ds->dual.get(), batch, bobs, &out).ok()) {
    std::fprintf(stderr, "FATAL: overload batch failed\n");
    std::abort();
  }
  size_t completed = 0;
  size_t other_errors = 0;
  for (const exec::BatchItemResult& item : out.items) {
    if (item.status.ok()) {
      ++completed;
    } else if (!item.status.IsUnavailable()) {
      ++other_errors;
    }
  }
  reporter->AddValue("overload", {}, "submitted",
                     static_cast<double>(batch.size()));
  reporter->AddValue("overload", {}, "completed",
                     static_cast<double>(completed));
  reporter->AddValue("overload", {}, "shed", static_cast<double>(out.shed));
  std::printf("overload: %zu submitted, %zu completed, %llu shed\n",
              batch.size(), completed,
              static_cast<unsigned long long>(out.shed));
  if (other_errors != 0 || out.shed + completed != batch.size()) {
    std::fprintf(stderr,
                 "FAIL: overload ledger %llu shed + %zu completed != %zu "
                 "submitted (%zu other errors)\n",
                 static_cast<unsigned long long>(out.shed), completed,
                 batch.size(), other_errors);
    return false;
  }
  return true;
}

ThroughputRow MeasureThroughput(Dataset* ds,
                                const std::vector<exec::BatchQuery>& batch,
                                size_t threads, bool warm) {
  exec::QueryExecutor executor(threads);
  exec::BatchResult run;
  if (warm) {
    // One unmeasured pass leaves both pools hot.
    DropCaches(ds);
    if (!executor.RunBatch(ds->dual.get(), batch, {}, &run).ok()) {
      std::abort();
    }
  }
  ThroughputRow best;
  for (int rep = 0; rep < kRepeats; ++rep) {
    if (!warm) DropCaches(ds);
    auto start = std::chrono::steady_clock::now();
    if (!executor.RunBatch(ds->dual.get(), batch, {}, &run).ok()) {
      std::abort();
    }
    double wall_ms = MillisSince(start);
    size_t failed = 0;
    for (const exec::BatchItemResult& r : run.items) {
      if (!r.status.ok()) ++failed;
    }
    double qps = wall_ms > 0 ? 1000.0 * batch.size() / wall_ms : 0;
    if (rep == 0 || qps > best.qps) {
      best.qps = qps;
      best.wall_ms = wall_ms;
      best.failed = failed;
    }
  }
  return best;
}

int Run(int argc, char** argv) {
  BenchReporter reporter("throughput_scaling", &argc, argv);
  bool smoke = false;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    }
    if (std::strncmp(argv[i], "--trace=", 8) == 0) trace_path = argv[i] + 8;
  }
  if (smoke) {
    kWorkerStreams = 4;
    kQueriesPerStream = 8;
    kRepeats = 2;
  }
  std::printf("=== Throughput scaling: parallel batch query executor%s ===\n",
              smoke ? " (smoke)" : "");

  DatasetConfig config;
  config.n = smoke ? 600 : 2000;
  config.size = ObjectSize::kSmall;
  config.k = 3;
  config.seed = kSeed;
  config.build_rtree = false;
  Dataset ds = BuildDataset(config);
  std::vector<exec::BatchQuery> batch = MakeBatch(*ds.relation);

  size_t mismatches = CheckAccounting(&ds, batch, &reporter);
  std::printf("accounting check: %zu/%zu queries mismatched "
              "(serial vs 1-thread executor)\n",
              mismatches, batch.size());

  // Refinement substrate; check_bench_json.py requires the row on this
  // artifact.
  {
    Rng rrng(kSeed + 1);
    auto rq = MakeQueries(*ds.relation, SelectionType::kExist, 6, 0.05, 0.20,
                          &rrng);
    auto rall = MakeQueries(*ds.relation, SelectionType::kAll, 6, 0.05, 0.20,
                            &rrng);
    rq.insert(rq.end(), rall.begin(), rall.end());
    ReportRefineRows(&ds, rq, &reporter, {}, /*warm=*/false);
  }

  PrintTableHeader("qps, " + std::to_string(batch.size()) + " queries, n=" +
                       std::to_string(config.n),
                   {"threads", "cold qps", "cold ms", "warm qps", "warm ms"});
  bool obs_ok = true;
  std::vector<obs::ExplainProfile> sampled;
  for (size_t threads : {1, 2, 4, 8}) {
    ThroughputRow cold = MeasureThroughput(&ds, batch, threads, false);
    ThroughputRow warm = MeasureThroughput(&ds, batch, threads, true);
    PrintTableRow({std::to_string(threads), Fmt(cold.qps, 0),
                   Fmt(cold.wall_ms, 1), Fmt(warm.qps, 0),
                   Fmt(warm.wall_ms, 1)});
    BenchReporter::Params params = {{"threads", static_cast<double>(threads)}};
    reporter.AddValue("cold", params, "qps", cold.qps);
    reporter.AddValue("cold", params, "wall_ms", cold.wall_ms);
    reporter.AddValue("cold", params, "queries",
                      static_cast<double>(batch.size()));
    reporter.AddValue("cold", params, "failed",
                      static_cast<double>(cold.failed));
    reporter.AddValue("warm", params, "qps", warm.qps);
    reporter.AddValue("warm", params, "wall_ms", warm.wall_ms);
    reporter.AddValue("warm", params, "queries",
                      static_cast<double>(batch.size()));
    reporter.AddValue("warm", params, "failed",
                      static_cast<double>(warm.failed));
    if (!MeasureObservability(&ds, batch, threads, &reporter,
                              trace_path.empty() ? nullptr : &sampled)) {
      obs_ok = false;
    }
  }

  const bool overload_ok = MeasureOverload(&ds, batch, &reporter);

  if (!trace_path.empty()) {
    std::vector<const obs::ExplainProfile*> ptrs;
    ptrs.reserve(sampled.size());
    for (const obs::ExplainProfile& p : sampled) ptrs.push_back(&p);
    std::string trace = obs::ChromeTraceJson(ptrs);
    if (!obs::ParseJson(trace).ok()) {
      std::fprintf(stderr, "FAIL: exported Chrome trace is not valid JSON\n");
      return 1;
    }
    std::FILE* f = std::fopen(trace_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "FAIL: cannot write %s\n", trace_path.c_str());
      return 1;
    }
    std::fwrite(trace.data(), 1, trace.size(), f);
    std::fclose(f);
    std::printf("trace: %zu sampled profiles -> %s\n", sampled.size(),
                trace_path.c_str());
  }

  if (mismatches != 0) {
    std::fprintf(stderr, "FAIL: accounting mismatch\n");
    return 1;
  }
  if (!obs_ok) {
    std::fprintf(stderr, "FAIL: latency/sampling invariant violated\n");
    return 1;
  }
  if (!overload_ok) {
    std::fprintf(stderr, "FAIL: overload ledger does not balance\n");
    return 1;
  }
  return reporter.Write() ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace cdb

int main(int argc, char** argv) { return cdb::bench::Run(argc, argv); }
