// Parallel batch query executor (ISSUE 3 tentpole).
//
// The paper evaluates one query at a time; the ROADMAP north star is a
// system serving many half-plane selections at once. QueryExecutor supplies
// the serving layer: it owns a fixed pool of worker threads and fans a
// batch of ALL/EXIST queries out across the dual index (RunBatch) or, for
// any other index, runs the caller's per-query job (RunSharded).
//
// Protocol per batch (RunSharded):
//   1. Every pager involved is switched into concurrent-read mode
//      (Pager::BeginConcurrentReads — sharded buffer pool, read-only).
//   2. Workers pull query indices off a shared atomic cursor until the
//      batch is drained, and run each query inside one PagerReadSession
//      per pager. The sessions route the worker's IoStats to thread-local
//      sinks, so the per-query QueryStats and ExplainProfiles it records
//      are exact — decision 11's page-access accounting survives
//      parallelism — and closing them after the query merges its stats
//      into Pager::stats(). Under a live writer the per-query scope also
//      means a publish waits only for in-flight queries.
//   3. When every worker is done the pagers return to exclusive mode.
//
// Failure containment: each query's Status lands in its own
// BatchItemResult; a query failing (e.g. Status::Corruption from a bad
// page) never aborts the batch, deadlocks a worker, or loses the queries
// behind it. RunBatch itself only fails when the mode switch or the
// writer does.
//
// With one thread the executor visits queries in submission order on a
// single worker, so its page-access counts are identical to calling
// DualIndex::Select in a loop (the throughput_scaling bench asserts this).

#ifndef CDB_EXEC_QUERY_EXECUTOR_H_
#define CDB_EXEC_QUERY_EXECUTOR_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "common/status.h"
#include "dualindex/dual_index.h"
#include "obs/latency.h"
#include "obs/trace.h"

namespace cdb {
namespace exec {

/// One 2-d query of a batch.
struct BatchQuery {
  SelectionType type = SelectionType::kExist;
  HalfPlaneQuery query;
  QueryMethod method = QueryMethod::kAuto;
};

/// Outcome of one query. `ids` and `stats` are meaningful iff status.ok().
/// `profile` is non-null only when the batch ran with trace sampling on
/// and the deterministic sampler selected this index (ISSUE 5); it then
/// holds the span-attributed ExplainProfile of the execution.
struct BatchItemResult {
  Status status;
  std::vector<TupleId> ids;
  QueryStats stats;
  std::unique_ptr<obs::ExplainProfile> profile;
};

/// Returns the first non-OK status in `results` (batch-level error
/// summary), or OK.
Status FirstError(const std::vector<BatchItemResult>& results);

/// Per-batch observability and overload knobs.
/// Default-constructed = fully off: the executor then reads no clock,
/// allocates nothing and admits every query, keeping the serial/paper
/// paths byte-identical.
struct BatchObservability {
  /// Non-null turns latency recording on: per-query service time and
  /// queue-wait time are timed on this clock into BatchResult::service /
  /// ::queue_wait (digests of this batch alone) and merged into the
  /// GlobalMetrics() histograms "exec.query.latency" / "exec.queue.wait",
  /// whose counts accumulate across batches. Pass DefaultClock() for wall
  /// time; tests inject a ManualClock.
  Clock* clock = nullptr;
  /// Attach an ExplainProfile to ~1-in-N queries, chosen deterministically
  /// from (trace_sample_seed, query index) — see obs::TraceSampler. 0
  /// disables sampling, 1 traces everything.
  uint64_t trace_sample_every = 0;
  uint64_t trace_sample_seed = 0;
  /// Bounded admission: at most this many queries of a batch are admitted;
  /// the rest are rejected up front with kUnavailable (and bump the
  /// "exec.shed.count" counter) instead of queueing unboundedly.
  /// 0 = unbounded.
  size_t admission_capacity = 0;
};

/// Outcome of a RunBatch batch. `items[i]` corresponds to batch[i]; with
/// admission unbounded the latency digests cover exactly the batch
/// (service.count == queue_wait.count == items.size() — the throughput
/// bench asserts this). Shed queries record neither service time nor queue
/// wait.
struct BatchResult {
  std::vector<BatchItemResult> items;
  /// Per-query service time: job pickup to completion on a worker,
  /// including per-item session open/close and refinement I/O.
  obs::LatencySnapshot service;
  /// Per-query queue wait: batch submission to job pickup.
  obs::LatencySnapshot queue_wait;
  /// Sampled-tracing tallies: profiles attached, and how many of them
  /// passed the self==total balance invariant (must be equal; the bench
  /// and tests fail otherwise).
  uint64_t sampled_traces = 0;
  uint64_t balanced_traces = 0;
  /// Overload-control outcome: queries rejected at admission; their items
  /// carry kUnavailable. Always shed + (items completed) == items.size().
  uint64_t shed = 0;
};

/// See file comment. Thread-compatible: one batch runs at a time.
class QueryExecutor {
 public:
  /// Spawns `threads` workers (clamped to at least 1). The pool is fixed
  /// for the executor's lifetime; batches reuse it.
  explicit QueryExecutor(size_t threads);
  ~QueryExecutor();
  QueryExecutor(const QueryExecutor&) = delete;
  QueryExecutor& operator=(const QueryExecutor&) = delete;

  size_t thread_count() const { return workers_.size(); }

  /// Runs `batch` against the dual index into out->items (element i
  /// corresponds to batch[i]), with per-query service/queue-wait latency
  /// recording, deterministic trace sampling and admission control as
  /// `bobs` asks. Pass `{}` for a plain batch. A non-empty `writer`
  /// (typically a loop of Relation::Insert + DualIndex::Insert + publish,
  /// or IngestQueue::RunWriter) runs on the calling thread as the single
  /// writer, as in RunWithWriter.
  Status RunBatch(DualIndex* index, const std::vector<BatchQuery>& batch,
                  const BatchObservability& bobs, BatchResult* out,
                  const std::function<Status()>& writer = {});

  /// Generic form of RunBatch for any index: switches every pager in
  /// `pagers` (duplicates tolerated) into concurrent-read mode, runs job(i)
  /// for i in [0, n) across the pool — each job inside a PagerReadSession
  /// on every pager — then restores exclusive mode. `job`
  /// must confine each invocation's effects to index-i state and must not
  /// throw.
  Status RunSharded(std::vector<Pager*> pagers, size_t n,
                    const std::function<void(size_t)>& job);

  /// Ingest lane: like RunSharded, but the pagers enter single-writer mode
  /// (Pager::BeginConcurrentReads(true)) with the *calling thread* as the
  /// writer, and `writer` runs on it concurrently with the workers. The
  /// writer mutates through the journal and publishes each batch of
  /// changes with Pager::Flush(); since workers scope their read sessions
  /// to one item, a publish only waits for in-flight queries, never for
  /// the whole batch. Returns the writer's error if
  /// any, else the first mode-switch/teardown error (per-item query
  /// failures land in the job's own results, as in RunSharded).
  Status RunWithWriter(std::vector<Pager*> pagers, size_t n,
                       const std::function<void(size_t)>& job,
                       const std::function<Status()>& writer);

 private:
  struct Batch {
    size_t n = 0;
    const std::function<void(size_t)>* job = nullptr;
    std::atomic<size_t> next{0};
    size_t finished_workers = 0;
    // Latency instrumentation: the clock and both recorders are set
    // together, or all null (the worker loop then reads no clock at all).
    // Queue wait is measured from submit_ns (stamped just before the batch
    // is handed to the pool) to job pickup; service from pickup to job
    // return, the item's sessions included.
    Clock* clock = nullptr;
    obs::LatencyRecorder* service = nullptr;
    obs::LatencyRecorder* queue = nullptr;
    uint64_t submit_ns = 0;
  };

  // The engine behind every entry point: mode switch, dispatch, teardown.
  // An empty `writer` = plain concurrent-read mode; otherwise single-writer
  // mode, the writer running on the calling thread. A non-null `clock`
  // records latency into *out, merged into the "exec.query.latency" /
  // "exec.queue.wait" histograms.
  Status Execute(std::vector<Pager*> pagers, size_t n,
                 const std::function<void(size_t)>& job,
                 const std::function<Status()>& writer, Clock* clock,
                 BatchResult* out);

  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_cv_;  // Workers wait for a new generation.
  std::condition_variable done_cv_;  // RunSharded waits for the last worker.
  uint64_t generation_ = 0;
  bool shutdown_ = false;
  Batch* current_ = nullptr;
  std::vector<Pager*> session_pagers_;
  std::vector<std::thread> workers_;
};

}  // namespace exec
}  // namespace cdb

#endif  // CDB_EXEC_QUERY_EXECUTOR_H_
