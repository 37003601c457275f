// Parallel batch query executor (ISSUE 3 tentpole).
//
// The paper evaluates one query at a time; the ROADMAP north star is a
// system serving many half-plane selections at once. QueryExecutor supplies
// the serving layer: it owns a fixed pool of worker threads and fans a
// batch of ALL/EXIST queries out across the dual index, the d-dimensional
// dual index, or the R+-tree baseline.
//
// Protocol per batch (RunSharded):
//   1. Every pager involved is switched into concurrent-read mode
//      (Pager::BeginConcurrentReads — sharded buffer pool, read-only).
//   2. Each worker opens one PagerReadSession per pager, then pulls query
//      indices off a shared atomic cursor until the batch is drained. The
//      sessions route each worker's IoStats to thread-local sinks, so the
//      per-query QueryStats and ExplainProfiles a worker records are exact
//      — decision 11's page-access accounting survives parallelism.
//   3. Workers close their sessions (merging stats into Pager::stats())
//      and the pagers return to exclusive mode.
//
// Failure containment: each query's Status lands in its own
// BatchItemResult; a query failing (e.g. Status::Corruption from a bad
// page) never aborts the batch, deadlocks a worker, or loses the queries
// behind it. RunBatch itself only fails when the mode switch does.
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
#include "dualindex/ddim_index.h"
#include "dualindex/dual_index.h"
#include "obs/latency.h"
#include "obs/trace.h"
#include "rtree/rtree_query.h"

namespace cdb {
namespace exec {

/// One 2-d query of a batch.
struct BatchQuery {
  SelectionType type = SelectionType::kExist;
  HalfPlaneQuery query;
  QueryMethod method = QueryMethod::kAuto;
};

/// One d-dimensional query of a batch.
struct BatchQueryD {
  SelectionType type = SelectionType::kExist;
  HalfPlaneQueryD query;
  DDimDualIndex::Method method = DDimDualIndex::Method::kT1;
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

/// Overload-control policy (ISSUE 7). Default-constructed = fully off:
/// every query is admitted and served, and the executor reads no clock for
/// it. The load signal for the ladder is the per-query queue wait — the
/// same quantity the ISSUE 5 queue-wait digests measure.
struct OverloadPolicy {
  /// Bounded admission: at most this many queries of a batch are admitted;
  /// the rest are rejected up front with kUnavailable instead of queueing
  /// unboundedly. 0 = unbounded.
  size_t admission_capacity = 0;
  /// Degrade ladder, first rung: a query picked up after waiting at least
  /// this many nanoseconds is served without trace sampling (profiles are
  /// the first cost dropped under load). 0 = off.
  uint64_t degrade_queue_wait_ns = 0;
  /// Degrade ladder, second rung: a query that waited at least this long
  /// is shed — completed immediately with kUnavailable, never executed.
  /// 0 = off.
  uint64_t shed_queue_wait_ns = 0;

  bool ladder_enabled() const {
    return degrade_queue_wait_ns > 0 || shed_queue_wait_ns > 0;
  }
};

/// Per-batch observability knobs (ISSUE 5). Default-constructed = fully
/// off: the executor then reads no clock and allocates nothing, keeping
/// the serial/paper paths byte-identical.
struct BatchObservability {
  /// Record per-query service time and queue-wait time into
  /// BatchResult::service / ::queue_wait (digests of this batch alone) and
  /// merge them into the GlobalMetrics() histograms "exec.query.latency" /
  /// "exec.queue.wait", whose counts accumulate across batches.
  bool record_latency = false;
  /// Clock behind the latency timers, sampled tracers, and the overload
  /// ladder (null = DefaultClock(); tests inject a ManualClock).
  Clock* clock = nullptr;
  /// Attach an ExplainProfile to ~1-in-N queries, chosen deterministically
  /// from (trace_sample_seed, query index) — see obs::TraceSampler. 0
  /// disables sampling, 1 traces everything.
  uint64_t trace_sample_every = 0;
  uint64_t trace_sample_seed = 0;
  /// Overload control (ISSUE 7): admission bound plus the degrade/shed
  /// ladder. Shed queries carry Status kUnavailable in their item and bump
  /// the "exec.shed.count" counter.
  OverloadPolicy overload;
};

/// Outcome of an instrumented batch (the RunBatch overloads taking a
/// BatchObservability). `items[i]` corresponds to batch[i]; with overload
/// control off the latency digests cover exactly the batch
/// (service.count == queue_wait.count == items.size() — the throughput
/// bench asserts this). Shed queries record no service time (wait-shed
/// ones still record queue wait; admission-shed ones record neither).
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
  /// Overload-control outcome (ISSUE 7): queries rejected — at admission
  /// or by the queue-wait shed rung; their items carry kUnavailable — and
  /// queries served without trace sampling because the degrade rung fired.
  /// Always shed + (items completed) == items.size().
  uint64_t shed = 0;
  uint64_t degraded = 0;
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

  /// Runs `batch` against the dual index. `results` is resized to match;
  /// element i corresponds to batch[i].
  Status RunBatch(DualIndex* index, const std::vector<BatchQuery>& batch,
                  std::vector<BatchItemResult>* results);

  /// Instrumented form: as above, plus per-query service/queue-wait latency
  /// recording and deterministic trace sampling per `bobs` (ISSUE 5).
  Status RunBatch(DualIndex* index, const std::vector<BatchQuery>& batch,
                  const BatchObservability& bobs, BatchResult* out);

  /// Runs `batch` against the R+-tree baseline (refined on `relation`).
  Status RunBatch(RPlusTree* tree, Relation* relation,
                  const std::vector<BatchQuery>& batch,
                  std::vector<BatchItemResult>* results);

  /// Runs a d-dimensional batch against the d-dim dual index.
  Status RunBatch(DDimDualIndex* index, const std::vector<BatchQueryD>& batch,
                  std::vector<BatchItemResult>* results);

  /// Generic engine behind the typed RunBatch overloads: switches every
  /// pager in `pagers` (duplicates tolerated) into concurrent-read mode,
  /// runs job(i) for i in [0, n) across the pool — each worker holding a
  /// PagerReadSession on every pager — then restores exclusive mode.
  /// `job` must confine each invocation's effects to index-i state and
  /// must not throw.
  Status RunSharded(std::vector<Pager*> pagers, size_t n,
                    const std::function<void(size_t)>& job);

  /// Ingest lane: like RunSharded, but the pagers enter single-writer mode
  /// (Pager::BeginConcurrentReads(true)) with the *calling thread* as the
  /// writer, and `writer` runs on it concurrently with the workers. The
  /// writer mutates through the journal and publishes each batch of
  /// changes with Pager::Flush(); workers open their read sessions per
  /// *item* instead of per batch, so a publish only waits for in-flight
  /// queries, never for the whole batch. Returns the writer's error if
  /// any, else the first mode-switch/teardown error (per-item query
  /// failures land in the job's own results, as in RunSharded).
  Status RunWithWriter(std::vector<Pager*> pagers, size_t n,
                       const std::function<void(size_t)>& job,
                       const std::function<Status()>& writer);

  /// Typed ingest-lane helper over the dual index: runs `batch` like
  /// RunBatch(DualIndex*, ...) while `writer` (typically a loop of
  /// Relation::Insert + DualIndex::Insert + publish) runs on the calling
  /// thread.
  Status RunBatchWithWriter(DualIndex* index,
                            const std::vector<BatchQuery>& batch,
                            std::vector<BatchItemResult>* results,
                            const std::function<Status()>& writer);

  /// Instrumented ingest lane: RunBatchWithWriter plus the ISSUE 5
  /// latency/sampling machinery of the instrumented RunBatch.
  Status RunBatchWithWriter(DualIndex* index,
                            const std::vector<BatchQuery>& batch,
                            const BatchObservability& bobs, BatchResult* out,
                            const std::function<Status()>& writer);

 private:
  struct Batch {
    size_t n = 0;
    const std::function<void(size_t)>* job = nullptr;
    std::atomic<size_t> next{0};
    size_t finished_workers = 0;
    // Open read sessions around each item instead of the worker's whole
    // share — required under a live writer, whose publish gate drains
    // active sessions (a per-batch session would deadlock it).
    bool per_item_sessions = false;
    // Latency instrumentation (null = off: the worker loop then reads no
    // clock at all, preserving the uninstrumented path exactly). Queue
    // wait is measured from submit_ns (stamped just before the batch is
    // handed to the pool) to job pickup; service from pickup to job
    // return, per-item sessions included. The clock is also set — with the
    // recorders left null — when only the overload ladder needs it.
    Clock* clock = nullptr;
    obs::LatencyRecorder* service = nullptr;
    obs::LatencyRecorder* queue = nullptr;
    uint64_t submit_ns = 0;
    // Overload ladder (ISSUE 7; 0 = rung off, requires clock). A query
    // whose queue wait reaches shed_wait_ns is completed by on_shed
    // instead of the job (queue wait still recorded, service time not —
    // the query was never served); one reaching degrade_wait_ns has
    // on_degrade run first (same worker thread, so the job sees its
    // effect without synchronization).
    uint64_t degrade_wait_ns = 0;
    uint64_t shed_wait_ns = 0;
    const std::function<void(size_t)>* on_degrade = nullptr;
    const std::function<void(size_t)>* on_shed = nullptr;
  };

  // The engine behind RunSharded / RunWithWriter: mode switch, dispatch,
  // teardown. `writer` null = plain concurrent-read mode with per-batch
  // sessions; non-null = single-writer mode, per-item sessions, writer
  // runs on the calling thread. `bobs`/`out` non-null = latency recording
  // into *out, merged into the "exec.query.latency"/"exec.queue.wait"
  // histograms. `on_degrade`/`on_shed` implement the overload ladder when
  // bobs->overload enables it (see Batch).
  Status Execute(std::vector<Pager*> pagers, size_t n,
                 const std::function<void(size_t)>& job,
                 const std::function<Status()>* writer,
                 const BatchObservability* bobs, BatchResult* out,
                 const std::function<void(size_t)>* on_degrade = nullptr,
                 const std::function<void(size_t)>* on_shed = nullptr);

  // Shared body of the instrumented DualIndex RunBatch overloads
  // (`writer` null = plain batch): trace sampling, overload control,
  // latency recording.
  Status RunInstrumented(DualIndex* index, const std::vector<BatchQuery>& batch,
                         const BatchObservability& bobs, BatchResult* out,
                         const std::function<Status()>* writer);

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
