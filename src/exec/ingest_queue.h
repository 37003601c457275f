// Group-commit ingest queue for the single-writer path (ISSUE 9 tentpole).
//
// SWMR serving (DESIGN.md §2d) funnels every mutation through one writer
// thread, and the PR 4 ingest lane paid the full durability bill — journal
// commit, data fsync, publish epoch barrier — once per append. IngestQueue
// amortizes that bill across a *group*: many producer threads Submit()
// tuples into a bounded MPSC queue, and the writer thread drains a group
// (bounded by max_group_size and, optionally, a commit wait on the
// injectable cdb::Clock), applies every append through Relation::Insert +
// DualIndex::Insert (augmented-tree path), then runs ONE journal commit
// and ONE PublishAppends epoch barrier for the whole group.
//
// Ack semantics (DESIGN.md §2i):
//  - A Submit() returns an IngestHandle whose Wait() resolves only after
//    the group's publish — durability is never acknowledged early. On
//    success Wait() yields the assigned TupleId.
//  - Admission is bounded, like the executor's admission_capacity: a full
//    queue sheds the append immediately with kUnavailable (the producer
//    may retry), and a malformed tuple is rejected producer-side with
//    InvalidArgument via DualIndex::ValidateForInsert so it can never fail
//    a group mid-apply.
//  - A group fails as a whole: any environmental failure while applying or
//    committing (a transient journal-write fault surfaces kUnavailable)
//    resolves every handle in the group with that status and poisons the
//    lane — the writer stops, queued and future appends are shed with
//    kUnavailable, and recovery is a reopen (journal rollback discards the
//    uncommitted group; grouped writes are never retried internally,
//    matching the §2g write-retry rule).
//
// Threading: Submit()/Close()/stats() are thread-safe; RunWriter() must
// run on exactly one thread — under SWMR serving, the thread that entered
// Pager::BeginConcurrentReads(true), i.e. as the `writer` callback of
// QueryExecutor::RunWithWriter or RunBatch. It also runs standalone in
// exclusive mode (no concurrent readers), where PublishAppends is a
// harmless no-op.

#ifndef CDB_EXEC_INGEST_QUEUE_H_
#define CDB_EXEC_INGEST_QUEUE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "common/status.h"
#include "constraint/relation.h"
#include "dualindex/dual_index.h"
#include "obs/event_log.h"
#include "obs/latency.h"
#include "obs/pipeline.h"
#include "storage/pager.h"

namespace cdb {
namespace exec {

struct IngestQueueOptions {
  /// Bounded admission: a Submit() finding this many appends already
  /// queued is shed immediately with kUnavailable.
  size_t queue_capacity = 1024;
  /// A group commits once it holds this many appends (hard bound; also
  /// the most the writer drains per commit).
  size_t max_group_size = 64;
  /// How long the writer waits for a group to fill before committing a
  /// partial one, measured on `clock` from the moment the group's first
  /// append is seen. 0 = commit whatever is queued immediately (greedy
  /// batching: group size then tracks producer burstiness).
  uint64_t commit_wait_ns = 0;
  /// Clock behind the commit wait (null = DefaultClock(); tests
  /// inject a ManualClock to place the deadline deterministically).
  Clock* clock = nullptr;
  /// Optional per-group commit timing: each committed group records its
  /// apply + journal-commit + publish duration here (on `clock`). Not
  /// owned; must outlive the queue. The online_updates bench reads its
  /// percentiles as the group publish latency.
  obs::LatencyRecorder* publish_latency = nullptr;
  /// Optional per-append stage attribution (ISSUE 10): when attached,
  /// every append's Submit -> visibility latency is decomposed into the
  /// five pipeline stages on `clock` (see obs/pipeline.h), the
  /// time-weighted depth integral is maintained, and sampled groups keep
  /// a stage profile whose sums are balance-checked at runtime. Not
  /// owned; must outlive the queue. Null = zero extra clock reads.
  obs::IngestPipelineRecorders* pipeline = nullptr;
  /// Optional flight recorder: admission/group/poison transitions are
  /// recorded as structured events (see obs/event_log.h). Not owned; may
  /// be shared between lanes; must outlive the queue.
  obs::EventLog* event_log = nullptr;
  /// When non-empty (and event_log is attached), the lane dumps the
  /// flight recorder to this file the moment it poisons — every
  /// chaos-sweep failure ships its own black box. Best-effort: a dump
  /// failure never masks the poisoning status.
  std::string flight_dump_path;
};

/// Cumulative queue counters: the lane's only tally, published to a
/// registry by IngestQueue::ExportMetrics.
struct IngestQueueStats {
  uint64_t submitted = 0;         ///< Appends accepted into the queue.
  /// Appends shed with kUnavailable: refused at admission (full, closed
  /// or poisoned lane) or drained unapplied when the lane poisons
  /// (DESIGN.md decision 61).
  uint64_t shed = 0;
  uint64_t groups_committed = 0;  ///< Groups fully published.
  uint64_t appends_committed = 0; ///< Appends across committed groups.
  uint64_t groups_failed = 0;     ///< 0 or 1: a failure poisons the lane.
  uint64_t max_group_size = 0;    ///< Largest committed group.
  uint64_t commit_wait_ns = 0;    ///< Total time spent filling groups.
  uint64_t depth_high_water = 0;  ///< Deepest the queue has been.
  /// Commit-trigger ledger (ISSUE 10): why each committed group left the
  /// assembly window. The three always sum to groups_committed.
  uint64_t commits_full = 0;      ///< Group reached max_group_size.
  uint64_t commits_deadline = 0;  ///< commit_wait_ns expired on a partial.
  uint64_t commits_drain = 0;     ///< Greedy batching / close-time drain.
  /// Time-weighted queue-depth integral (sum over time of depth * dt, in
  /// depth-nanoseconds): divide by elapsed time for the average depth.
  /// Maintained only while pipeline recorders are attached (it costs a
  /// clock read per queue transition); 0 otherwise.
  uint64_t depth_time_ns = 0;
};

/// Completion future for one Submit(). Copyable; all copies share the
/// resolution. Wait() blocks until the append's group published (or
/// failed) and never resolves before the group's durability point.
class IngestHandle {
 public:
  IngestHandle() = default;

  bool valid() const { return state_ != nullptr; }

  /// Blocks until the group containing this append resolved. Returns the
  /// assigned TupleId on success; the group's failure status otherwise.
  Result<TupleId> Wait();

  /// Non-blocking probe: true once the group resolved either way.
  bool done() const;

 private:
  friend class IngestQueue;
  struct State;
  std::shared_ptr<State> state_;
};

/// See file comment.
class IngestQueue {
 public:
  /// `relation` and `rel_pager` are required; `index`/`idx_pager` may be
  /// null for relation-only lanes (tests). None are owned; all must
  /// outlive the queue.
  IngestQueue(Relation* relation, DualIndex* index, Pager* rel_pager,
              Pager* idx_pager, const IngestQueueOptions& options);
  ~IngestQueue();
  IngestQueue(const IngestQueue&) = delete;
  IngestQueue& operator=(const IngestQueue&) = delete;

  /// Producer side (any thread): enqueues `tuple` for the next group.
  /// Fails fast — without blocking — with kUnavailable when the queue is
  /// full, closed, or poisoned, and with InvalidArgument when the tuple
  /// cannot be indexed (checked against the lane's DualIndex when one is
  /// attached).
  Result<IngestHandle> Submit(const GeneralizedTuple& tuple);

  /// Stops admission (subsequent Submits shed with kUnavailable) and wakes
  /// the writer, which drains the backlog and returns.
  void Close();

  /// Writer loop: drains groups until Close() + empty queue, or until a
  /// group fails (lane poisoned; the failing status is returned after all
  /// queued appends were resolved with kUnavailable). Must run on the
  /// single writer thread — see file comment.
  Status RunWriter();

  IngestQueueStats stats() const;

  /// Publishes the lane's stats as gauges "<prefix>.submitted", ".shed",
  /// ".groups_committed", ".appends_committed", ".groups_failed",
  /// ".max_group_size", ".commit_wait_ns", ".depth" (current),
  /// ".depth_high_water", ".depth_time_ns", ".commits_full",
  /// ".commits_deadline", ".commits_drain", ".poisoned" (0/1) and
  /// ".closed" (0/1), so a Prometheus scrape sees lane health without
  /// code access (ISSUE 10 satellite).
  void ExportMetrics(obs::MetricsRegistry* registry,
                     const std::string& prefix) const;

 private:
  struct Pending {
    GeneralizedTuple tuple;
    std::shared_ptr<IngestHandle::State> state;
    uint64_t submit_ns = 0;  ///< Clock at admission (pipeline only).
  };

  /// Applies `group` and commits it: inserts, one journal commit on the
  /// relation pager, PublishAppends, index-pager commit. On success every
  /// handle resolves with its TupleId; on failure the caller poisons the
  /// lane and CommitGroup has already resolved the group with the error.
  /// `group_seq` numbers the group for events/sampling; `open_ns` and
  /// `drain_ns` anchor the per-append stage attribution (0 when the
  /// pipeline is not instrumented).
  Status CommitGroup(std::vector<Pending>* group, uint64_t group_seq,
                     uint64_t open_ns, uint64_t drain_ns);

  /// Charges (now - last depth change) * current depth to the depth
  /// integral. Caller holds mu_; call *before* the depth changes.
  void AccumulateDepthLocked(uint64_t now_ns);

  static void Resolve(const std::shared_ptr<IngestHandle::State>& state,
                      const Status& status, TupleId id);

  Relation* relation_;
  DualIndex* index_;
  Pager* rel_pager_;
  Pager* idx_pager_;
  IngestQueueOptions options_;
  Clock* clock_;

  mutable std::mutex mu_;
  std::condition_variable writer_cv_;
  std::deque<Pending> queue_;
  bool closed_ = false;
  bool poisoned_ = false;
  IngestQueueStats stats_;
  uint64_t next_group_seq_ = 0;       // Writer thread only.
  uint64_t last_depth_change_ns_ = 0; // Guarded by mu_ (pipeline only).
};

}  // namespace exec
}  // namespace cdb

#endif  // CDB_EXEC_INGEST_QUEUE_H_
