#include "exec/ingest_queue.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <utility>

#include "obs/metrics.h"

namespace cdb {
namespace exec {

namespace {

/// Saturating difference: stage anchors are monotone on a monotone clock,
/// but a ManualClock stepped backwards must clamp, not wrap.
uint64_t SatDiff(uint64_t later, uint64_t earlier) {
  return later > earlier ? later - earlier : 0;
}

}  // namespace

struct IngestHandle::State {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  Status status;
  TupleId id = 0;
};

Result<TupleId> IngestHandle::Wait() {
  if (state_ == nullptr) {
    return Status::InvalidArgument("empty ingest handle");
  }
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [&] { return state_->done; });
  if (!state_->status.ok()) return state_->status;
  return state_->id;
}

bool IngestHandle::done() const {
  if (state_ == nullptr) return false;
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->done;
}

IngestQueue::IngestQueue(Relation* relation, DualIndex* index,
                         Pager* rel_pager, Pager* idx_pager,
                         const IngestQueueOptions& options)
    : relation_(relation),
      index_(index),
      rel_pager_(rel_pager),
      idx_pager_(idx_pager),
      options_(options),
      clock_(options.clock != nullptr ? options.clock : DefaultClock()) {
  if (options_.queue_capacity == 0) options_.queue_capacity = 1;
  if (options_.max_group_size == 0) options_.max_group_size = 1;
  if (options_.pipeline != nullptr) {
    last_depth_change_ns_ = clock_->NowNanos();
  }
}

IngestQueue::~IngestQueue() {
  // A destroyed lane must leave no Wait() hanging: whatever the writer
  // never drained resolves as shed.
  std::lock_guard<std::mutex> lock(mu_);
  closed_ = true;
  if (options_.pipeline != nullptr) {
    AccumulateDepthLocked(clock_->NowNanos());
  }
  for (Pending& p : queue_) {
    Resolve(p.state, Status::Unavailable("ingest queue destroyed"), 0);
  }
  queue_.clear();
}

void IngestQueue::AccumulateDepthLocked(uint64_t now_ns) {
  stats_.depth_time_ns +=
      SatDiff(now_ns, last_depth_change_ns_) * queue_.size();
  last_depth_change_ns_ = now_ns;
}

void IngestQueue::Resolve(const std::shared_ptr<IngestHandle::State>& state,
                          const Status& status, TupleId id) {
  {
    std::lock_guard<std::mutex> lock(state->mu);
    state->status = status;
    state->id = id;
    state->done = true;
  }
  state->cv.notify_all();
}

Result<IngestHandle> IngestQueue::Submit(const GeneralizedTuple& tuple) {
  // Validation runs producer-side, outside the queue lock: a tuple that
  // could never be applied is the producer's bug, and rejecting it here
  // keeps whole-group failure reserved for environmental faults.
  Status valid = index_ != nullptr ? index_->ValidateForInsert(tuple)
                                    : ValidateTuple(tuple);
  if (!valid.ok()) {
    if (options_.event_log != nullptr) {
      options_.event_log->Record(obs::EventType::kReject);
    }
    return valid;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_ || poisoned_ || queue_.size() >= options_.queue_capacity) {
    ++stats_.shed;
    if (options_.event_log != nullptr) {
      options_.event_log->Record(obs::EventType::kShed,
                                 poisoned_ ? 2 : closed_ ? 1 : 0);
    }
    return Status::Unavailable(
        poisoned_ ? "ingest lane failed; reopen to retry"
        : closed_ ? "ingest queue closed"
                  : "ingest queue full");
  }
  Pending p;
  p.tuple = tuple;
  p.state = std::make_shared<IngestHandle::State>();
  if (options_.pipeline != nullptr) {
    p.submit_ns = clock_->NowNanos();
    AccumulateDepthLocked(p.submit_ns);
  }
  IngestHandle handle;
  handle.state_ = p.state;
  queue_.push_back(std::move(p));
  ++stats_.submitted;
  stats_.depth_high_water =
      std::max(stats_.depth_high_water, static_cast<uint64_t>(queue_.size()));
  if (options_.event_log != nullptr) {
    options_.event_log->Record(obs::EventType::kSubmit, stats_.submitted - 1);
  }
  writer_cv_.notify_one();
  return handle;
}

void IngestQueue::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  if (options_.event_log != nullptr) {
    options_.event_log->Record(obs::EventType::kLaneClosed);
  }
  writer_cv_.notify_all();
}

Status IngestQueue::CommitGroup(std::vector<Pending>* group,
                                uint64_t group_seq, uint64_t open_ns,
                                uint64_t drain_ns) {
  obs::IngestPipelineRecorders* const pipeline = options_.pipeline;
  obs::EventLog* const event_log = options_.event_log;
  const uint64_t commit_t0 =
      options_.publish_latency != nullptr ? clock_->NowNanos() : 0;
  // Stage boundaries for the per-append attribution. apply/fsync/publish
  // are group-wide (every append in the group shares them); admission and
  // group_wait are derived per append from its submit time below.
  uint64_t apply_ns = 0, fsync_ns = 0, visible_ns = 0;
  Status st = [&]() -> Status {
    for (Pending& p : *group) {
      Result<TupleId> id = relation_->Insert(p.tuple);
      if (!id.ok()) return id.status();
      if (index_ != nullptr) {
        CDB_RETURN_IF_ERROR(index_->Insert(id.value(), p.tuple));
      }
      // Provisional: the id is acknowledged only after the publish below.
      p.state->id = id.value();
    }
    if (pipeline != nullptr) apply_ns = clock_->NowNanos();
    if (event_log != nullptr) {
      event_log->Record(obs::EventType::kGroupApplied, group_seq,
                        group->size());
    }
    // The group's single durability point: one journal commit covering
    // every tuple page the group dirtied. A transient write fault here
    // surfaces kUnavailable and fails the whole group.
    CDB_RETURN_IF_ERROR(rel_pager_->Flush());
    if (pipeline != nullptr) fsync_ns = clock_->NowNanos();
    if (event_log != nullptr) {
      event_log->Record(obs::EventType::kGroupFsync, group_seq);
    }
    // Publish order mirrors the PR 4 lane: tuple pages first, then the
    // directory bound that makes them reachable, then the index pages
    // that reference them.
    relation_->PublishAppends();
    if (idx_pager_ != nullptr && idx_pager_ != rel_pager_) {
      CDB_RETURN_IF_ERROR(idx_pager_->Flush());
    }
    // The visibility point: the publish epoch advanced and the index
    // pages are committed — the first instant a read session can observe
    // every tuple in the group.
    if (pipeline != nullptr) visible_ns = clock_->NowNanos();
    if (event_log != nullptr) {
      event_log->Record(obs::EventType::kGroupPublish, group_seq);
    }
    return Status::OK();
  }();

  if (!st.ok()) {
    if (event_log != nullptr) {
      event_log->Record(obs::EventType::kGroupFailed, group_seq,
                        static_cast<uint64_t>(st.code()));
      if (st.code() == StatusCode::kCorruption) {
        event_log->Record(obs::EventType::kCorruption, group_seq);
      }
    }
    for (Pending& p : *group) {
      Resolve(p.state, st, 0);
    }
    return st;
  }
  if (options_.publish_latency != nullptr) {
    options_.publish_latency->RecordNanos(clock_->NowNanos() - commit_t0);
  }
  if (pipeline != nullptr) {
    // Per-append stage decomposition. With anchor = max(submit, open) the
    // five stages partition [submit, visible] exactly:
    //   admission + group_wait = (open - submit) + (drain - anchor)
    //                          = drain - submit   (either branch of max),
    // and apply/fsync/publish telescope through the shared boundaries, so
    // the sums Balance() against visibility in integer nanoseconds.
    obs::IngestGroupProfile profile;
    profile.group_seq = group_seq;
    profile.appends = group->size();
    for (const Pending& p : *group) {
      std::array<uint64_t, obs::kIngestStageCount> stage_ns{};
      const uint64_t anchor = std::max(p.submit_ns, open_ns);
      stage_ns[static_cast<size_t>(obs::IngestStage::kAdmission)] =
          SatDiff(open_ns, p.submit_ns);
      stage_ns[static_cast<size_t>(obs::IngestStage::kGroupWait)] =
          SatDiff(drain_ns, anchor);
      stage_ns[static_cast<size_t>(obs::IngestStage::kApply)] =
          SatDiff(apply_ns, drain_ns);
      stage_ns[static_cast<size_t>(obs::IngestStage::kFsync)] =
          SatDiff(fsync_ns, apply_ns);
      stage_ns[static_cast<size_t>(obs::IngestStage::kPublish)] =
          SatDiff(visible_ns, fsync_ns);
      const uint64_t visibility = SatDiff(visible_ns, p.submit_ns);
      pipeline->RecordAppend(stage_ns, visibility);
      for (int i = 0; i < obs::kIngestStageCount; ++i) {
        profile.stage_ns[i] += stage_ns[i];
      }
      profile.visibility_ns += visibility;
    }
    if (pipeline->ShouldSampleGroup(group_seq)) {
      pipeline->AddGroupProfile(profile);
    }
  }
  for (Pending& p : *group) {
    Resolve(p.state, Status::OK(), p.state->id);
  }
  return Status::OK();
}

Status IngestQueue::RunWriter() {
  obs::IngestPipelineRecorders* const pipeline = options_.pipeline;
  obs::EventLog* const event_log = options_.event_log;
  for (;;) {
    std::vector<Pending> group;
    uint64_t waited_ns = 0;
    uint64_t open_ns = 0, drain_ns = 0;
    obs::IngestCommitTrigger trigger = obs::IngestCommitTrigger::kDrain;
    const uint64_t group_seq = next_group_seq_;
    {
      std::unique_lock<std::mutex> lock(mu_);
      writer_cv_.wait(lock, [&] { return !queue_.empty() || closed_; });
      if (queue_.empty()) return Status::OK();  // Closed and drained.

      // The group opens the moment the writer turns its attention to the
      // queued appends: everything before this instant is admission time,
      // everything until the drain below is group-formation time.
      if (pipeline != nullptr) open_ns = clock_->NowNanos();
      if (event_log != nullptr) {
        event_log->Record(obs::EventType::kGroupOpen, group_seq);
      }

      // Bounded group assembly: from the first append seen, wait at most
      // commit_wait_ns (on the injected clock) for the group to fill.
      // Real-time slices keep the loop responsive under a ManualClock.
      bool deadline_expired = false;
      if (options_.commit_wait_ns > 0 &&
          queue_.size() < options_.max_group_size && !closed_) {
        const uint64_t t0 = clock_->NowNanos();
        const uint64_t deadline = t0 + options_.commit_wait_ns;
        while (queue_.size() < options_.max_group_size && !closed_ &&
               clock_->NowNanos() < deadline) {
          writer_cv_.wait_for(lock, std::chrono::microseconds(200), [&] {
            return queue_.size() >= options_.max_group_size || closed_;
          });
        }
        waited_ns = clock_->NowNanos() - t0;
        deadline_expired =
            queue_.size() < options_.max_group_size && !closed_;
      }

      const size_t take = std::min(queue_.size(), options_.max_group_size);
      // Why the group left the assembly window, for the stall ledger: a
      // full group beats the other causes (it would have committed at
      // this size regardless of the wait outcome).
      trigger = take >= options_.max_group_size
                    ? obs::IngestCommitTrigger::kFull
                : deadline_expired ? obs::IngestCommitTrigger::kDeadline
                                   : obs::IngestCommitTrigger::kDrain;
      if (pipeline != nullptr) {
        drain_ns = clock_->NowNanos();
        AccumulateDepthLocked(drain_ns);
      }
      group.reserve(take);
      for (size_t i = 0; i < take; ++i) {
        group.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      stats_.commit_wait_ns += waited_ns;
    }
    ++next_group_seq_;

    Status st = CommitGroup(&group, group_seq, open_ns, drain_ns);
    if (st.ok() && event_log != nullptr) {
      event_log->Record(obs::EventType::kGroupCommitted, group_seq,
                        group.size(), static_cast<uint64_t>(trigger));
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (st.ok()) {
      ++stats_.groups_committed;
      stats_.appends_committed += group.size();
      stats_.max_group_size =
          std::max(stats_.max_group_size, static_cast<uint64_t>(group.size()));
      switch (trigger) {
        case obs::IngestCommitTrigger::kFull:
          ++stats_.commits_full;
          break;
        case obs::IngestCommitTrigger::kDeadline:
          ++stats_.commits_deadline;
          break;
        case obs::IngestCommitTrigger::kDrain:
          ++stats_.commits_drain;
          break;
      }
      continue;
    }
    // Whole-group failure poisons the lane: the in-memory relation/index
    // now hold unpublished state the journal never committed, so the only
    // consistent continuation is a reopen (which rolls the journal back).
    // Grouped writes are never retried internally (DESIGN.md §2g/§2i).
    poisoned_ = true;
    ++stats_.groups_failed;
    if (pipeline != nullptr) {
      AccumulateDepthLocked(clock_->NowNanos());
    }
    for (Pending& p : queue_) {
      Resolve(p.state,
              Status::Unavailable("ingest lane failed; reopen to retry"), 0);
    }
    stats_.shed += queue_.size();
    queue_.clear();
    if (event_log != nullptr) {
      event_log->Record(obs::EventType::kLanePoisoned, group_seq,
                        static_cast<uint64_t>(st.code()));
      // The black box ships itself: a poisoned lane is exactly the state
      // nobody can reproduce after the fact. Best-effort — a dump failure
      // must not mask the poisoning status.
      if (!options_.flight_dump_path.empty()) {
        static obs::Counter* const dump_counter =
            obs::GlobalMetrics().counter("ingest.flight.dumps");
        static obs::Counter* const dump_error_counter =
            obs::GlobalMetrics().counter("ingest.flight.dump_errors");
        if (event_log->DumpToFile(options_.flight_dump_path).ok()) {
          dump_counter->Increment();
        } else {
          dump_error_counter->Increment();
        }
      }
    }
    return st;
  }
}

IngestQueueStats IngestQueue::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void IngestQueue::ExportMetrics(obs::MetricsRegistry* registry,
                                const std::string& prefix) const {
  IngestQueueStats s;
  double depth = 0;
  bool poisoned = false, closed = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    s = stats_;
    depth = static_cast<double>(queue_.size());
    poisoned = poisoned_;
    closed = closed_;
  }
  const auto set = [&](const char* name, double v) {
    registry->gauge(prefix + name)->Set(v);
  };
  set(".submitted", static_cast<double>(s.submitted));
  set(".shed", static_cast<double>(s.shed));
  set(".groups_committed", static_cast<double>(s.groups_committed));
  set(".appends_committed", static_cast<double>(s.appends_committed));
  set(".groups_failed", static_cast<double>(s.groups_failed));
  set(".max_group_size", static_cast<double>(s.max_group_size));
  set(".commit_wait_ns", static_cast<double>(s.commit_wait_ns));
  set(".depth", depth);
  set(".depth_high_water", static_cast<double>(s.depth_high_water));
  set(".depth_time_ns", static_cast<double>(s.depth_time_ns));
  set(".commits_full", static_cast<double>(s.commits_full));
  set(".commits_deadline", static_cast<double>(s.commits_deadline));
  set(".commits_drain", static_cast<double>(s.commits_drain));
  set(".poisoned", poisoned ? 1 : 0);
  set(".closed", closed ? 1 : 0);
}

}  // namespace exec
}  // namespace cdb
