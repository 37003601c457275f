#include "exec/query_executor.h"

#include <algorithm>
#include <cassert>
#include <memory>

#include "obs/metrics.h"
#include "storage/pager.h"

namespace cdb {
namespace exec {

Status FirstError(const std::vector<BatchItemResult>& results) {
  for (const BatchItemResult& r : results) {
    if (!r.status.ok()) return r.status;
  }
  return Status::OK();
}

QueryExecutor::QueryExecutor(size_t threads) {
  size_t n = threads == 0 ? 1 : threads;
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

QueryExecutor::~QueryExecutor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void QueryExecutor::WorkerLoop() {
  uint64_t seen_generation = 0;
  for (;;) {
    Batch* batch = nullptr;
    std::vector<Pager*> pagers;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] {
        return shutdown_ || generation_ != seen_generation;
      });
      if (shutdown_) return;
      seen_generation = generation_;
      batch = current_;
      pagers = session_pagers_;
    }
    {
      // One read session per pager for this worker's whole share of the
      // batch; destruction (reverse order, RAII) merges the thread's
      // IoStats delta back into each pager. Under a live writer
      // (per_item_sessions) the sessions instead scope each item, so the
      // writer's publish gate only drains in-flight queries.
      std::vector<std::unique_ptr<PagerReadSession>> sessions;
      if (!batch->per_item_sessions) {
        sessions.reserve(pagers.size());
        for (Pager* p : pagers) {
          sessions.push_back(std::make_unique<PagerReadSession>(p));
        }
      }
      for (;;) {
        size_t i = batch->next.fetch_add(1, std::memory_order_relaxed);
        if (i >= batch->n) break;
        // Latency probes (ISSUE 5): queue wait = submit to pickup, service
        // = pickup to job return (per-item session open/close included —
        // that cost is part of serving the query). clock == nullptr means
        // neither observability nor the overload ladder is on and no clock
        // is read at all; the recorders may be null individually when the
        // clock serves only the ladder.
        uint64_t picked_ns = 0;
        uint64_t wait_ns = 0;
        if (batch->clock != nullptr) {
          picked_ns = batch->clock->NowNanos();
          wait_ns = picked_ns - batch->submit_ns;
          if (batch->queue != nullptr) batch->queue->RecordNanos(wait_ns);
        }
        // Overload ladder (ISSUE 7): shed outranks degrade. A shed query
        // is completed by on_shed (kUnavailable) without being served, so
        // it records queue wait but no service time.
        if (batch->shed_wait_ns > 0 && wait_ns >= batch->shed_wait_ns) {
          (*batch->on_shed)(i);
          continue;
        }
        if (batch->degrade_wait_ns > 0 && wait_ns >= batch->degrade_wait_ns) {
          (*batch->on_degrade)(i);
        }
        if (batch->per_item_sessions) {
          std::vector<std::unique_ptr<PagerReadSession>> item_sessions;
          item_sessions.reserve(pagers.size());
          for (Pager* p : pagers) {
            item_sessions.push_back(std::make_unique<PagerReadSession>(p));
          }
          (*batch->job)(i);
        } else {
          (*batch->job)(i);
        }
        if (batch->service != nullptr) {
          batch->service->RecordNanos(batch->clock->NowNanos() - picked_ns);
        }
      }
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (++batch->finished_workers == workers_.size()) {
        done_cv_.notify_all();
      }
    }
  }
}

Status QueryExecutor::Execute(std::vector<Pager*> pagers, size_t n,
                              const std::function<void(size_t)>& job,
                              const std::function<Status()>* writer,
                              const BatchObservability* bobs, BatchResult* out,
                              const std::function<void(size_t)>* on_degrade,
                              const std::function<void(size_t)>* on_shed) {
  std::sort(pagers.begin(), pagers.end());
  pagers.erase(std::unique(pagers.begin(), pagers.end()), pagers.end());
  pagers.erase(std::remove(pagers.begin(), pagers.end(), nullptr),
               pagers.end());

  // Mode switch; with a writer, the calling thread (this one) becomes the
  // single writer of every pager. On partial failure, restore the pagers
  // already switched.
  const bool single_writer = writer != nullptr;
  for (size_t i = 0; i < pagers.size(); ++i) {
    Status st = pagers[i]->BeginConcurrentReads(single_writer);
    if (!st.ok()) {
      for (size_t j = 0; j < i; ++j) {
        pagers[j]->EndConcurrentReads().ok();
      }
      return st;
    }
  }

  // Per-batch latency recorders live on this frame; workers reference
  // them only between dispatch and the done_cv_ handshake below.
  const bool record_latency =
      bobs != nullptr && bobs->record_latency && out != nullptr;
  obs::LatencyRecorder service;
  obs::LatencyRecorder queue_wait;

  const bool ladder = bobs != nullptr && bobs->overload.ladder_enabled() &&
                      on_shed != nullptr && on_degrade != nullptr;

  Batch batch;
  batch.n = n;
  batch.job = &job;
  batch.per_item_sessions = single_writer;
  if (record_latency) {
    batch.service = &service;
    batch.queue = &queue_wait;
  }
  if (ladder) {
    batch.degrade_wait_ns = bobs->overload.degrade_queue_wait_ns;
    batch.shed_wait_ns = bobs->overload.shed_queue_wait_ns;
    batch.on_degrade = on_degrade;
    batch.on_shed = on_shed;
  }
  if (record_latency || ladder) {
    batch.clock =
        bobs->clock != nullptr ? bobs->clock : DefaultClock();
    batch.submit_ns = batch.clock->NowNanos();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    current_ = &batch;
    session_pagers_ = pagers;
    ++generation_;
  }
  work_cv_.notify_all();

  // The writer (if any) runs here, concurrent with the workers, mutating
  // through the journal and publishing at its own cadence.
  Status writer_status;
  if (writer != nullptr) writer_status = (*writer)();

  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock,
                  [&] { return batch.finished_workers == workers_.size(); });
    current_ = nullptr;
    session_pagers_.clear();
  }

  if (record_latency) {
    out->service = service.Snapshot();
    out->queue_wait = queue_wait.Snapshot();
    obs::GlobalMetrics().histogram("exec.query.latency")->MergeFrom(service);
    obs::GlobalMetrics().histogram("exec.queue.wait")->MergeFrom(queue_wait);
  }

  // EndConcurrentReads publishes any remaining writer state (it must run
  // on the writer thread — which is this one).
  Status first_error = writer_status;
  for (Pager* p : pagers) {
    Status st = p->EndConcurrentReads();
    if (!st.ok() && first_error.ok()) first_error = st;
  }
  return first_error;
}

Status QueryExecutor::RunSharded(std::vector<Pager*> pagers, size_t n,
                                 const std::function<void(size_t)>& job) {
  return Execute(std::move(pagers), n, job, /*writer=*/nullptr,
                 /*bobs=*/nullptr, /*out=*/nullptr);
}

Status QueryExecutor::RunWithWriter(std::vector<Pager*> pagers, size_t n,
                                    const std::function<void(size_t)>& job,
                                    const std::function<Status()>& writer) {
  return Execute(std::move(pagers), n, job, &writer, /*bobs=*/nullptr,
                 /*out=*/nullptr);
}

namespace {

// Tallies the sampled traces of an instrumented batch: every attached
// ExplainProfile must re-prove the self==total balance invariant (the
// whole point of sampling under concurrency is that the attribution stays
// exact; a mismatch is a bug, so debug builds assert) and, since the query
// paths fill it, the filter-precision phase accounting must balance too
// (candidates = dedup + early + accepts + rejects, results <= candidates).
void TallySampledTraces(BatchResult* out) {
  for (const BatchItemResult& item : out->items) {
    if (item.profile == nullptr) continue;
    ++out->sampled_traces;
    const bool balanced =
        item.profile->SumsBalance() && item.profile->filter.Balances();
    assert(balanced && "sampled ExplainProfile failed balance invariants");
    if (balanced) ++out->balanced_traces;
  }
}

}  // namespace

Status QueryExecutor::RunInstrumented(DualIndex* index,
                                      const std::vector<BatchQuery>& batch,
                                      const BatchObservability& bobs,
                                      BatchResult* out,
                                      const std::function<Status()>* writer) {
  out->items.clear();
  out->items.resize(batch.size());
  out->sampled_traces = 0;
  out->balanced_traces = 0;
  out->shed = 0;
  out->degraded = 0;
  static obs::Counter* const shed_counter =
      obs::GlobalMetrics().counter("exec.shed.count");

  // Bounded admission (ISSUE 7): queries past the capacity are rejected
  // here, before dispatch, so the pool's queue never grows past the bound.
  // Their items still occupy their slots (items[i] <-> batch[i]).
  size_t admitted = batch.size();
  const size_t capacity = bobs.overload.admission_capacity;
  if (capacity > 0 && admitted > capacity) {
    admitted = capacity;
    for (size_t i = admitted; i < batch.size(); ++i) {
      out->items[i].status =
          Status::Unavailable("query shed: admission queue full");
    }
    const uint64_t rejected = batch.size() - admitted;
    out->shed += rejected;
    shed_counter->Increment(rejected);
  }

  obs::TraceSampler sampler(bobs.trace_sample_every, bobs.trace_sample_seed);
  // Ladder bookkeeping. degraded_flags[i] is written by on_degrade and read
  // by job(i) on the same worker thread immediately after, so plain bytes
  // suffice; the counters are cross-thread and atomic.
  std::vector<char> degraded_flags(batch.size(), 0);
  std::atomic<uint64_t> shed_count{0};
  std::atomic<uint64_t> degraded_count{0};
  std::function<void(size_t)> on_shed = [&](size_t i) {
    out->items[i].status =
        Status::Unavailable("query shed: queue wait over threshold");
    shed_count.fetch_add(1, std::memory_order_relaxed);
    shed_counter->Increment();
  };
  std::function<void(size_t)> on_degrade = [&](size_t i) {
    degraded_flags[i] = 1;
    degraded_count.fetch_add(1, std::memory_order_relaxed);
  };

  auto job = [&](size_t i) {
    const BatchQuery& q = batch[i];
    BatchItemResult& item = out->items[i];
    obs::ExplainProfile* profile = nullptr;
    if (degraded_flags[i] == 0 && sampler.enabled() && sampler.ShouldSample(i)) {
      item.profile = std::make_unique<obs::ExplainProfile>();
      profile = item.profile.get();
    }
    Result<std::vector<TupleId>> r =
        index->Select(q.type, q.query, q.method, &item.stats, profile);
    if (r.ok()) {
      item.ids = std::move(r.value());
    } else {
      item.status = r.status();
    }
  };
  Status st = Execute({index->pager(), index->relation()->pager()}, admitted,
                      job, writer, &bobs, out, &on_degrade, &on_shed);
  out->shed += shed_count.load(std::memory_order_relaxed);
  out->degraded = degraded_count.load(std::memory_order_relaxed);
  TallySampledTraces(out);
  return st;
}

Status QueryExecutor::RunBatch(DualIndex* index,
                               const std::vector<BatchQuery>& batch,
                               const BatchObservability& bobs,
                               BatchResult* out) {
  return RunInstrumented(index, batch, bobs, out, /*writer=*/nullptr);
}

Status QueryExecutor::RunBatchWithWriter(DualIndex* index,
                                         const std::vector<BatchQuery>& batch,
                                         const BatchObservability& bobs,
                                         BatchResult* out,
                                         const std::function<Status()>& writer) {
  return RunInstrumented(index, batch, bobs, out, &writer);
}

Status QueryExecutor::RunBatchWithWriter(DualIndex* index,
                                         const std::vector<BatchQuery>& batch,
                                         std::vector<BatchItemResult>* results,
                                         const std::function<Status()>& writer) {
  results->clear();
  results->resize(batch.size());
  auto job = [&](size_t i) {
    const BatchQuery& q = batch[i];
    BatchItemResult& out = (*results)[i];
    Result<std::vector<TupleId>> r =
        index->Select(q.type, q.query, q.method, &out.stats);
    if (r.ok()) {
      out.ids = std::move(r.value());
    } else {
      out.status = r.status();
    }
  };
  return RunWithWriter({index->pager(), index->relation()->pager()},
                       batch.size(), job, writer);
}

Status QueryExecutor::RunBatch(DualIndex* index,
                               const std::vector<BatchQuery>& batch,
                               std::vector<BatchItemResult>* results) {
  results->clear();
  results->resize(batch.size());
  auto job = [&](size_t i) {
    const BatchQuery& q = batch[i];
    BatchItemResult& out = (*results)[i];
    Result<std::vector<TupleId>> r =
        index->Select(q.type, q.query, q.method, &out.stats);
    if (r.ok()) {
      out.ids = std::move(r.value());
    } else {
      out.status = r.status();
    }
  };
  return RunSharded({index->pager(), index->relation()->pager()},
                    batch.size(), job);
}

Status QueryExecutor::RunBatch(RPlusTree* tree, Relation* relation,
                               const std::vector<BatchQuery>& batch,
                               std::vector<BatchItemResult>* results) {
  results->clear();
  results->resize(batch.size());
  auto job = [&](size_t i) {
    const BatchQuery& q = batch[i];
    BatchItemResult& out = (*results)[i];
    Result<std::vector<TupleId>> r =
        RTreeSelect(tree, relation, q.type, q.query, &out.stats);
    if (r.ok()) {
      out.ids = std::move(r.value());
    } else {
      out.status = r.status();
    }
  };
  return RunSharded({tree->pager(), relation->pager()}, batch.size(), job);
}

Status QueryExecutor::RunBatch(DDimDualIndex* index,
                               const std::vector<BatchQueryD>& batch,
                               std::vector<BatchItemResult>* results) {
  results->clear();
  results->resize(batch.size());
  auto job = [&](size_t i) {
    const BatchQueryD& q = batch[i];
    BatchItemResult& out = (*results)[i];
    Result<std::vector<TupleId>> r =
        index->Select(q.type, q.query, q.method, &out.stats);
    if (r.ok()) {
      out.ids = std::move(r.value());
    } else {
      out.status = r.status();
    }
  };
  return RunSharded({index->pager(), index->relation()->pager()},
                    batch.size(), job);
}

}  // namespace exec
}  // namespace cdb
