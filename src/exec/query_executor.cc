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

namespace {

// Runs job(i) inside one read session per pager in [first, last). The
// sessions nest on the stack, so opening them allocates nothing; closing
// each merges this thread's IoStats delta into its pager and, under a live
// writer, lets a waiting publish proceed.
void RunInSessions(Pager* const* first, Pager* const* last,
                   const std::function<void(size_t)>& job, size_t i) {
  if (first == last) {
    job(i);
    return;
  }
  PagerReadSession session(*first);
  RunInSessions(first + 1, last, job, i);
}

}  // namespace

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
    for (;;) {
      size_t i = batch->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= batch->n) break;
      // Latency probes: queue wait = submit to pickup, service
      // = pickup to job return (session open/close included — that cost
      // is part of serving the query). clock == nullptr means latency
      // recording is off and no clock is read at all.
      uint64_t picked_ns = 0;
      if (batch->clock != nullptr) {
        picked_ns = batch->clock->NowNanos();
        batch->queue->RecordNanos(picked_ns - batch->submit_ns);
      }
      RunInSessions(pagers.data(), pagers.data() + pagers.size(), *batch->job,
                    i);
      if (batch->clock != nullptr) {
        batch->service->RecordNanos(batch->clock->NowNanos() - picked_ns);
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
                              const std::function<Status()>& writer,
                              Clock* clock, BatchResult* out) {
  std::sort(pagers.begin(), pagers.end());
  pagers.erase(std::unique(pagers.begin(), pagers.end()), pagers.end());
  pagers.erase(std::remove(pagers.begin(), pagers.end(), nullptr),
               pagers.end());

  // Mode switch; with a writer, the calling thread (this one) becomes the
  // single writer of every pager. On partial failure, restore the pagers
  // already switched.
  const bool single_writer = static_cast<bool>(writer);
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
  obs::LatencyRecorder service;
  obs::LatencyRecorder queue_wait;

  Batch batch;
  batch.n = n;
  batch.job = &job;
  if (clock != nullptr) {
    batch.service = &service;
    batch.queue = &queue_wait;
    batch.clock = clock;
    batch.submit_ns = clock->NowNanos();
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
  if (single_writer) writer_status = writer();

  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock,
                  [&] { return batch.finished_workers == workers_.size(); });
    current_ = nullptr;
    session_pagers_.clear();
  }

  if (clock != nullptr) {
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
  return Execute(std::move(pagers), n, job, /*writer=*/{}, /*clock=*/nullptr,
                 /*out=*/nullptr);
}

Status QueryExecutor::RunWithWriter(std::vector<Pager*> pagers, size_t n,
                                    const std::function<void(size_t)>& job,
                                    const std::function<Status()>& writer) {
  return Execute(std::move(pagers), n, job, writer, /*clock=*/nullptr,
                 /*out=*/nullptr);
}

namespace {

// Tallies the sampled traces of a batch: every attached ExplainProfile
// must re-prove the self==total balance invariant (the whole point of
// sampling under concurrency is that the attribution stays exact; a
// mismatch is a bug, so debug builds assert) and, since the query paths
// fill it, the filter-precision phase accounting must balance too
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

Status QueryExecutor::RunBatch(DualIndex* index,
                               const std::vector<BatchQuery>& batch,
                               const BatchObservability& bobs,
                               BatchResult* out,
                               const std::function<Status()>& writer) {
  out->items.clear();
  out->items.resize(batch.size());
  out->sampled_traces = 0;
  out->balanced_traces = 0;
  out->shed = 0;
  // Filled only when the batch records latency; a reused `out` must not
  // keep the previous batch's digests.
  out->service = {};
  out->queue_wait = {};

  // Bounded admission (ISSUE 7): queries past the capacity are rejected
  // here, before dispatch, so the pool's queue never grows past the bound.
  // Their items still occupy their slots (items[i] <-> batch[i]).
  size_t admitted = batch.size();
  const size_t capacity = bobs.admission_capacity;
  if (capacity > 0 && admitted > capacity) {
    admitted = capacity;
    for (size_t i = admitted; i < batch.size(); ++i) {
      out->items[i].status =
          Status::Unavailable("query shed: admission queue full");
    }
    static obs::Counter* const shed_counter =
        obs::GlobalMetrics().counter("exec.shed.count");
    out->shed = batch.size() - admitted;
    shed_counter->Increment(out->shed);
  }

  obs::TraceSampler sampler(bobs.trace_sample_every, bobs.trace_sample_seed);

  auto job = [&](size_t i) {
    const BatchQuery& q = batch[i];
    BatchItemResult& item = out->items[i];
    obs::ExplainProfile* profile = nullptr;
    if (sampler.enabled() && sampler.ShouldSample(i)) {
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
                      job, writer, bobs.clock, out);
  TallySampledTraces(out);
  return st;
}

}  // namespace exec
}  // namespace cdb
