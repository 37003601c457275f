#include "fixture.h"

#include <atomic>
#include <cstdio>
#include <deque>
#include <thread>
#include <utility>

#include "constraint/naive_eval.h"
#include "stats.h"
#include "storage/file.h"

namespace perfbench {

using cdb::Status;
using cdb::TupleId;

namespace {

// Queries each reader pass may draw; far more than two readers finish
// while one pass appends the stream.
constexpr size_t kReaderQueryPool = 8192;

Status OpenPager(size_t frames, std::unique_ptr<cdb::Pager>* out) {
  cdb::PagerOptions options;
  options.page_size = kPageSize;
  options.cache_frames = frames;
  return cdb::Pager::Open(
      std::make_unique<cdb::MemFile>(kPageSize),
      std::make_unique<cdb::MemFile>(cdb::Pager::JournalBlockSize(kPageSize)),
      options, out);
}

double SecondsSince(uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

// One query as a client sees it: DualIndex::Select, timed around the call.
void TimedSelect(cdb::DualIndex* index, const BenchQuery& bq,
                 QueryOutcome* o) {
  const uint64_t t0 = NowNs();
  cdb::Result<std::vector<TupleId>> r =
      index->Select(bq.type, bq.q, cdb::QueryMethod::kAuto);
  o->ms = static_cast<double>(NowNs() - t0) / 1e6;
  o->ran = true;
  o->ok = r.ok();
  if (r.ok()) o->ids = std::move(r).value();
}

bool SameTuple(const cdb::GeneralizedTuple& a, const cdb::GeneralizedTuple& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    const cdb::Constraint2D& x = a.constraints()[i];
    const cdb::Constraint2D& y = b.constraints()[i];
    if (x.a != y.a || x.b != y.b || x.c != y.c || x.cmp != y.cmp) return false;
  }
  return true;
}

}  // namespace

void Fixture::MapId(TupleId id, size_t input) {
  if (input_of_id.size() <= id) input_of_id.resize(id + 1, -1);
  input_of_id[id] = static_cast<int64_t>(input);
}

Status SetUp(const Inputs& in, Fixture* fx) {
  const uint64_t t0 = NowNs();
  CDB_RETURN_IF_ERROR(OpenPager(in.spec().cache_frames, &fx->rel_pager));
  CDB_RETURN_IF_ERROR(OpenPager(in.spec().cache_frames, &fx->idx_pager));
  CDB_RETURN_IF_ERROR(cdb::Relation::Open(fx->rel_pager.get(),
                                          cdb::kInvalidPageId, &fx->relation));
  // Every fresh database runs with the bounding-box sidecar on.
  CDB_RETURN_IF_ERROR(fx->relation->EnableBoundingBoxCache());
  for (size_t t = 0; t < in.n0(); ++t) {
    cdb::Result<TupleId> id = fx->relation->Insert(in.tuples()[t]);
    if (!id.ok()) return id.status();
    fx->MapId(id.value(), t);
  }
  CDB_RETURN_IF_ERROR(fx->rel_pager->Flush());
  const uint64_t t1 = NowNs();

  cdb::DualIndexOptions options;
  options.incremental_handicaps = true;
  CDB_RETURN_IF_ERROR(cdb::DualIndex::Build(fx->idx_pager.get(),
                                            fx->relation.get(), in.slope_set(),
                                            options, &fx->index));
  CDB_RETURN_IF_ERROR(fx->idx_pager->Flush());
  fx->relation_load_s = static_cast<double>(t1 - t0) / 1e9;
  fx->build_s = SecondsSince(t1);
  fx->setup_s = SecondsSince(t0);
  return Status::OK();
}

bool ResultMatches(const Inputs& in, const Fixture& fx, const BenchQuery& q,
                   const std::vector<TupleId>& ids, size_t required_upto) {
  size_t required_seen = 0;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i > 0 && ids[i] <= ids[i - 1]) return false;
    if (ids[i] >= fx.input_of_id.size()) return false;
    const int64_t input = fx.input_of_id[ids[i]];
    if (input < 0 || !in.Qualifies(q, static_cast<size_t>(input))) {
      return false;
    }
    if (static_cast<size_t>(input) < required_upto) ++required_seen;
  }
  size_t required = 0;
  for (size_t t = 0; t < required_upto; ++t) {
    if (in.Qualifies(q, t)) ++required;
  }
  return required_seen == required;
}

std::vector<BenchQuery> MakeQueries(const Inputs& in, uint64_t first,
                                    size_t count) {
  std::vector<BenchQuery> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) out.push_back(in.Query(first + i));
  return out;
}

Status RunQueryBatch(cdb::exec::QueryExecutor* executor, Fixture* fx,
                     const std::vector<BenchQuery>& queries,
                     std::vector<QueryOutcome>* out, double* wall_s) {
  out->assign(queries.size(), QueryOutcome());
  cdb::DualIndex* index = fx->index.get();
  const uint64_t start = NowNs();
  Status st = executor->RunSharded(
      {fx->idx_pager.get(), fx->rel_pager.get()}, queries.size(),
      [&](size_t i) { TimedSelect(index, queries[i], &(*out)[i]); });
  *wall_s = SecondsSince(start);
  return st;
}

Status RunIngest(const Inputs& in, Fixture* fx, uint64_t query_base,
                 cdb::obs::IngestPipelineRecorders* pipeline, IngestRun* out) {
  const size_t n0 = in.n0();
  const size_t total = in.spec().appends;
  const size_t readers = in.spec().ingest_readers;
  *out = IngestRun();
  if (readers > 0) {
    CDB_RETURN_IF_ERROR(fx->relation->BeginOnlineAppends(total));
  }

  cdb::exec::IngestQueueOptions options;
  options.max_group_size = kGroupSize;
  options.commit_wait_ns = 0;
  options.pipeline = pipeline;
  cdb::exec::IngestQueue queue(fx->relation.get(), fx->index.get(),
                               fx->rel_pager.get(), fx->idx_pager.get(),
                               options);

  std::vector<uint64_t> submit_ns(total, 0), ack_ns(total, 0);
  std::vector<TupleId> ids(total, 0);
  std::vector<char> acked(total, 0);
  size_t failed = 0;  // Producer thread only until joined.

  // One producer: submits in stream order and never has more than
  // kAppendWindow appends unresolved. It harvests resolutions in order,
  // blocking only on the oldest when the window is full, so an ack is
  // stamped as soon as its group publishes.
  auto producer = [&] {
    std::deque<std::pair<size_t, cdb::exec::IngestHandle>> window;
    auto harvest = [&](bool block_on_oldest) {
      while (!window.empty()) {
        auto& [j, handle] = window.front();
        if (!block_on_oldest && !handle.done()) return;
        cdb::Result<TupleId> r = handle.Wait();
        ack_ns[j] = NowNs();
        if (r.ok()) {
          ids[j] = r.value();
          acked[j] = 1;
        } else {
          ++failed;
        }
        window.pop_front();
        block_on_oldest = false;
      }
    };
    for (size_t j = 0; j < total; ++j) {
      while (window.size() >= kAppendWindow) harvest(true);
      submit_ns[j] = NowNs();
      cdb::Result<cdb::exec::IngestHandle> h =
          queue.Submit(in.tuples()[n0 + j]);
      if (!h.ok()) {
        ++failed;
        continue;
      }
      window.emplace_back(j, h.value());
      harvest(false);
    }
    queue.Close();
    while (!window.empty()) harvest(true);
  };

  std::atomic<bool> done{false};
  uint64_t start_ns = 0, end_ns = 0;
  auto writer = [&]() -> Status {
    start_ns = NowNs();
    std::thread producer_thread(producer);
    Status st = queue.RunWriter();
    end_ns = NowNs();
    done.store(true, std::memory_order_release);
    producer_thread.join();
    return st;
  };

  Status run_status, writer_status;
  if (readers == 0) {
    writer_status = writer();
  } else {
    out->queries = MakeQueries(in, query_base, kReaderQueryPool);
    out->reads.assign(out->queries.size(), QueryOutcome());
    cdb::DualIndex* index = fx->index.get();
    cdb::exec::QueryExecutor executor(readers);
    run_status = executor.RunWithWriter(
        {fx->idx_pager.get(), fx->rel_pager.get()}, out->queries.size(),
        [&](size_t i) {
          if (done.load(std::memory_order_acquire)) return;
          TimedSelect(index, out->queries[i], &out->reads[i]);
        },
        [&] {
          writer_status = writer();
          return writer_status;
        });
    if (out->reads.back().ran) {
      std::fprintf(stderr, "warning: readers may have run out of queries "
                           "before the ingest finished\n");
    }
  }

  out->wall_s = static_cast<double>(end_ns - start_ns) / 1e9;
  out->queue = queue.stats();
  out->submitted = total;
  out->failed = failed;
  for (size_t j = 0; j < total; ++j) {
    if (!acked[j]) continue;
    ++out->acked;
    out->ack_ms.push_back(static_cast<double>(ack_ns[j] - submit_ns[j]) / 1e6);
    fx->MapId(ids[j], n0 + j);
  }
  if (!writer_status.ok()) return writer_status;
  return run_status;
}

size_t CheckAfterIngest(const Inputs& in, const Fixture& fx,
                        const IngestRun& run) {
  size_t violations = 0;
  if (fx.relation->size() != in.n0() + run.acked) {
    std::fprintf(stderr, "check: relation holds %llu tuples, expected %zu\n",
                 static_cast<unsigned long long>(fx.relation->size()),
                 in.n0() + run.acked);
    ++violations;
  }
  size_t unreadable = 0;
  for (TupleId id = 0; id < fx.input_of_id.size(); ++id) {
    const int64_t input = fx.input_of_id[id];
    if (input < static_cast<int64_t>(in.n0())) continue;  // Not an append.
    cdb::GeneralizedTuple t;
    if (!fx.relation->Get(id, &t).ok() ||
        !SameTuple(t, in.tuples()[static_cast<size_t>(input)])) {
      ++unreadable;
    }
  }
  if (unreadable > 0) {
    std::fprintf(stderr, "check: %zu acknowledged appends do not read back\n",
                 unreadable);
    violations += unreadable;
  }
  Status inv = fx.index->CheckInvariants();
  if (!inv.ok()) {
    std::fprintf(stderr, "check: index invariants: %s\n",
                 inv.ToString().c_str());
    ++violations;
  }
  return violations;
}

size_t NaiveCrossCheck(const Inputs& in, Fixture* fx, size_t count) {
  size_t mismatches = 0;
  for (const BenchQuery& bq : MakeQueries(in, 0, count)) {
    cdb::Result<std::vector<TupleId>> r =
        cdb::NaiveSelect(*fx->relation, bq.type, bq.q);
    if (!r.ok() || !ResultMatches(in, *fx, bq, r.value(), in.n0())) {
      ++mismatches;
    }
  }
  if (mismatches > 0) {
    std::fprintf(stderr,
                 "check: %zu of %zu queries disagree with NaiveSelect\n",
                 mismatches, count);
  }
  return mismatches;
}

Status ColdPagesPerQuery(const Inputs& in, Fixture* fx, size_t count,
                         size_t required_upto, double* pages,
                         double* index_fetches, size_t* mismatches) {
  uint64_t total = 0, index_total = 0;
  for (const BenchQuery& bq : MakeQueries(in, 0, count)) {
    CDB_RETURN_IF_ERROR(fx->idx_pager->DropCache());
    CDB_RETURN_IF_ERROR(fx->rel_pager->DropCache());
    cdb::QueryStats stats;
    cdb::Result<std::vector<TupleId>> r =
        fx->index->Select(bq.type, bq.q, cdb::QueryMethod::kAuto, &stats);
    if (!r.ok() || !ResultMatches(in, *fx, bq, r.value(), required_upto)) {
      ++*mismatches;
    }
    total += stats.index_page_fetches + stats.tuple_page_fetches;
    index_total += stats.index_page_fetches;
  }
  *pages = static_cast<double>(total) / static_cast<double>(count);
  if (index_fetches != nullptr) {
    *index_fetches =
        static_cast<double>(index_total) / static_cast<double>(count);
  }
  return Status::OK();
}

}  // namespace perfbench
