// Timed run: the end-to-end metrics, measured with tracing off.
//
// serve_hot / serve_spill: `setups` timed set-ups. The first one runs the
// NaiveSelect cross-check, the cold cost-model pass, an untimed warm-up
// batch, and closed-loop batches of kClients workers until `seconds` of
// batch wall time are measured. Every later one takes a 4096-append probe
// through the ingest lane alone, which gives these workloads their append
// metrics. Serving rounds and set-ups with their probes alternate.
//
// ingest_serve: seconds * kPassesPerSecond rounds of (set-up, an ingest
// pass with readers on it, then a second set-up that is only timed).
//
// Peak memory is read while only the first set-up exists, so it prices
// one serving process, not the copies the run keeps alive.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "fixture.h"
#include "runs.h"

namespace perfbench {

namespace {

using cdb::Status;

// Queries the cost-model pass and the NaiveSelect cross-check cover.
constexpr size_t kColdQueries = 256;
constexpr size_t kNaiveQueries = 8;
// ingest_serve makes this many ingest passes per second asked for (6 at
// 10 s; each takes about 4 s with its two set-ups). The count does not
// depend on timing, so every run takes its quartiles over the same number.
constexpr double kPassesPerSecond = 0.6;

// Timings and rates are taken per segment — one query batch, one ingest
// pass, one set-up — and the run reports the good quartile of its
// segments (see GoodQuartile), so host noise in some segments cannot move
// the result. That matters most for the ack p99: the acks of one group
// resolve together, so a pass's p99 rests on its slowest two groups, and
// ack percentiles pooled over all passes took up one pass's burst whole.
struct Tally {
  RunReport report;
  std::vector<double> setup_s;
  std::vector<double> query_p50, query_p99, query_qps;  // Per segment.
  std::vector<double> append_rate, ack_p50, ack_p99;    // Per pass.
  size_t queries_run = 0;
  double query_wall_s = 0;
  size_t acked = 0;
  double ingest_wall_s = 0;

  void Fail(const char* what, const Status& st) {
    std::fprintf(stderr, "%s: %s\n", what, st.ToString().c_str());
    ++report.failed;
  }

  // Books one segment of query outcomes run in `wall_s`; `required_upto`
  // as in ResultMatches.
  void AddQueries(const Inputs& in, const Fixture& fx,
                  const std::vector<BenchQuery>& queries,
                  const std::vector<QueryOutcome>& outcomes,
                  size_t required_upto, double wall_s) {
    size_t wrong = 0;
    std::vector<double> ms;
    for (size_t i = 0; i < outcomes.size(); ++i) {
      const QueryOutcome& o = outcomes[i];
      if (!o.ran) continue;
      ++report.attempted;
      if (!o.ok) {
        ++report.failed;
        continue;
      }
      ms.push_back(o.ms);
      if (!ResultMatches(in, fx, queries[i], o.ids, required_upto)) ++wrong;
    }
    if (wrong > 0) {
      std::fprintf(stderr, "check: %zu query answers are wrong\n", wrong);
      report.failed += wrong;
    }
    queries_run += ms.size();
    query_wall_s += wall_s;
    query_qps.push_back(Ratio(static_cast<double>(ms.size()), wall_s));
    query_p50.push_back(Percentile(ms, 0.50));
    query_p99.push_back(Percentile(std::move(ms), 0.99));
  }

  void AddIngest(const Inputs& in, const Fixture& fx, const IngestRun& run) {
    report.attempted += run.submitted;
    report.failed += run.failed;
    acked += run.acked;
    ingest_wall_s += run.wall_s;
    append_rate.push_back(Ratio(static_cast<double>(run.acked), run.wall_s));
    ack_p50.push_back(Percentile(run.ack_ms, 0.50));
    ack_p99.push_back(Percentile(run.ack_ms, 0.99));
    report.failed += CheckAfterIngest(in, fx, run);
  }

  // Books the answers of reads that raced an append probe.
  void CheckReads(const Inputs& in, const Fixture& fx, const IngestRun& run) {
    for (size_t i = 0; i < run.reads.size(); ++i) {
      const QueryOutcome& o = run.reads[i];
      if (!o.ran) continue;
      ++report.attempted;
      if (!o.ok || !ResultMatches(in, fx, run.queries[i], o.ids, in.n0())) {
        ++report.failed;
      }
    }
  }

  void AddChecks(size_t count, size_t mismatches) {
    report.attempted += count;
    report.failed += mismatches;
  }
};

}  // namespace

RunReport RunTimed(const Inputs& in, double seconds) {
  const WorkloadSpec& spec = in.spec();
  Tally tally;
  // Set-ups stay alive until the run ends, so each is built in fresh
  // memory. One built in the memory its predecessor freed appended up to a
  // third slower, and unevenly: alternate set-ups ran fast and slow.
  std::vector<std::unique_ptr<Fixture>> fixtures;
  Fixture* fx = nullptr;
  double pages_per_query = 0, peak_rss_mb = 0;

  auto set_up = [&]() -> bool {
    fixtures.push_back(std::make_unique<Fixture>());
    fx = fixtures.back().get();
    Status st = SetUp(in, fx);
    if (!st.ok()) {
      tally.Fail("set-up", st);
      return false;
    }
    tally.setup_s.push_back(fx->setup_s);
    return true;
  };
  auto cold_pass = [&](size_t required_upto) {
    size_t wrong = 0;
    Status st = ColdPagesPerQuery(in, fx, kColdQueries, required_upto,
                                  &pages_per_query, nullptr, &wrong);
    if (!st.ok()) tally.Fail("cold pass", st);
    tally.AddChecks(kColdQueries, wrong);
  };

  // One append probe on the current (fresh) set-up: ingest_serve's lane
  // with the workload's ingest readers, none on the serve workloads.
  // Readers on the probe's own index pace its commits and publishes with
  // their queries, which made the append rate follow the seed (1200
  // against 1650 appends/s, run after run).
  auto probe = [&](uint64_t query_base) {
    IngestRun run;
    Status st = RunIngest(in, fx, query_base, nullptr, &run);
    if (!st.ok()) tally.Fail("append probe", st);
    tally.AddIngest(in, *fx, run);
    tally.CheckReads(in, *fx, run);
  };

  // Live index pages per 1000 tuples: of the serving set-up's bulk-built
  // index on the serve workloads, of the last index after its appends on
  // ingest_serve.
  double index_pages_per_ktuple = 0;
  auto index_pages = [&] {
    index_pages_per_ktuple =
        Ratio(static_cast<double>(fx->index->live_page_count()),
              static_cast<double>(fx->relation->size()) / 1000.0);
  };

  if (spec.batch > 0) {
    // The first set-up serves; every later one takes a probe right after
    // set-up. A probe on an index that has just served appended up to a
    // third slower, and unevenly: switching the pagers into
    // concurrent-read mode and back moves every buffered frame.
    if (!set_up()) return tally.report;
    Fixture* server = fx;
    tally.AddChecks(kNaiveQueries, NaiveCrossCheck(in, server, kNaiveQueries));
    cold_pass(in.n0());
    index_pages();

    cdb::exec::QueryExecutor executor(kClients);
    uint64_t next = 0;  // Every batch draws fresh queries.
    std::vector<QueryOutcome> outcomes;
    auto serve = [&](size_t size, bool measured) {
      std::vector<BenchQuery> batch = MakeQueries(in, next, size);
      next += size;
      double wall = 0;
      Status st = RunQueryBatch(&executor, server, batch, &outcomes, &wall);
      if (!st.ok()) {
        tally.Fail("query batch", st);
        return false;
      }
      if (measured) {
        tally.AddQueries(in, *server, batch, outcomes, in.n0(), wall);
      }
      return true;
    };
    // The warm-up batch warms caches and the thread pool; not measured.
    if (!serve(spec.batch / 8, false)) return tally.report;
    // Serving rounds and probes alternate, so both spread over the whole
    // run: the host slows down for 10-20 s at a time, long enough to
    // cover every probe when they all ran after the serving.
    const int probes = spec.setups - 1;
    for (int round = 0; round <= probes; ++round) {
      const double until = seconds * (round + 1) / (probes + 1);
      while (tally.query_wall_s < until) {
        if (!serve(spec.batch, true)) return tally.report;
      }
      if (round == 0) peak_rss_mb = PeakRssMb();  // One set-up exists yet.
      if (round == probes) break;
      if (!set_up()) return tally.report;
      probe((1ull << 40) + (static_cast<uint64_t>(round + 1) << 32));
    }
  } else {
    const uint64_t passes = std::max<uint64_t>(
        1, static_cast<uint64_t>(std::lround(seconds * kPassesPerSecond)));
    for (uint64_t round = 0; round < passes; ++round) {
      if (!set_up()) return tally.report;
      Fixture* lane = fx;
      if (round == 0) {
        tally.AddChecks(kNaiveQueries,
                        NaiveCrossCheck(in, lane, kNaiveQueries));
      }
      IngestRun run;
      // Each round's readers draw fresh queries.
      Status st = RunIngest(in, lane, (round + 1) << 32, nullptr, &run);
      if (!st.ok()) {
        tally.Fail("ingest pass", st);
        return tally.report;
      }
      tally.AddIngest(in, *lane, run);
      tally.AddQueries(in, *lane, run.queries, run.reads, in.n0(),
                       run.wall_s);
      if (round == 0) peak_rss_mb = PeakRssMb();
      // A second set-up per round, timed only. A set-up lands in fast or
      // slow memory (0.7 against 1.1 s), and with one a pass the good
      // quartile of six flipped between the two from run to run.
      if (!set_up()) return tally.report;
      fx = lane;
    }
    // Priced on the final index, after the lane closed: every append is
    // now required in the answers.
    cold_pass(in.tuples().size());
    index_pages();
  }

  RunReport& r = tally.report;
  r.metrics = {
      {"query_p50_ms", GoodQuartile(tally.query_p50, Better::kLower), "ms"},
      {"query_p99_ms", GoodQuartile(tally.query_p99, Better::kLower), "ms"},
      {"query_qps", GoodQuartile(tally.query_qps, Better::kHigher), "1/s"},
      {"pages_per_query", pages_per_query, "pages"},
      {"append_per_s", GoodQuartile(tally.append_rate, Better::kHigher),
       "1/s"},
      {"append_ack_p50_ms", GoodQuartile(tally.ack_p50, Better::kLower), "ms"},
      {"append_ack_p99_ms", GoodQuartile(tally.ack_p99, Better::kLower), "ms"},
      {"setup_s", GoodQuartile(tally.setup_s, Better::kLower), "s"},
      {"index_pages_per_ktuple", index_pages_per_ktuple, "pages"},
      {"peak_rss_mb", peak_rss_mb, "MiB"},
      {"ok_ratio", OkRatio(r.attempted, r.failed), "ratio"},
  };
  std::fprintf(stderr,
               "%s: %zu queries in %zu segments, %.3f s; %zu appends in %zu "
               "passes, %.3f s; %zu set-ups\n",
               spec.name.c_str(), tally.queries_run, tally.query_p50.size(),
               tally.query_wall_s, tally.acked, tally.append_rate.size(),
               tally.ingest_wall_s, tally.setup_s.size());
  return r;
}

}  // namespace perfbench
