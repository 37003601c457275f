#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "constraint/refine_batch.h"

#include "obs/json.h"
#include "obs/trace.h"
#include "rtree/rtree_query.h"
#include "storage/file.h"

namespace cdb {
namespace bench {

namespace {

void Check(const Status& st, const char* what) {
  if (!st.ok()) {
    std::fprintf(stderr, "FATAL (%s): %s\n", what, st.ToString().c_str());
    std::abort();
  }
}

}  // namespace

std::unique_ptr<Pager> MakeBenchPager() {
  PagerOptions opts;
  opts.page_size = kDefaultPageSize;  // 1024, as in the paper.
  opts.cache_frames = 64;
  std::unique_ptr<Pager> pager;
  Check(Pager::Open(std::make_unique<MemFile>(opts.page_size), opts, &pager),
        "pager open");
  return pager;
}

std::vector<GeneralizedTuple> GenerateTuples(const DatasetConfig& config) {
  Rng rng(config.seed);
  WorkloadOptions w;
  w.size = config.size;
  std::vector<GeneralizedTuple> tuples;
  tuples.reserve(config.n);
  for (int i = 0; i < config.n; ++i) {
    tuples.push_back(RandomBoundedTuple(&rng, w));
  }
  return tuples;
}

// Query slopes and the slope set S share a moderate angle band (slopes up
// to ~tan(0.9) = 1.26). The paper leaves the query-slope distribution
// unspecified; T2's handicap intervals [a_i, a_mid] widen with the slope
// spacing, so the band is the knob that makes the k = 2..5 configurations
// of Figures 8-10 meaningful. Constraint angles still span the paper's full
// [0, pi/2) ∪ (pi/2, pi).
double AngleRange() { return 0.9; }

Dataset BuildDataset(const DatasetConfig& config) {
  Dataset ds;
  ds.rel_pager = MakeBenchPager();
  ds.dual_pager = MakeBenchPager();
  ds.rtree_pager = MakeBenchPager();
  Check(Relation::Open(ds.rel_pager.get(), kInvalidPageId, &ds.relation),
        "relation open");

  std::vector<std::pair<Rect, TupleId>> rects;
  for (const GeneralizedTuple& t : GenerateTuples(config)) {
    Result<TupleId> id = ds.relation->Insert(t);
    Check(id.status(), "relation insert");
    Rect box;
    if (!t.GetBoundingRect(&box)) {
      std::fprintf(stderr, "FATAL: generated tuple is unbounded\n");
      std::abort();
    }
    rects.push_back({box, id.value()});
  }

  SlopeSet slopes =
      SlopeSet::UniformInAngle(config.k, -AngleRange(), AngleRange());
  Check(DualIndex::Build(ds.dual_pager.get(), ds.relation.get(),
                         std::move(slopes), config.dual_options, &ds.dual),
        "dual index build");
  if (config.build_rtree) {
    Check(RPlusTree::BulkBuild(ds.rtree_pager.get(), std::move(rects),
                               &ds.rtree),
          "r+-tree build");
  }
  return ds;
}

std::vector<CalibratedQuery> MakeQueries(const Relation& relation,
                                         SelectionType type, int count,
                                         double sel_lo, double sel_hi,
                                         Rng* rng) {
  std::vector<CalibratedQuery> out;
  for (int i = 0; i < count; ++i) {
    Result<CalibratedQuery> q =
        GenerateQuery(relation, type, sel_lo, sel_hi, rng, AngleRange());
    Check(q.status(), "query calibration");
    out.push_back(q.value());
  }
  return out;
}

namespace {

// Folds one query's filter phase counts into the running measurement. The
// bench artifacts must never publish broken precision rows, so a phase
// accounting that does not balance aborts the benchmark outright.
void AccumulateFilter(const QueryStats& stats, Measurement* m) {
  if (!stats.filter.Balances()) {
    std::fprintf(stderr,
                 "harness: filter accounting does not balance "
                 "(%llu cand = %llu dedup + %llu early + %llu acc + %llu rej "
                 "-> %llu res)\n",
                 static_cast<unsigned long long>(stats.filter.candidates),
                 static_cast<unsigned long long>(stats.filter.dedup_dropped),
                 static_cast<unsigned long long>(stats.filter.early_accepts),
                 static_cast<unsigned long long>(stats.filter.refine_accepts),
                 static_cast<unsigned long long>(stats.filter.refine_rejects),
                 static_cast<unsigned long long>(stats.filter.results));
    std::abort();
  }
  m->dedup_dropped += static_cast<double>(stats.filter.dedup_dropped);
  m->early_accepts += static_cast<double>(stats.filter.early_accepts);
  m->refine_accepts += static_cast<double>(stats.filter.refine_accepts);
  m->refine_rejects += static_cast<double>(stats.filter.refine_rejects);
  m->precision += stats.filter.precision();
}

void AverageFilter(double n, Measurement* m) {
  m->dedup_dropped /= n;
  m->early_accepts /= n;
  m->refine_accepts /= n;
  m->refine_rejects /= n;
  m->precision /= n;
}

}  // namespace

Measurement MeasureDual(Dataset* ds, const std::vector<CalibratedQuery>& qs,
                        QueryMethod method) {
  Measurement m;
  for (const CalibratedQuery& cq : qs) {
    Check(ds->dual_pager->DropCache(), "drop cache");
    Check(ds->rel_pager->DropCache(), "drop cache");
    QueryStats stats;
    Result<std::vector<TupleId>> r =
        ds->dual->Select(cq.type, cq.query, method, &stats);
    Check(r.status(), "dual select");
    m.index_fetches += static_cast<double>(stats.index_page_fetches);
    m.tuple_fetches += static_cast<double>(stats.tuple_page_fetches);
    m.candidates += static_cast<double>(stats.candidates);
    m.results += static_cast<double>(stats.results);
    m.selectivity += cq.selectivity;
    AccumulateFilter(stats, &m);
  }
  double n = static_cast<double>(qs.size());
  m.index_fetches /= n;
  m.tuple_fetches /= n;
  m.candidates /= n;
  m.results /= n;
  m.selectivity /= n;
  AverageFilter(n, &m);
  return m;
}

Measurement MeasureRTree(Dataset* ds, const std::vector<CalibratedQuery>& qs) {
  Measurement m;
  for (const CalibratedQuery& cq : qs) {
    Check(ds->rtree_pager->DropCache(), "drop cache");
    Check(ds->rel_pager->DropCache(), "drop cache");
    QueryStats stats;
    Result<std::vector<TupleId>> r = RTreeSelect(
        ds->rtree.get(), ds->relation.get(), cq.type, cq.query, &stats);
    Check(r.status(), "rtree select");
    m.index_fetches += static_cast<double>(stats.index_page_fetches);
    m.tuple_fetches += static_cast<double>(stats.tuple_page_fetches);
    m.candidates += static_cast<double>(stats.candidates);
    m.results += static_cast<double>(stats.results);
    m.selectivity += cq.selectivity;
    AccumulateFilter(stats, &m);
  }
  double n = static_cast<double>(qs.size());
  m.index_fetches /= n;
  m.tuple_fetches /= n;
  m.candidates /= n;
  m.results /= n;
  m.selectivity /= n;
  AverageFilter(n, &m);
  return m;
}

Measurement MeasureNaive(Dataset* ds, const std::vector<CalibratedQuery>& qs) {
  Measurement m;
  for (const CalibratedQuery& cq : qs) {
    Check(ds->rel_pager->DropCache(), "drop cache");
    // The scan touches only the relation pager; the tracer charges it as
    // the "index" side, so totals.index_fetches is the logical page count
    // the naive baseline is billed (decision 11).
    obs::Tracer tracer("naive/select", ds->rel_pager.get(), nullptr);
    Result<std::vector<TupleId>> r = [&] {
      CDB_TRACE_SPAN("scan");
      return NaiveSelect(*ds->relation, cq.type, cq.query);
    }();
    Check(r.status(), "naive select");
    m.tuple_fetches +=
        static_cast<double>(obs::FinishQueryTrace(&tracer, nullptr).index_fetches);
    m.results += static_cast<double>(r.value().size());
  }
  double n = static_cast<double>(qs.size());
  m.tuple_fetches /= n;
  m.results /= n;
  return m;
}

namespace {

std::vector<TupleId> AllLiveIds(const Relation& relation) {
  std::vector<TupleId> ids;
  Status st = relation.ForEach([&ids](TupleId id, const GeneralizedTuple&) {
    ids.push_back(id);
    return Status::OK();
  });
  Check(st, "relation scan");
  return ids;
}

double NanosSince(std::chrono::steady_clock::time_point start) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

}  // namespace

RefineSubstrate MeasureRefineSubstrate(Dataset* ds,
                                       const std::vector<CalibratedQuery>& qs,
                                       int reps) {
  const std::vector<TupleId> ids = AllLiveIds(*ds->relation);
  obs::Counter* lp_calls = obs::GlobalMetrics().counter("bench.refine.lp_calls");

  RefineSubstrate out;
  auto refine_pass = [&](const CalibratedQuery& cq, std::vector<TupleId>* work) {
    obs::FilterCounts filter;
    Check(RefineBatch2D(*ds->relation, cq.type, cq.query, lp_calls, work,
                        &filter),
          "refine substrate");
    filter.candidates = ids.size();
    filter.results = work->size();
    if (!filter.Balances()) {
      std::fprintf(stderr, "FATAL: refine substrate accounting broken\n");
      std::abort();
    }
  };

  // Deterministic pass: physical relation reads per candidate, cold cache.
  uint64_t reads = 0;
  for (const CalibratedQuery& cq : qs) {
    Check(ds->rel_pager->DropCache(), "drop cache");
    const IoStats before = ds->rel_pager->stats();
    std::vector<TupleId> work = ids;
    refine_pass(cq, &work);
    reads += ds->rel_pager->stats().Delta(before).page_reads;
    out.accepts += static_cast<double>(work.size());
    out.candidates += static_cast<double>(ids.size());
  }
  out.pages_per_candidate = static_cast<double>(reads) / out.candidates;

  // Timed pass: warm cache, min over `reps` full sweeps of the query set.
  double best_ns = 1e18;
  for (int rep = 0; rep <= reps; ++rep) {
    auto start = std::chrono::steady_clock::now();
    for (const CalibratedQuery& cq : qs) {
      std::vector<TupleId> work = ids;
      refine_pass(cq, &work);
    }
    double ns = NanosSince(start);
    if (rep > 0) best_ns = std::min(best_ns, ns);  // rep 0 is the warm-up.
  }
  out.ns_per_candidate = best_ns / out.candidates;
  return out;
}

WarmLatency MeasureWarmLatency(Dataset* ds,
                               const std::vector<CalibratedQuery>& qs,
                               QueryMethod method, int rounds) {
  auto run_pass = [&](std::vector<double>* samples) {
    for (const CalibratedQuery& cq : qs) {
      auto start = std::chrono::steady_clock::now();
      Result<std::vector<TupleId>> r =
          ds->dual->Select(cq.type, cq.query, method, nullptr);
      double us = NanosSince(start) / 1e3;
      Check(r.status(), "warm select");
      if (samples != nullptr) samples->push_back(us);
    }
  };
  run_pass(nullptr);  // Warm both pools.
  std::vector<double> samples;
  samples.reserve(qs.size() * static_cast<size_t>(rounds));
  for (int i = 0; i < rounds; ++i) run_pass(&samples);
  std::sort(samples.begin(), samples.end());
  WarmLatency out;
  out.samples = static_cast<double>(samples.size());
  if (samples.empty()) return out;
  out.p50_us = samples[samples.size() / 2];
  out.p99_us = samples[std::min(samples.size() - 1, samples.size() * 99 / 100)];
  return out;
}

void ReportRefineRows(Dataset* ds, const std::vector<CalibratedQuery>& qs,
                      BenchReporter* reporter,
                      const BenchReporter::Params& base_params, bool warm,
                      QueryMethod method) {
  if (reporter == nullptr || !reporter->enabled()) return;
  double truth = 0;
  for (const CalibratedQuery& cq : qs) {
    Result<std::vector<TupleId>> r =
        NaiveSelect(*ds->relation, cq.type, cq.query);
    Check(r.status(), "naive select");
    truth += static_cast<double>(r.value().size());
  }
  RefineSubstrate rs = MeasureRefineSubstrate(ds, qs);
  if (rs.accepts != truth) {
    std::fprintf(stderr,
                 "FATAL: refinement accepted %.0f candidates, "
                 "naive truth has %.0f\n",
                 rs.accepts, truth);
    std::abort();
  }
  reporter->AddValue("refine", base_params, "ns_per_candidate",
                     rs.ns_per_candidate);
  reporter->AddValue("refine", base_params, "pages_per_candidate",
                     rs.pages_per_candidate);
  reporter->AddValue("refine", base_params, "candidates", rs.candidates);
  reporter->AddValue("refine", base_params, "accepts", rs.accepts);
  if (warm) {
    WarmLatency wl = MeasureWarmLatency(ds, qs, method);
    reporter->AddValue("warm_latency", base_params, "p50_us", wl.p50_us);
    reporter->AddValue("warm_latency", base_params, "p99_us", wl.p99_us);
    reporter->AddValue("warm_latency", base_params, "samples", wl.samples);
  }
}

void PrintTableHeader(const std::string& title,
                      const std::vector<std::string>& columns) {
  std::printf("\n%s\n", title.c_str());
  for (size_t i = 0; i < title.size(); ++i) std::printf("-");
  std::printf("\n");
  for (const std::string& c : columns) std::printf("%12s", c.c_str());
  std::printf("\n");
}

void PrintTableRow(const std::vector<std::string>& cells) {
  for (const std::string& c : cells) std::printf("%12s", c.c_str());
  std::printf("\n");
}

std::string Fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

// --- BenchReporter -----------------------------------------------------------

BenchReporter::BenchReporter(std::string bench_name, int* argc, char** argv)
    : bench_name_(std::move(bench_name)) {
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < *argc) {
      path_ = argv[++i];
      continue;
    }
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      path_ = argv[i] + 7;
      continue;
    }
    argv[out++] = argv[i];
  }
  *argc = out;
  if (enabled()) obs::GlobalMetrics().SetEnabled(true);
}

void BenchReporter::Add(const std::string& label, const Params& params,
                        const Measurement& m) {
  if (!enabled()) return;
  Row row;
  row.label = label;
  row.params = params;
  row.values = {{"index_fetches", m.index_fetches},
                {"tuple_fetches", m.tuple_fetches},
                {"candidates", m.candidates},
                {"false_hits", m.refine_rejects},
                {"duplicates", m.dedup_dropped},
                {"results", m.results},
                {"selectivity", m.selectivity}};
  // Filter-precision keys only where a filter phase ran (not the naive
  // baseline): bench_diff.py ignores keys absent from the baseline, so
  // old artifacts stay comparable.
  if (m.candidates > 0) {
    row.values.emplace_back("dedup_dropped", m.dedup_dropped);
    row.values.emplace_back("early_accepts", m.early_accepts);
    row.values.emplace_back("refine_accepts", m.refine_accepts);
    row.values.emplace_back("refine_rejects", m.refine_rejects);
    row.values.emplace_back("precision", m.precision);
  }
  rows_.push_back(std::move(row));
}

void BenchReporter::AddValue(const std::string& label, const Params& params,
                             const std::string& key, double value) {
  if (!enabled()) return;
  // Consecutive AddValue calls with the same coordinates extend one row.
  if (!rows_.empty() && rows_.back().label == label &&
      rows_.back().params == params) {
    rows_.back().values.emplace_back(key, value);
    return;
  }
  Row row;
  row.label = label;
  row.params = params;
  row.values = {{key, value}};
  rows_.push_back(std::move(row));
}

bool BenchReporter::Write() {
  if (!enabled()) return true;

  obs::JsonWriter w;
  w.BeginObject();
  w.Key("schema").Value("cdb-bench/v1");
  w.Key("bench").Value(bench_name_);
  w.Key("measurements").BeginArray();
  for (const Row& row : rows_) {
    w.BeginObject();
    w.Key("label").Value(row.label);
    w.Key("params").BeginObject();
    for (const auto& [name, value] : row.params) w.Key(name).Value(value);
    w.EndObject();
    w.Key("values").BeginObject();
    for (const auto& [name, value] : row.values) w.Key(name).Value(value);
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.Key("metrics");
  obs::GlobalMetrics().WriteJson(&w);
  w.EndObject();
  std::string json = w.TakeString();

  // Self-check: the artifact must parse back and carry the schema marker.
  Result<obs::JsonValue> parsed = obs::ParseJson(json);
  if (!parsed.ok()) {
    std::fprintf(stderr, "BenchReporter: artifact self-check failed: %s\n",
                 parsed.status().ToString().c_str());
    return false;
  }
  const obs::JsonValue* schema = parsed.value().Find("schema");
  if (schema == nullptr || schema->string_value != "cdb-bench/v1") {
    std::fprintf(stderr, "BenchReporter: artifact missing schema marker\n");
    return false;
  }

  std::string path = path_;
  bool is_file = path.size() > 5 &&
                 path.compare(path.size() - 5, 5, ".json") == 0;
  if (!is_file) {
    if (!path.empty() && path.back() != '/') path += '/';
    path += "BENCH_" + bench_name_ + ".json";
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "BenchReporter: cannot open %s\n", path.c_str());
    return false;
  }
  size_t written = std::fwrite(json.data(), 1, json.size(), f);
  bool ok = written == json.size() && std::fputc('\n', f) != EOF;
  ok = std::fclose(f) == 0 && ok;
  if (!ok) {
    std::fprintf(stderr, "BenchReporter: short write to %s\n", path.c_str());
    return false;
  }
  std::printf("\nwrote %s (%zu measurements)\n", path.c_str(), rows_.size());
  return true;
}

}  // namespace bench
}  // namespace cdb
