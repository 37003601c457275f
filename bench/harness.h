// Shared benchmark harness: dataset construction, query calibration,
// measurement loops and table printing for the paper-reproduction benches.

#ifndef CDB_BENCH_HARNESS_H_
#define CDB_BENCH_HARNESS_H_

#include <memory>
#include <string>
#include <vector>

#include <utility>

#include "common/rng.h"
#include "constraint/relation.h"
#include "dualindex/dual_index.h"
#include "obs/metrics.h"
#include "rtree/rplus_tree.h"
#include "workload/generator.h"
#include "workload/query_gen.h"

namespace cdb {
namespace bench {

/// A fully built experimental setup: one relation, a dual index (2k
/// B+-trees on its own pager) and an R+-tree (own pager), all over the same
/// tuples — mirroring Section 5's methodology.
struct Dataset {
  std::unique_ptr<Pager> rel_pager;
  std::unique_ptr<Pager> dual_pager;
  std::unique_ptr<Pager> rtree_pager;
  std::unique_ptr<Relation> relation;
  std::unique_ptr<DualIndex> dual;
  std::unique_ptr<RPlusTree> rtree;
};

struct DatasetConfig {
  int n = 2000;
  ObjectSize size = ObjectSize::kSmall;
  size_t k = 3;  // |S|.
  uint64_t seed = 20260704;
  DualIndexOptions dual_options;
  bool build_rtree = true;
};

/// The slope/angle range shared by the workload and the slope set (stays
/// clear of the vertical, like the paper's constraint angles).
double AngleRange();

/// Builds everything. Aborts the process on error (benchmark context).
Dataset BuildDataset(const DatasetConfig& config);

/// Generates `count` calibrated queries of `type` in the selectivity band.
std::vector<CalibratedQuery> MakeQueries(const Relation& relation,
                                         SelectionType type, int count,
                                         double sel_lo, double sel_hi,
                                         Rng* rng);

/// Aggregated averages over a query set.
struct Measurement {
  double index_fetches = 0;   // Avg index page accesses per query.
  double tuple_fetches = 0;   // Avg relation page accesses (refinement).
  double candidates = 0;
  double false_hits = 0;
  double duplicates = 0;
  double results = 0;
  double selectivity = 0;
  // Filter-precision phase accounting, averaged per query (ISSUE 6): how
  // each candidate left the pipeline, plus the mean per-query precision
  // (results/candidates). All zero for the naive baseline, which has no
  // filter phase — BenchReporter::Add emits the precision keys only for
  // rows with candidates.
  double dedup_dropped = 0;
  double early_accepts = 0;
  double refine_accepts = 0;
  double refine_rejects = 0;
  double precision = 0;
};

/// Runs every query cold-cache through the dual index.
Measurement MeasureDual(Dataset* ds, const std::vector<CalibratedQuery>& qs,
                        QueryMethod method);

/// Runs every query cold-cache through the R+-tree (EXIST scan +
/// refinement; ALL refined by containment).
Measurement MeasureRTree(Dataset* ds, const std::vector<CalibratedQuery>& qs);

/// Naive full-scan baseline (page accesses on the relation pager).
Measurement MeasureNaive(Dataset* ds, const std::vector<CalibratedQuery>& qs);

/// Refinement-substrate measurement: every live tuple id refined against
/// each query through the shared batch refiner. Isolates the refinement
/// constants behind the figure benches: cost per candidate and physical
/// relation-pager reads per candidate (cold cache, candidates in ascending
/// id order).
struct RefineSubstrate {
  double ns_per_candidate = 0;     // Warm timing, min over repetitions.
  double pages_per_candidate = 0;  // Physical reads / candidates (cold).
  double candidates = 0;           // Per pass over the query set.
  double accepts = 0;
};
RefineSubstrate MeasureRefineSubstrate(Dataset* ds,
                                       const std::vector<CalibratedQuery>& qs,
                                       int reps = 3);

/// Warm end-to-end Select latency percentiles in microseconds: one
/// untimed warm-up pass, then `rounds` timed passes over the query set.
struct WarmLatency {
  double p50_us = 0;
  double p99_us = 0;
  double samples = 0;
};
WarmLatency MeasureWarmLatency(Dataset* ds,
                               const std::vector<CalibratedQuery>& qs,
                               QueryMethod method, int rounds = 20);

/// Fixed-width table output helpers.
void PrintTableHeader(const std::string& title,
                      const std::vector<std::string>& columns);
void PrintTableRow(const std::vector<std::string>& cells);
std::string Fmt(double v, int precision = 1);

/// Machine-readable bench artifacts (ISSUE 5). Every bench constructs one
/// from its arguments; `--json <path>` (or `--json=<path>`) enables it and
/// is removed from the arg list. When enabled the process-wide
/// obs::GlobalMetrics() registry is switched on so event counters (LP
/// calls, ...) land in the artifact. Write() emits a schema-versioned
/// `BENCH_<name>.json`:
///
///   {"schema": "cdb-bench/v1", "bench": <name>,
///    "measurements": [{"label":..., "params": {...}, "values": {...}}],
///    "metrics": {"counters": {...}, "gauges": {...}, "histograms": {...}}}
///
/// If the flag value does not end in ".json" it names a directory and the
/// artifact is written as <dir>/BENCH_<name>.json.
class BenchReporter {
 public:
  /// Numeric experiment coordinates for one row ({{"n", 2000}, {"k", 3}}).
  using Params = std::vector<std::pair<std::string, double>>;

  BenchReporter(std::string bench_name, int* argc, char** argv);

  bool enabled() const { return !path_.empty(); }

  /// Records one measurement row (no-op when disabled).
  void Add(const std::string& label, const Params& params,
           const Measurement& m);

  /// Records a single named value (build costs, page counts, ...).
  void AddValue(const std::string& label, const Params& params,
                const std::string& key, double value);

  /// Writes and self-verifies the artifact; prints the path. Returns false
  /// (with a message on stderr) on I/O or self-check failure, true when
  /// disabled or successful.
  bool Write();

 private:
  struct Row {
    std::string label;
    Params params;
    std::vector<std::pair<std::string, double>> values;
  };

  std::string bench_name_;
  std::string path_;  // Empty = disabled.
  std::vector<Row> rows_;
};

/// Emits the "refine" row (ns_per_candidate, pages_per_candidate,
/// candidates, accepts) and, when `warm` is set, the "warm_latency" row
/// (p50_us, p99_us, samples), both under `base_params`. No-op when the
/// reporter is disabled. Aborts if the refiner's accept count differs from
/// NaiveSelect truth summed over the query set.
void ReportRefineRows(Dataset* ds, const std::vector<CalibratedQuery>& qs,
                      BenchReporter* reporter,
                      const BenchReporter::Params& base_params, bool warm,
                      QueryMethod method = QueryMethod::kT2);

}  // namespace bench
}  // namespace cdb

#endif  // CDB_BENCH_HARNESS_H_
