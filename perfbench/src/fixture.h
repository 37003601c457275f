// The library under test, set up the way a serving process holds it, and
// the three ways the benchmark drives it: a closed-loop query batch on the
// executor, an ingest pass through the group-commit queue, and the checks
// against the input oracle.

#ifndef PERFBENCH_FIXTURE_H_
#define PERFBENCH_FIXTURE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "constraint/relation.h"
#include "dualindex/dual_index.h"
#include "exec/ingest_queue.h"
#include "exec/query_executor.h"
#include "inputs.h"
#include "obs/pipeline.h"
#include "storage/pager.h"

namespace perfbench {

/// Relation and dual index on two journaled in-memory pagers.
struct Fixture {
  std::unique_ptr<cdb::Pager> rel_pager;
  std::unique_ptr<cdb::Pager> idx_pager;
  std::unique_ptr<cdb::Relation> relation;
  std::unique_ptr<cdb::DualIndex> index;
  /// Input tuple index of each stored TupleId (-1: not from the inputs).
  std::vector<int64_t> input_of_id;

  double relation_load_s = 0;  // Pager open + Relation::Insert + commit.
  double build_s = 0;          // DualIndex::Build + commit.
  double setup_s = 0;          // Both.

  void MapId(cdb::TupleId id, size_t input);
};

/// Opens the pagers, inserts the n0 starting tuples, builds the index with
/// k augmented trees per side (incremental handicaps) and commits both.
cdb::Status SetUp(const Inputs& in, Fixture* fx);

/// Whether `ids` is the exact answer to `q`: strictly ascending, every id
/// a stored input tuple that qualifies, and every qualifying input below
/// `required_upto` present. Inputs at or above it (appends a reader may or
/// may not see yet) are allowed but not required.
bool ResultMatches(const Inputs& in, const Fixture& fx, const BenchQuery& q,
                   const std::vector<cdb::TupleId>& ids, size_t required_upto);

/// Queries [first, first + count) of the seed's stream.
std::vector<BenchQuery> MakeQueries(const Inputs& in, uint64_t first,
                                    size_t count);

struct QueryOutcome {
  bool ran = false;
  bool ok = false;
  double ms = 0;  // Around DualIndex::Select.
  std::vector<cdb::TupleId> ids;
};

/// Runs `queries` as one QueryExecutor::RunSharded batch: each job times
/// its own DualIndex::Select. `wall_s` receives the batch's wall time.
cdb::Status RunQueryBatch(cdb::exec::QueryExecutor* executor, Fixture* fx,
                          const std::vector<BenchQuery>& queries,
                          std::vector<QueryOutcome>* out, double* wall_s);

/// Outcome of one ingest pass.
struct IngestRun {
  size_t submitted = 0;
  size_t acked = 0;
  size_t failed = 0;           // Refused at Submit or resolved with an error.
  std::vector<double> ack_ms;  // Submit to handle resolution, per ack.
  double wall_s = 0;           // First Submit to the last publish.
  cdb::exec::IngestQueueStats queue;
  /// Queries the readers ran during the pass (ran == false: not reached).
  std::vector<BenchQuery> queries;
  std::vector<QueryOutcome> reads;
};

/// Appends the workload's stream through an exec::IngestQueue (group size
/// kGroupSize, no commit wait) fed by one producer thread that keeps at
/// most kAppendWindow appends outstanding. With spec.ingest_readers > 0
/// the writer runs under QueryExecutor::RunWithWriter while that many
/// workers run queries [query_base, ...) until the last group publishes;
/// otherwise the writer runs alone. Acknowledged ids are mapped into `fx`.
cdb::Status RunIngest(const Inputs& in, Fixture* fx, uint64_t query_base,
                      cdb::obs::IngestPipelineRecorders* pipeline,
                      IngestRun* out);

/// After an ingest pass: the relation holds n0 + acked tuples, every
/// acknowledged tuple reads back unchanged, and the index invariants
/// hold. Returns the number of violations (each named on stderr).
size_t CheckAfterIngest(const Inputs& in, const Fixture& fx,
                        const IngestRun& run);

/// Cross-checks queries [0, count) against constraint/naive_eval's
/// NaiveSelect on the starting relation; returns the mismatches.
size_t NaiveCrossCheck(const Inputs& in, Fixture* fx, size_t count);

/// The paper's cost model (DESIGN.md decision 11): logical index fetches
/// plus physical relation reads per query, one client, both pools dropped
/// before each of queries [0, count). `index_fetches` (optional) receives
/// the index share. Answers are checked with `required_upto`.
cdb::Status ColdPagesPerQuery(const Inputs& in, Fixture* fx, size_t count,
                              size_t required_upto, double* pages,
                              double* index_fetches, size_t* mismatches);

}  // namespace perfbench

#endif  // PERFBENCH_FIXTURE_H_
