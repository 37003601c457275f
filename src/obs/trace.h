// Scoped query tracing: attributes IoStats deltas and wall time to a
// nesting phase tree (ISSUE 1 tentpole).
//
// A Tracer watches up to two pagers — the *index* pager and the *tuple*
// (relation) pager — and installs itself as the ambient tracer for the
// current thread. Code inside the traced region opens phases with
//
//   CDB_TRACE_SPAN("refine");
//
// which is a no-op (one thread-local load + branch) when no tracer is
// installed. At every span boundary the tracer reads both pagers' IoStats
// and charges the delta since the previous boundary to the currently open
// span's *exclusive* (self) cost, so by construction
//
//   sum over all nodes of self == whole-query pager delta,
//
// an invariant ExplainProfile::SumsBalance() re-proves after the fact and
// the obs integration test checks against externally measured pager totals.
// Spans re-entered under the same parent (e.g. "refine/lp" inside a loop)
// merge into one node with an invocation count.
//
// A query path that was not asked for a profile builds its Tracer with
// `profiled` false: unless an outer tracer is recording, it stays out of
// the ambient slot, so its spans cost one thread-local load each, and it
// only brackets the region's pager totals and wall time (all that
// QueryStats needs). Inside a recording outer tracer it records as before,
// so the outer tree keeps the query as one span-free lump.
//
// The ambient tracer pointer is thread-local, and the tracer reads pagers
// through Pager::ThreadStats(): on an executor worker thread (concurrent-
// read mode, with a PagerReadSession open) it sees only that thread's own
// I/O, so per-query ExplainProfiles still reconcile exactly when many
// queries run in parallel; on a plain single-threaded path ThreadStats()
// is stats() and nothing changes.

#ifndef CDB_OBS_TRACE_H_
#define CDB_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/io_stats.h"
#include "obs/json.h"

namespace cdb {

class Pager;

namespace obs {

/// Cost attributed to one phase: logical fetches and physical reads on the
/// index and tuple pagers (DESIGN.md decision 11 keeps the two currencies
/// separate) plus wall time.
struct PhaseCost {
  uint64_t index_fetches = 0;  // Logical page accesses, index pager.
  uint64_t index_reads = 0;    // Physical reads, index pager.
  uint64_t tuple_fetches = 0;  // Logical page accesses, tuple pager.
  uint64_t tuple_reads = 0;    // Physical reads, tuple pager.
  double wall_ms = 0;

  void Add(const PhaseCost& o);
  /// Equality of the four I/O counters (wall time is not comparable).
  bool IoEquals(const PhaseCost& o) const;
};

/// One node of the finished phase tree.
struct ProfileNode {
  std::string name;
  uint64_t invocations = 0;  // Times the span was entered.
  PhaseCost self;            // Exclusive cost.
  std::vector<ProfileNode> children;

  /// Inclusive cost: self plus every descendant.
  PhaseCost Total() const;
  /// Depth-first search by name ("refine", not a path). nullptr if absent.
  const ProfileNode* Find(std::string_view target) const;
};

/// See file comment. Construct on the stack around a query; a recording
/// tracer is the ambient tracer until destroyed (previous tracer is
/// restored, so traced regions may nest).
class Tracer {
 public:
  /// `tuple_pager` may be null, or equal to `index_pager` (then all cost is
  /// reported on the index slots and the tuple slots stay zero). `clock`
  /// drives every wall_ms reading (null = DefaultClock(), so production
  /// call sites change nothing while tests inject a ManualClock and
  /// assert span timings exactly). With `profiled` false the tracer
  /// records spans only under a recording outer tracer; otherwise
  /// Finish() returns a childless root holding the region's totals.
  Tracer(const char* root_name, Pager* index_pager, Pager* tuple_pager,
         Clock* clock = nullptr, bool profiled = true);
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Closes the root span and returns the finished tree. Must be called
  /// with every child span closed (RAII guarantees this across error
  /// returns). `overall` (optional) receives the whole-region pager delta
  /// measured independently of the per-span attribution — the two agree
  /// exactly, which SumsBalance() verifies.
  ProfileNode Finish(PhaseCost* overall = nullptr);
  bool finished() const { return finished_; }

  /// The ambient tracer for this thread (null outside traced regions).
  static Tracer* Current();

 private:
  friend class ScopedSpan;

  void Enter(const char* name);
  void Exit();
  /// Charges pager/clock deltas since the last boundary to the open span.
  void AccumulateToOpenSpan();
  PhaseCost ReadDelta(const IoStats& index_base, const IoStats& tuple_base,
                      uint64_t time_base_ns) const;

  Pager* index_pager_;
  Pager* tuple_pager_;  // Null when unused or same as index_pager_.
  Clock* clock_;
  ProfileNode root_;
  std::vector<ProfileNode*> stack_;  // Root + open ancestors; see Enter().
  IoStats last_index_, last_tuple_;
  IoStats initial_index_, initial_tuple_;
  uint64_t last_time_ns_ = 0, initial_time_ns_ = 0;
  Tracer* previous_;
  bool recording_;  // Installed as the ambient tracer.
  bool finished_ = false;
};

/// Deterministic 1-in-N trace sampling (ISSUE 5): whether query `index` of
/// a batch gets a Tracer profile attached depends only on (seed, index) —
/// never on wall clock or thread schedule — so the sampled set is
/// reproducible run-to-run and thread-count-to-thread-count, and the
/// unsampled queries pay nothing. every == 0 disables, every == 1 samples
/// everything; otherwise each index is chosen with probability 1/every via
/// a splitmix64 hash (decorrelated from the index's position, so striped
/// batch layouts cannot alias the sample).
class TraceSampler {
 public:
  TraceSampler() = default;
  TraceSampler(uint64_t every, uint64_t seed) : every_(every), seed_(seed) {}

  bool enabled() const { return every_ != 0; }
  bool ShouldSample(uint64_t index) const;

 private:
  uint64_t every_ = 0;
  uint64_t seed_ = 0;
};

/// RAII span. Opens a phase on the ambient tracer (no-op without one).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) : tracer_(Tracer::Current()) {
    if (tracer_ != nullptr) tracer_->Enter(name);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->Exit();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
};

#define CDB_TRACE_CONCAT_INNER(a, b) a##b
#define CDB_TRACE_CONCAT(a, b) CDB_TRACE_CONCAT_INNER(a, b)
/// Opens a phase span for the rest of the enclosing scope.
#define CDB_TRACE_SPAN(name) \
  ::cdb::obs::ScopedSpan CDB_TRACE_CONCAT(cdb_trace_span_, __LINE__)(name)

/// Per-query filter-precision accounting (ISSUE 6): how many candidate
/// entries the filter step produced and what happened to each of them.
/// Every candidate meets exactly one of four fates — dropped by
/// deduplication / set algebra before refinement, accepted without a
/// refinement test (exact paths, or refinement disabled), accepted by the
/// exact predicate, or rejected by it — so the counts partition `candidates`,
/// which Balances() re-proves per query.
struct FilterCounts {
  uint64_t candidates = 0;      // Entries produced by index sweeps/searches.
  uint64_t dedup_dropped = 0;   // Removed before refinement (T1 duplicates,
                                // slab set-intersection drops).
  uint64_t early_accepts = 0;   // Accepted without a refinement test.
  uint64_t refine_accepts = 0;  // Accepted by the exact predicate on the
                                // tuple's V-representation.
  uint64_t refine_rejects = 0;  // Rejected by it (the false hits).
  uint64_t abandoned = 0;       // Left unprocessed by an error exit (a
                                // failed page read); always zero for
                                // queries that ran to completion.

  uint64_t results = 0;

  bool operator==(const FilterCounts&) const = default;

  /// The partition invariant: the four phase counts sum to `candidates`,
  /// accepted candidates are exactly the results, and the filter step can
  /// only over-approximate (candidates >= results).
  bool Balances() const {
    return candidates ==
               dedup_dropped + early_accepts + refine_accepts +
                   refine_rejects + abandoned &&
           results == early_accepts + refine_accepts &&
           candidates >= results;
  }

  /// Filter precision results/candidates in (0, 1]; an empty candidate set
  /// is vacuously precise.
  double precision() const {
    return candidates == 0
               ? 1.0
               : static_cast<double>(results) / static_cast<double>(candidates);
  }
};

/// "EXPLAIN ANALYZE"-style result of one query execution: the phase tree
/// plus the whole-query totals it provably sums to.
struct ExplainProfile {
  ProfileNode root;
  PhaseCost totals;     // Whole-query pager delta (== root.Total()).
  FilterCounts filter;  // Filled by the query path after FinishQueryTrace.

  /// Re-proves the attribution invariant: root.Total() must reproduce
  /// `totals` exactly on all four I/O counters.
  bool SumsBalance() const { return root.Total().IoEquals(totals); }

  /// Annotated multi-line dump (indented tree, one line per phase).
  std::string ToString() const;
  void WriteJson(JsonWriter* w) const;
  std::string ToJson() const;
};

/// Finishes `tracer`, fills `profile` when requested, and returns the
/// whole-region totals — the one-liner every query path ends with.
PhaseCost FinishQueryTrace(Tracer* tracer, ExplainProfile* profile);

}  // namespace obs
}  // namespace cdb

#endif  // CDB_OBS_TRACE_H_
