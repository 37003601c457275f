// Workload definitions and seed-deterministic inputs.
//
// Everything a run feeds the library is made here, before any timing
// starts, from the --seed argument alone: the starting tuples, the append
// stream, the query slopes and every query. The generator is the
// benchmark's own (it does not call workload/generator.cc), so a change to
// the library cannot change the inputs. It builds each tuple from explicit
// geometry — a convex polygon from its vertices, or a wedge from its apex
// and two rays — which gives the exact TOP/BOT support values of every
// tuple without the library's LP solver. Those values are the correctness
// oracle (Proposition 2.2: each ALL/EXIST predicate is one comparison of
// the query intercept with TOP or BOT at the query slope) and the
// selectivity calibration, both at O(1) per tuple and slope.

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "constraint/generalized_tuple.h"
#include "constraint/naive_eval.h"
#include "dualindex/slope_set.h"

namespace perfbench {

/// Fixed for every workload.
inline constexpr size_t kPageSize = 1024;   // The paper's page size.
inline constexpr size_t kTreesPerSide = 3;  // k: slopes in S.
inline constexpr double kAngleRange = 0.9;  // S and query slopes, radians.
inline constexpr size_t kOffSlopes = 10;    // Query slopes not in S.
inline constexpr size_t kClients = 4;       // Closed-loop query clients.
inline constexpr size_t kGroupSize = 32;    // IngestQueue max_group_size.
inline constexpr size_t kAppendWindow = 64; // Appends outstanding at most.

struct WorkloadSpec {
  std::string name;
  size_t n0 = 0;                // Tuples loaded at set-up.
  double unbounded_share = 0;   // Share of tuples that are unbounded wedges.
  size_t cache_frames = 0;      // Buffer-pool frames of each pager.
  size_t appends = 0;           // Tuples one ingest pass appends.
  size_t ingest_readers = 0;    // Query workers during ingest (0: none).
  size_t batch = 0;             // Queries per serving batch (0: no
                                // serving phase).
  int setups = 1;               // Set-ups timed per serve run.
  size_t traced_queries = 0;    // Queries per phase of the traced run.
};

/// The workload called `name`, or null.
const WorkloadSpec* FindWorkload(const std::string& name);

/// One generated query with what the oracle needs to check it.
struct BenchQuery {
  cdb::SelectionType type = cdb::SelectionType::kExist;
  cdb::HalfPlaneQuery q;
  uint32_t slot = 0;           // Index into Inputs::slopes().
  bool use_top = true;         // Compared against TOP (else BOT).
  bool qualify_above = true;   // Qualifies when value >= intercept.
};

/// See file comment.
class Inputs {
 public:
  Inputs(const WorkloadSpec& spec, uint64_t seed);

  const WorkloadSpec& spec() const { return spec_; }
  size_t n0() const { return spec_.n0; }

  /// The n0 starting tuples, then the append stream.
  const std::vector<cdb::GeneralizedTuple>& tuples() const { return tuples_; }

  /// Query slopes: the first kTreesPerSide are S itself (answered exactly
  /// by one sweep), the other kOffSlopes lie strictly between them (T2).
  const std::vector<double>& slopes() const { return slopes_; }
  cdb::SlopeSet slope_set() const;

  /// Query `i` of the seed's stream. Its intercept sits midway between two
  /// neighbouring support values of the starting tuples, so no tuple lies
  /// near the query line. Half are ALL, half EXIST; one in four takes its
  /// slope from S. The target selectivity is 1-5 % of the starting
  /// tuples; unbounded tuples whose support value is infinite always
  /// qualify on their side and can raise it.
  BenchQuery Query(uint64_t i) const;

  /// Whether input tuple `t` satisfies `q` (exact, from the support values).
  bool Qualifies(const BenchQuery& q, size_t t) const;

 private:
  WorkloadSpec spec_;
  double query_phase_;  // Start of the queries' selectivity sequence.
  std::vector<double> slopes_;
  std::vector<cdb::GeneralizedTuple> tuples_;
  std::vector<std::vector<double>> top_, bot_;  // [slot][tuple].
  std::vector<std::vector<double>> sorted_top_, sorted_bot_;  // Starting set.
};

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
