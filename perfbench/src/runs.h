// The two kinds of run the command makes: the timed run, which reports the
// end-to-end metrics with tracing off, and the traced run, which times the
// calls into each layer from outside and reports the per-layer metrics.

#ifndef PERFBENCH_RUNS_H_
#define PERFBENCH_RUNS_H_

#include <cstdint>
#include <vector>

#include "inputs.h"
#include "stats.h"

namespace perfbench {

struct RunReport {
  uint64_t attempted = 0;  // Queries, appends and checks made.
  uint64_t failed = 0;     // Failed or shed operations plus wrong answers.
  std::vector<Metric> metrics;
};

/// Set-up, then `seconds` of measured load, then the correctness gate.
RunReport RunTimed(const Inputs& in, double seconds);

/// The per-layer run on the same inputs (fixed amount of work).
RunReport RunTraced(const Inputs& in);

}  // namespace perfbench

#endif  // PERFBENCH_RUNS_H_
