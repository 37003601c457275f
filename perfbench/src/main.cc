// Dual-index benchmark driver.
//
//   perfbench --workload serve_hot|serve_spill|ingest_serve --seed N
//             --seconds S --trace 0|1
//
// Generates the workload's inputs from the seed, runs it (--trace 0: the
// timed run and its end-to-end metrics; --trace 1: the traced run and its
// per-layer metrics) and prints one "name value unit" line per metric,
// then the result as a single JSON line, last on stdout. Exits 0 only
// when every answer and every check was right and every metric is finite.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "inputs.h"
#include "runs.h"
#include "stats.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1\n",
               why);
  return 2;
}

bool ParseUint(const char* s, unsigned long long* out) {
  char* end = nullptr;
  *out = std::strtoull(s, &end, 10);
  return end != s && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  unsigned long long seed = 1, seconds = 10, trace = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    bool ok = true;
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      ok = ParseUint(value, &seed);
    } else if (arg == "--seconds") {
      ok = ParseUint(value, &seconds) && seconds > 0;
    } else if (arg == "--trace") {
      ok = ParseUint(value, &trace) && trace <= 1;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
    if (!ok) return Usage(("bad value for " + arg).c_str());
  }

  // The metric arithmetic is checked on every invocation; it costs
  // microseconds.
  if (perfbench::SelfTest() != 0) return 3;
  const perfbench::WorkloadSpec* spec = perfbench::FindWorkload(workload);
  if (spec == nullptr) {
    return Usage(("unknown workload '" + workload + "'").c_str());
  }

  const uint64_t t0 = perfbench::NowNs();
  const perfbench::Inputs inputs(*spec, seed);
  std::fprintf(stderr, "%s: inputs for seed %llu in %.3f s\n",
               spec->name.c_str(), seed,
               static_cast<double>(perfbench::NowNs() - t0) / 1e9);

  const perfbench::RunReport report =
      trace != 0 ? perfbench::RunTraced(inputs)
                 : perfbench::RunTimed(inputs, static_cast<double>(seconds));
  const bool correct = report.failed == 0 && !report.metrics.empty() &&
                       perfbench::AllFinite(report.metrics);
  for (const perfbench::Metric& m : report.metrics) {
    std::printf("%-44s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%s\n", perfbench::ResultJson(correct, report.attempted,
                                            report.failed, report.metrics)
                          .c_str());
  return correct ? 0 : 1;
}
