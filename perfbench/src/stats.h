// Arithmetic shared by every benchmark metric: exact percentiles over the
// benchmark's own per-call timings, guarded ratios, and the result line.
//
// Percentiles are exact nearest-rank order statistics of the recorded
// samples, not estimates from the library's log-bucketed LatencyRecorder,
// whose 2^(1/4) buckets move in ~19 % steps.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (std::chrono::steady_clock).
uint64_t NowNs();

/// Exact nearest-rank p-th percentile, p in (0, 1]: the sample of rank
/// ceil(p * n) in ascending order. 0 for an empty sample.
double Percentile(std::vector<double> samples, double p);

/// Percentile(samples, 0.5).
double Median(std::vector<double> samples);

enum class Better { kLower, kHigher };

/// The quartile of a run's per-segment values at the metric's good end:
/// the 25th percentile of times, the 75th of rates. A shared host slows a
/// segment now and then but never speeds one up, and its cores flip
/// between two speeds about 1.5x apart, so the median of the segments
/// moves with the share of slowed ones while this end stays with the
/// unslowed ones.
double GoodQuartile(std::vector<double> samples, Better better);

/// num / den, or 0 when den is 0 (an empty phase reports 0, not NaN).
double Ratio(double num, double den);

/// Share of `attempted` operations that neither failed nor returned a
/// wrong answer: 1 - failed / attempted. 0 when nothing was attempted.
double OkRatio(uint64_t attempted, uint64_t failed);

/// Peak resident set size of this process in MiB (getrusage).
double PeakRssMb();

/// One named metric of the result line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Whether every metric value is finite; a run with a NaN or infinite
/// metric is not correct.
bool AllFinite(const std::vector<Metric>& metrics);

/// The result line: one JSON object with the keys correct, attempted,
/// failed and metrics; every value printed with all 17 significant digits.
/// Non-finite values, which JSON cannot hold, are printed as 0.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

/// Checks the functions above on fixed inputs; returns the number of
/// failed checks and names each on stderr.
int SelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
