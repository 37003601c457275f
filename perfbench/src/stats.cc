#include "stats.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace perfbench {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  const size_t n = samples.size();
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

double GoodQuartile(std::vector<double> samples, Better better) {
  return Percentile(std::move(samples), better == Better::kLower ? 0.25 : 0.75);
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double OkRatio(uint64_t attempted, uint64_t failed) {
  if (attempted == 0) return 0;
  const uint64_t bad = std::min(failed, attempted);
  return 1.0 - static_cast<double>(bad) / static_cast<double>(attempted);
}

double PeakRssMb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

bool AllFinite(const std::vector<Metric>& metrics) {
  return std::all_of(metrics.begin(), metrics.end(),
                     [](const Metric& m) { return std::isfinite(m.value); });
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string body;
  char buf[128];
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    body += (i == 0 ? "" : ", ");
    body += "\"" + metrics[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  std::snprintf(buf, sizeof(buf),
                "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
  return std::string(buf) + "\"metrics\": {" + body + "}}";
}

int SelfTest() {
  int failures = 0;
  auto expect = [&failures](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "self-test failed: %s\n", what);
      ++failures;
    }
  };
  // Nearest rank: p50 of 1..10 is the 5th value, p99 the 10th, p10 the 1st.
  const std::vector<double> ten = {7, 3, 10, 1, 9, 2, 8, 4, 6, 5};
  expect(Percentile(ten, 0.5) == 5, "p50 of 1..10 is 5");
  expect(Percentile(ten, 0.99) == 10, "p99 of 1..10 is 10");
  expect(Percentile(ten, 0.1) == 1, "p10 of 1..10 is 1");
  expect(Percentile(ten, 1.0) == 10, "p100 is the maximum");
  // 1000 samples: p99 is rank 990, leaving exactly ten samples above it.
  std::vector<double> thousand;
  for (int i = 1000; i >= 1; --i) thousand.push_back(i);
  expect(Percentile(thousand, 0.99) == 990, "p99 of 1..1000 is 990");
  expect(Median(thousand) == 500, "median of 1..1000 is 500");
  expect(Median({}) == 0, "empty sample reads 0");
  expect(Median({42}) == 42, "single sample is its own median");
  expect(GoodQuartile(ten, Better::kLower) == 3, "good quartile of times");
  expect(GoodQuartile(ten, Better::kHigher) == 8, "good quartile of rates");
  expect(Ratio(3, 4) == 0.75, "ratio 3/4");
  expect(Ratio(5, 0) == 0, "ratio over zero reads 0");
  expect(OkRatio(200, 0) == 1.0, "no failures reads 1");
  expect(OkRatio(200, 50) == 0.75, "50 of 200 failed reads 0.75");
  expect(OkRatio(10, 20) == 0.0, "failures are capped at attempts");
  expect(OkRatio(0, 0) == 0.0, "nothing attempted reads 0");
  expect(ResultJson(true, 3, 0, {{"x_ms", 1.5, "ms"}}) ==
             "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
             "\"metrics\": {\"x_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}",
         "result line format");
  expect(AllFinite({{"x_ms", 1.5, "ms"}}), "a finite metric passes");
  expect(!AllFinite({{"x_ms", 1.5, "ms"}, {"bad", std::nan(""), "ms"}}),
         "a non-finite metric fails the run");
  expect(ResultJson(false, 1, 0, {{"bad", std::nan(""), "ms"}}) ==
             "{\"correct\": false, \"attempted\": 1, \"failed\": 0, "
             "\"metrics\": {\"bad\": {\"value\": 0, \"unit\": \"ms\"}}}",
         "a non-finite value prints as 0");
  return failures;
}

}  // namespace perfbench
