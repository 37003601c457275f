// LatencyRecorder tests (ISSUE 5 tentpole): exact count/sum/max, the
// log-bucket percentile error bound (never under-reports, overshoots by at
// most kRelativeErrorBound), unit conversion in Snapshot(), lossless
// concurrent recording (runs under `-L tsan`), merging and the registry
// gate. Also covers the Clock seam the recorder is designed around:
// ManualClock arithmetic and sleeps, DefaultClock monotonicity and sleeps.

#include "obs/latency.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "common/clock.h"

namespace cdb {
namespace obs {
namespace {

TEST(LatencyRecorderTest, EmptyRecorderReportsZeros) {
  LatencyRecorder rec;
  EXPECT_EQ(rec.count(), 0u);
  EXPECT_EQ(rec.sum_ns(), 0u);
  EXPECT_EQ(rec.max_ns(), 0u);
  EXPECT_EQ(rec.PercentileNs(0.5), 0.0);
  LatencySnapshot s = rec.Snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean_ms, 0.0);
  EXPECT_EQ(s.p99_ms, 0.0);
  EXPECT_EQ(s.max_ms, 0.0);
}

TEST(LatencyRecorderTest, CountSumMaxAreExact) {
  LatencyRecorder rec;
  const uint64_t values[] = {1500, 3000, 250000, 1u << 22};
  uint64_t sum = 0;
  for (uint64_t v : values) {
    rec.RecordNanos(v);
    sum += v;
  }
  EXPECT_EQ(rec.count(), 4u);
  EXPECT_EQ(rec.sum_ns(), sum);
  EXPECT_EQ(rec.max_ns(), 1u << 22);
  // p100 clamps to the exact maximum, always.
  EXPECT_EQ(rec.PercentileNs(1.0), static_cast<double>(1u << 22));
}

// The documented contract: an estimate never under-reports the true
// nearest-rank value, and overshoots it by at most kRelativeErrorBound
// (or clamps at kMinTrackedNs for tiny values).
TEST(LatencyRecorderTest, PercentileEstimatesHonorTheErrorBound) {
  LatencyRecorder rec;
  std::vector<uint64_t> values;
  uint64_t x = 88172645463325252ull;  // xorshift64; fixed seed.
  for (int i = 0; i < 5000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    values.push_back(1 + x % 100000000);  // 1 ns .. 100 ms.
  }
  for (uint64_t v : values) rec.RecordNanos(v);
  std::sort(values.begin(), values.end());
  for (double p : {0.5, 0.9, 0.95, 0.99}) {
    const size_t rank =
        static_cast<size_t>(std::max<double>(1.0, p * values.size() + 0.999));
    const double truth = static_cast<double>(
        values[std::min(rank, values.size()) - 1]);
    const double est = rec.PercentileNs(p);
    EXPECT_GE(est, truth) << "p=" << p;
    EXPECT_LE(est, std::max<double>(
                       LatencyRecorder::kMinTrackedNs,
                       truth * (1 + LatencyRecorder::kRelativeErrorBound)))
        << "p=" << p;
  }
}

TEST(LatencyRecorderTest, TinyValuesClampToTheExactMax) {
  LatencyRecorder rec;
  for (int i = 0; i < 10; ++i) rec.RecordNanos(5);
  // Bucket 0's upper bound is kMinTrackedNs, but the exact-max clamp keeps
  // the estimate honest below it.
  EXPECT_EQ(rec.PercentileNs(0.5), 5.0);
  EXPECT_EQ(rec.PercentileNs(0.99), 5.0);
}

TEST(LatencyRecorderTest, OverflowBucketClampsToTheExactMax) {
  LatencyRecorder rec;
  const uint64_t huge = 1ull << 45;  // Beyond the last finite bucket.
  rec.RecordNanos(huge);
  EXPECT_EQ(rec.max_ns(), huge);
  EXPECT_EQ(rec.PercentileNs(0.5), static_cast<double>(huge));
}

TEST(LatencyRecorderTest, SnapshotConvertsToMilliseconds) {
  LatencyRecorder rec;
  for (int i = 0; i < 4; ++i) rec.RecordNanos(2'000'000);  // 2 ms each.
  LatencySnapshot s = rec.Snapshot();
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.sum_ms, 8.0);
  EXPECT_DOUBLE_EQ(s.mean_ms, 2.0);
  EXPECT_DOUBLE_EQ(s.max_ms, 2.0);
  EXPECT_GE(s.p50_ms, 2.0);
  EXPECT_LE(s.p50_ms, 2.0 * (1 + LatencyRecorder::kRelativeErrorBound));
  // Percentile ranks are monotone in p.
  EXPECT_LE(s.p50_ms, s.p90_ms);
  EXPECT_LE(s.p90_ms, s.p95_ms);
  EXPECT_LE(s.p95_ms, s.p99_ms);
  EXPECT_LE(s.p99_ms, s.max_ms * (1 + LatencyRecorder::kRelativeErrorBound));
}

TEST(LatencyRecorderTest, ResetZeroesEverything) {
  LatencyRecorder rec;
  rec.RecordNanos(123456);
  rec.Reset();
  EXPECT_EQ(rec.count(), 0u);
  EXPECT_EQ(rec.sum_ns(), 0u);
  EXPECT_EQ(rec.max_ns(), 0u);
  EXPECT_EQ(rec.PercentileNs(0.99), 0.0);
}

// The executor's workers record concurrently without locks; nothing may be
// lost. Runs under `-L tsan` to prove the relaxed-atomic scheme is clean.
TEST(LatencyRecorderTest, ConcurrentRecordingIsLossless) {
  LatencyRecorder rec;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&rec, t] {
      for (int i = 0; i < kPerThread; ++i) {
        rec.RecordNanos(static_cast<uint64_t>(1000 + (t * kPerThread + i)));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const uint64_t n = static_cast<uint64_t>(kThreads) * kPerThread;
  EXPECT_EQ(rec.count(), n);
  // sum of (1000 + k) for k in [0, n).
  EXPECT_EQ(rec.sum_ns(), 1000 * n + n * (n - 1) / 2);
  EXPECT_EQ(rec.max_ns(), 1000 + n - 1);
}

TEST(LatencyRecorderTest, MergeFromAddsEveryBucketCountSumAndMax) {
  LatencyRecorder a;
  a.RecordNanos(1'000);
  a.RecordNanos(3'000'000);
  LatencyRecorder b;
  b.RecordNanos(1'000);
  b.RecordNanos(9'000'000);
  b.RecordNanos(uint64_t{1} << 43);  // Overflow bucket.
  LatencyRecorder merged;
  merged.MergeFrom(a);
  merged.MergeFrom(b);
  EXPECT_EQ(merged.count(), 5u);
  EXPECT_EQ(merged.sum_ns(), a.sum_ns() + b.sum_ns());
  EXPECT_EQ(merged.max_ns(), uint64_t{1} << 43);
  for (size_t i = 0; i < LatencyRecorder::kBuckets; ++i) {
    EXPECT_EQ(merged.bucket_count(i), a.bucket_count(i) + b.bucket_count(i))
        << "bucket " << i;
  }
  EXPECT_EQ(merged.bucket_count(0), 2u);
  EXPECT_EQ(merged.bucket_count(LatencyRecorder::kBuckets - 1), 1u);
  // The sources are read, never drained.
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(b.count(), 3u);
}

// A gated recorder (what MetricsRegistry::histogram hands out) drops both
// single observations and merges while its gate is closed.
TEST(LatencyRecorderTest, GatedRecorderDropsWhileDisabled) {
  std::atomic<bool> enabled{false};
  LatencyRecorder gated(&enabled);
  LatencyRecorder batch;
  batch.RecordNanos(2'000);
  gated.RecordNanos(2'000);
  gated.MergeFrom(batch);
  EXPECT_EQ(gated.count(), 0u);
  enabled.store(true);
  gated.RecordNanos(2'000);
  gated.MergeFrom(batch);
  EXPECT_EQ(gated.count(), 2u);
  EXPECT_EQ(gated.sum_ns(), 4'000u);
}

TEST(ClockTest, ManualClockIsExactAndDefaultClockIsMonotonic) {
  ManualClock clock;
  EXPECT_EQ(clock.NowNanos(), 0u);
  clock.SetNanos(1000);
  EXPECT_EQ(clock.NowNanos(), 1000u);
  clock.AdvanceNanos(234);
  EXPECT_EQ(clock.NowNanos(), 1234u);
  clock.SleepNanos(766);  // Sleeping on a manual clock advances it.
  EXPECT_EQ(clock.NowNanos(), 2000u);

  Clock* def = DefaultClock();
  ASSERT_NE(def, nullptr);
  EXPECT_EQ(def, DefaultClock());  // One process-wide instance.
  const uint64_t a = def->NowNanos();
  const uint64_t b = def->NowNanos();
  EXPECT_LE(a, b);
  def->SleepNanos(1'000'000);  // The steady clock really sleeps.
  EXPECT_GE(def->NowNanos() - b, 1'000'000u);
}

}  // namespace
}  // namespace obs
}  // namespace cdb
