// LatencyRecorder: lock-free log-scale latency histogram with percentile
// estimation (ISSUE 5 tentpole).
//
// Values (nanoseconds) land in geometrically spaced buckets: kSubBuckets
// sub-buckets per power of two, starting below kMinTrackedNs (one catch-all
// bucket) and saturating into an overflow bucket above kMaxTrackedNs. A
// percentile estimate returns its bucket's inclusive upper bound, so the
// estimate never *under*-reports and overshoots a true value v by at most
// one bucket ratio:
//
//   estimate <= max(kMinTrackedNs, (1 + kRelativeErrorBound) * v)
//
// with kRelativeErrorBound = 2^(1/kSubBuckets) - 1 (~18.9% for 4
// sub-buckets; DESIGN.md decision 37). count, sum and max are tracked
// exactly — only the shape between them is quantized. All mutation is
// relaxed atomics: executor workers record concurrently without locks, and
// Snapshot()/PercentileNs() may run concurrently with recording (they see
// some consistent-enough interleaving; the exact totals are re-read last so
// a torn view can only make a percentile conservative).
//
// The recorder does not read a clock; callers time with a cdb::Clock and
// hand it the elapsed nanoseconds, which is what makes the executor's
// latency paths testable with a ManualClock.
//
// It is also the metrics registry's only histogram type:
// MetricsRegistry::histogram(name) hands out gated recorders, which
// callers fill with RecordNanos or fold whole recorders into with
// MergeFrom. Every recorder shares one bucket layout (UpperBoundNs), so
// exported histograms sum across batches, scrapes and processes.

#ifndef CDB_OBS_LATENCY_H_
#define CDB_OBS_LATENCY_H_

#include <array>
#include <atomic>
#include <cstdint>

namespace cdb {
namespace obs {

/// Point-in-time digest of a LatencyRecorder, in milliseconds (the unit the
/// bench artifacts use). Percentiles are bucket-upper-bound estimates (see
/// file comment); count/sum/mean/max are exact.
struct LatencySnapshot {
  uint64_t count = 0;
  double sum_ms = 0;
  double mean_ms = 0;
  double p50_ms = 0;
  double p90_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
  double max_ms = 0;
};

/// See file comment.
class LatencyRecorder {
 public:
  /// Sub-buckets per power of two; the knob behind kRelativeErrorBound.
  static constexpr int kSubBuckets = 4;
  /// Everything at or below this lands in bucket 0 (estimates clamp here).
  static constexpr uint64_t kMinTrackedNs = 1024;  // ~1 us.
  /// Doublings covered above kMinTrackedNs before the overflow bucket:
  /// 2^10 ns .. 2^42 ns (~73 minutes), plenty for any per-query latency.
  static constexpr int kDoublings = 32;
  static constexpr size_t kBuckets =
      1 + kSubBuckets * kDoublings + 1;  // Catch-all + spaced + overflow.
  /// 2^(1/kSubBuckets) - 1: the worst-case relative overshoot of a
  /// percentile estimate for values above kMinTrackedNs.
  static constexpr double kRelativeErrorBound = 0.18920711500272103;

  LatencyRecorder() = default;
  /// A recorder that drops RecordNanos/MergeFrom while `*enabled` is false
  /// (the registry's gate; DESIGN.md decision 15). Null = always records.
  explicit LatencyRecorder(const std::atomic<bool>* enabled)
      : enabled_(enabled) {}
  LatencyRecorder(const LatencyRecorder&) = delete;
  LatencyRecorder& operator=(const LatencyRecorder&) = delete;

  /// Thread-safe, wait-free.
  void RecordNanos(uint64_t ns);
  /// Adds every bucket, the count and the sum of `other`, and raises the
  /// max to `other`'s. Thread-safe against recording on either side.
  void MergeFrom(const LatencyRecorder& other);

  /// Inclusive upper bound of finite bucket i < kBuckets - 1; the last
  /// bucket (overflow) has none.
  static uint64_t UpperBoundNs(size_t i);
  /// Observations in bucket i < kBuckets (the last is the overflow).
  uint64_t bucket_count(size_t i) const {
    return counts_[i].load(std::memory_order_relaxed);
  }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum_ns() const { return sum_ns_.load(std::memory_order_relaxed); }
  uint64_t max_ns() const { return max_ns_.load(std::memory_order_relaxed); }

  /// Upper-bound estimate of the p-th percentile (p in [0, 1]) in
  /// nanoseconds; 0 when nothing was recorded. The rank is ceil(p * count)
  /// (nearest-rank definition), and the estimate is clamped to the exact
  /// max, so PercentileNs(1.0) == max_ns().
  double PercentileNs(double p) const;

  LatencySnapshot Snapshot() const;

  /// Not thread-safe (callers quiesce recording first).
  void Reset();

 private:
  static size_t BucketOf(uint64_t ns);
  void RaiseMax(uint64_t ns);

  bool recording() const {
    return enabled_ == nullptr || enabled_->load(std::memory_order_relaxed);
  }

  const std::atomic<bool>* enabled_ = nullptr;
  std::array<std::atomic<uint64_t>, kBuckets> counts_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_ns_{0};
  std::atomic<uint64_t> max_ns_{0};
};

}  // namespace obs
}  // namespace cdb

#endif  // CDB_OBS_LATENCY_H_
