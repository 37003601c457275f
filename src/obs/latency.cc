#include "obs/latency.h"

#include <algorithm>
#include <cmath>

namespace cdb {
namespace obs {

namespace {

// Inclusive upper bounds of the finite buckets: bounds[0] = kMinTrackedNs,
// then floor(kMinTrackedNs * 2^(i/kSubBuckets)). Built once; strictly
// increasing because consecutive bounds differ by ~19% of at least 1024.
struct BoundsTable {
  std::array<uint64_t, LatencyRecorder::kBuckets - 1> upper;
  BoundsTable() {
    for (size_t i = 0; i < upper.size(); ++i) {
      upper[i] = static_cast<uint64_t>(std::floor(
          static_cast<double>(LatencyRecorder::kMinTrackedNs) *
          std::exp2(static_cast<double>(i) / LatencyRecorder::kSubBuckets)));
    }
  }
};

const BoundsTable& Bounds() {
  static const BoundsTable table;
  return table;
}

}  // namespace

size_t LatencyRecorder::BucketOf(uint64_t ns) {
  const auto& upper = Bounds().upper;
  auto it = std::lower_bound(upper.begin(), upper.end(), ns);
  // Past the last finite bound -> overflow bucket (kBuckets - 1).
  return static_cast<size_t>(it - upper.begin());
}

uint64_t LatencyRecorder::UpperBoundNs(size_t i) { return Bounds().upper[i]; }

void LatencyRecorder::RaiseMax(uint64_t ns) {
  uint64_t cur = max_ns_.load(std::memory_order_relaxed);
  while (ns > cur &&
         !max_ns_.compare_exchange_weak(cur, ns, std::memory_order_relaxed)) {
  }
}

void LatencyRecorder::RecordNanos(uint64_t ns) {
  if (!recording()) return;
  counts_[BucketOf(ns)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_ns_.fetch_add(ns, std::memory_order_relaxed);
  RaiseMax(ns);
}

void LatencyRecorder::MergeFrom(const LatencyRecorder& other) {
  if (!recording()) return;
  for (size_t i = 0; i < kBuckets; ++i) {
    counts_[i].fetch_add(other.bucket_count(i), std::memory_order_relaxed);
  }
  count_.fetch_add(other.count(), std::memory_order_relaxed);
  sum_ns_.fetch_add(other.sum_ns(), std::memory_order_relaxed);
  RaiseMax(other.max_ns());
}

double LatencyRecorder::PercentileNs(double p) const {
  uint64_t n = count();
  if (n == 0) return 0;
  double clamped = std::min(1.0, std::max(0.0, p));
  uint64_t rank = static_cast<uint64_t>(
      std::ceil(clamped * static_cast<double>(n)));
  if (rank == 0) rank = 1;
  uint64_t exact_max = max_ns();
  uint64_t cumulative = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    cumulative += counts_[i].load(std::memory_order_relaxed);
    if (cumulative >= rank) {
      // The overflow bucket has no finite bound; the exact max is its
      // honest upper bound (never an under-report, since every overflow
      // value is <= max). Finite buckets clamp *down* to the exact max so
      // the top of the distribution stays honest too.
      if (i == kBuckets - 1) return static_cast<double>(exact_max);
      return static_cast<double>(std::min(UpperBoundNs(i), exact_max));
    }
  }
  // Concurrent recording raced count_ past the bucket sums; the exact max
  // is the conservative answer.
  return static_cast<double>(exact_max);
}

LatencySnapshot LatencyRecorder::Snapshot() const {
  LatencySnapshot s;
  s.count = count();
  s.sum_ms = static_cast<double>(sum_ns()) / 1e6;
  s.mean_ms = s.count > 0 ? s.sum_ms / static_cast<double>(s.count) : 0;
  s.p50_ms = PercentileNs(0.50) / 1e6;
  s.p90_ms = PercentileNs(0.90) / 1e6;
  s.p95_ms = PercentileNs(0.95) / 1e6;
  s.p99_ms = PercentileNs(0.99) / 1e6;
  s.max_ms = static_cast<double>(max_ns()) / 1e6;
  return s;
}

void LatencyRecorder::Reset() {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_ns_.store(0, std::memory_order_relaxed);
  max_ns_.store(0, std::memory_order_relaxed);
}

}  // namespace obs
}  // namespace cdb
