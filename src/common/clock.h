// Pluggable monotonic clock, shared by every layer from storage up.
//
// Everything that reads wall time — the pager's fsync, publish drain and
// shard-lock timers, Tracer's per-span wall_ms, the executor's
// service/queue-wait timers, the ingest lane's commit wait,
// flight-recorder timestamps — takes a Clock* (null resolves to
// DefaultClock()), so tests substitute a ManualClock and make timing
// assertions exact instead of sleeping and hoping. Header-only, so
// cdb_common users take the interface without a link dependency.

#ifndef CDB_COMMON_CLOCK_H_
#define CDB_COMMON_CLOCK_H_

#include <atomic>
#include <chrono>
#include <cstdint>

namespace cdb {

/// Monotonic nanosecond clock. Implementations must be callable from any
/// thread.
class Clock {
 public:
  virtual ~Clock() = default;
  virtual uint64_t NowNanos() = 0;
};

/// The real clock: std::chrono::steady_clock.
class SteadyClock final : public Clock {
 public:
  uint64_t NowNanos() override {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }
};

/// Process-wide SteadyClock — what a null Clock* resolves to.
inline Clock* DefaultClock() {
  static SteadyClock clock;
  return &clock;
}

/// Test clock: time moves only when the test says so. Atomic, so executor
/// workers and pager readers may advance it from inside jobs.
class ManualClock final : public Clock {
 public:
  explicit ManualClock(uint64_t start_ns = 0) : now_ns_(start_ns) {}

  uint64_t NowNanos() override {
    return now_ns_.load(std::memory_order_relaxed);
  }
  void AdvanceNanos(uint64_t ns) {
    now_ns_.fetch_add(ns, std::memory_order_relaxed);
  }
  void SetNanos(uint64_t ns) {
    now_ns_.store(ns, std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> now_ns_;
};

}  // namespace cdb

#endif  // CDB_COMMON_CLOCK_H_
