// Fault-injecting BlockFile wrapper for failure-path and crash tests.

#ifndef CDB_STORAGE_FAULT_FILE_H_
#define CDB_STORAGE_FAULT_FILE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "storage/file.h"

namespace cdb {

/// Wraps another BlockFile and fails operations on command. Tests use it to
/// verify that Status propagation through pager / B+-tree / index layers is
/// lossless, that failed operations leave structures readable, and — via
/// the crash plan — that journal recovery restores a committed state from
/// any crash point.
///
/// Three independent fault modes:
///
///  * FailAfter(n): after n further successful reads/writes, every
///    subsequent call fails until ClearFault(). Exactly one failure is
///    *counted* per arming (on the call that trips), attributed to the
///    failing path — injected_read_failures() / injected_write_failures()
///    are therefore independent of how many calls happen afterwards.
///
///  * Crash (FaultPlan's crash fields): models power loss. The Nth write
///    after arming is torn (only a prefix of the block reaches the base
///    file; the rest keeps its old content), and from that point the file
///    is "dead": writes are silently dropped (they return OK, as buffered
///    writes that never hit the platter), while Sync and reads fail — so a
///    workload stops at its next commit, and the test reopens fresh
///    wrappers over the surviving base storage.
///
///  * Transient (FaultPlan's transient fields): models flaky I/O. After n
///    further successful reads (or writes), the next k calls fail with
///    kUnavailable — the transient code, where every other mode fails with
///    kIOError — then the window drains and calls succeed again. The pager
///    passes the code up from the one read it issues per miss. Chaos
///    sweeps arm (n, 1) for every n in a workload's read sequence.
///
/// Both plan modes live in one shared FaultPlan so a single plan — handed
/// to several wrappers (data file + journal file) — indexes their combined
/// operation sequence, and so one file can carry a crash plan and a
/// transient plan at once.
///
/// FailAfter counters and the transient fields are atomic so the wrapper
/// can sit under a pager in concurrent-read mode (the executor
/// fault-injection tests hit it from many threads). The crash fields
/// remain single-threaded — crash sweeps drive the pager exclusively.
class FaultInjectionFile : public BlockFile {
 public:
  /// Shared fault state; see class comment. Crash mode: `writes_remaining`
  /// is the number of writes that still fully succeed; the next one is
  /// torn to `torn_bytes` bytes (0 = dropped entirely). Transient mode:
  /// armed via ArmTransientReads/ArmTransientWrites.
  struct FaultPlan {
    // Crash fields (single-threaded).
    int64_t writes_remaining = -1;  // Negative = disarmed.
    size_t torn_bytes = 0;
    bool crashed = false;

    // Transient fields (atomic). `*_remaining` counts calls that still
    // succeed (negative = disarmed); once it hits zero, `*_failures` more
    // calls return kUnavailable, then the mode disarms itself.
    std::atomic<int64_t> transient_reads_remaining{-1};
    std::atomic<int64_t> transient_read_failures{0};
    std::atomic<int64_t> transient_writes_remaining{-1};
    std::atomic<int64_t> transient_write_failures{0};
    std::atomic<uint64_t> transient_faults_injected{0};

    /// After n more successful reads, fail the next k with kUnavailable.
    void ArmTransientReads(int64_t n, int64_t k) {
      transient_read_failures.store(k, std::memory_order_relaxed);
      transient_reads_remaining.store(n, std::memory_order_relaxed);
    }
    /// After n more successful writes, fail the next k with kUnavailable.
    void ArmTransientWrites(int64_t n, int64_t k) {
      transient_write_failures.store(k, std::memory_order_relaxed);
      transient_writes_remaining.store(n, std::memory_order_relaxed);
    }
    void DisarmTransient() {
      transient_reads_remaining.store(-1, std::memory_order_relaxed);
      transient_read_failures.store(0, std::memory_order_relaxed);
      transient_writes_remaining.store(-1, std::memory_order_relaxed);
      transient_write_failures.store(0, std::memory_order_relaxed);
    }
    uint64_t transient_faults() const {
      return transient_faults_injected.load(std::memory_order_relaxed);
    }

    /// Walks the countdown-then-fail-k state machine for one call.
    Status MaybeTransient(std::atomic<int64_t>* remaining,
                          std::atomic<int64_t>* failures, const char* op) {
      int64_t r = remaining->load(std::memory_order_relaxed);
      while (true) {
        if (r < 0) return Status::OK();
        if (r > 0) {
          if (remaining->compare_exchange_weak(r, r - 1,
                                               std::memory_order_relaxed)) {
            return Status::OK();
          }
          continue;  // CAS refreshed r; retry.
        }
        // r == 0: inside the failure window. Claim one failure, or disarm
        // once the window has drained.
        int64_t f = failures->load(std::memory_order_relaxed);
        while (f > 0) {
          if (failures->compare_exchange_weak(f, f - 1,
                                              std::memory_order_relaxed)) {
            transient_faults_injected.fetch_add(1,
                                                std::memory_order_relaxed);
            return Status::Unavailable(
                std::string("injected transient fault on ") + op);
          }
        }
        remaining->compare_exchange_strong(r, -1,
                                           std::memory_order_relaxed);
        return Status::OK();
      }
    }
  };

  /// Historic name from the crash-recovery era; the struct has carried
  /// transient state as well since the fault-hardened-serving work.
  using CrashPlan = FaultPlan;

  explicit FaultInjectionFile(std::unique_ptr<BlockFile> base,
                              std::shared_ptr<FaultPlan> plan = nullptr)
      : base_(std::move(base)), plan_(std::move(plan)) {}

  /// After this many further successful operations, every subsequent
  /// read/write fails until cleared. Negative disables injection.
  void FailAfter(int64_t ops) {
    tripped_.store(false, std::memory_order_relaxed);
    remaining_.store(ops, std::memory_order_relaxed);
  }
  void ClearFault() {
    remaining_.store(-1, std::memory_order_relaxed);
    tripped_.store(false, std::memory_order_relaxed);
  }

  /// Makes the next Sync() call fail (once).
  void FailNextSync() { fail_next_sync_.store(true, std::memory_order_relaxed); }

  uint64_t injected_read_failures() const {
    return read_failures_.load(std::memory_order_relaxed);
  }
  uint64_t injected_write_failures() const {
    return write_failures_.load(std::memory_order_relaxed);
  }
  uint64_t injected_sync_failures() const {
    return sync_failures_.load(std::memory_order_relaxed);
  }
  uint64_t injected_failures() const {
    return injected_read_failures() + injected_write_failures() +
           injected_sync_failures();
  }

  /// Writes observed (successful ones only; crash-dropped writes and
  /// injected failures are not counted). Crash sweeps use a fault-free
  /// dry run of this counter to enumerate crash points.
  uint64_t writes_seen() const {
    return writes_seen_.load(std::memory_order_relaxed);
  }

  /// Reads observed (successful ones only). Transient-fault sweeps use a
  /// fault-free dry run of this counter to enumerate injection points.
  uint64_t reads_seen() const {
    return reads_seen_.load(std::memory_order_relaxed);
  }

  bool crashed() const { return plan_ != nullptr && plan_->crashed; }

  Status ReadBlock(uint64_t index, char* out) override {
    if (plan_ != nullptr) {
      if (plan_->crashed) return Status::IOError("read after crash");
      CDB_RETURN_IF_ERROR(plan_->MaybeTransient(
          &plan_->transient_reads_remaining,
          &plan_->transient_read_failures, "read"));
    }
    CDB_RETURN_IF_ERROR(MaybeFail(&read_failures_, "read"));
    reads_seen_.fetch_add(1, std::memory_order_relaxed);
    return base_->ReadBlock(index, out);
  }

  Status WriteBlock(uint64_t index, const char* data) override {
    if (plan_ != nullptr) {
      if (plan_->crashed) return Status::OK();  // Dropped, never durable.
      // Transient before the crash countdown: writes_remaining counts
      // writes that fully succeed, and a transiently failed write is not
      // one of them.
      CDB_RETURN_IF_ERROR(plan_->MaybeTransient(
          &plan_->transient_writes_remaining,
          &plan_->transient_write_failures, "write"));
      if (plan_->writes_remaining == 0) {
        plan_->crashed = true;
        return TornWrite(index, data, plan_->torn_bytes);
      }
      if (plan_->writes_remaining > 0) --plan_->writes_remaining;
    }
    CDB_RETURN_IF_ERROR(MaybeFail(&write_failures_, "write"));
    writes_seen_.fetch_add(1, std::memory_order_relaxed);
    return base_->WriteBlock(index, data);
  }

  uint64_t BlockCount() const override { return base_->BlockCount(); }
  size_t block_size() const override { return base_->block_size(); }

  Status Sync() override {
    if (plan_ != nullptr && plan_->crashed) {
      return Status::IOError("sync after crash");
    }
    if (fail_next_sync_.exchange(false, std::memory_order_relaxed)) {
      sync_failures_.fetch_add(1, std::memory_order_relaxed);
      return Status::IOError("injected fault on sync");
    }
    return base_->Sync();
  }

 private:
  Status MaybeFail(std::atomic<uint64_t>* counter, const char* op) {
    int64_t r = remaining_.load(std::memory_order_relaxed);
    while (true) {
      if (r < 0) return Status::OK();
      if (r == 0) {
        // First tripping thread wins the (single) counted failure.
        if (!tripped_.exchange(true, std::memory_order_relaxed)) {
          counter->fetch_add(1, std::memory_order_relaxed);
        }
        return Status::IOError(std::string("injected fault on ") + op);
      }
      if (remaining_.compare_exchange_weak(r, r - 1,
                                           std::memory_order_relaxed)) {
        return Status::OK();
      }
    }
  }

  // Persists only the first `torn_bytes` of the block; the tail keeps the
  // base file's previous content (zeros if the block never existed).
  Status TornWrite(uint64_t index, const char* data, size_t torn_bytes) {
    size_t n = std::min(torn_bytes, base_->block_size());
    if (n == 0) return Status::OK();
    std::vector<char> merged(base_->block_size(), 0);
    if (index < base_->BlockCount()) {
      CDB_RETURN_IF_ERROR(base_->ReadBlock(index, merged.data()));
    }
    std::memcpy(merged.data(), data, n);
    return base_->WriteBlock(index, merged.data());
  }

  std::unique_ptr<BlockFile> base_;
  std::shared_ptr<FaultPlan> plan_;
  std::atomic<int64_t> remaining_{-1};
  std::atomic<bool> tripped_{false};
  std::atomic<bool> fail_next_sync_{false};
  std::atomic<uint64_t> read_failures_{0};
  std::atomic<uint64_t> write_failures_{0};
  std::atomic<uint64_t> sync_failures_{0};
  std::atomic<uint64_t> writes_seen_{0};
  std::atomic<uint64_t> reads_seen_{0};
};

}  // namespace cdb

#endif  // CDB_STORAGE_FAULT_FILE_H_
