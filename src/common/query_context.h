// Per-query deadline and cooperative cancellation.
//
// A QueryContext rides alongside a query through the index paths
// (DualIndex::Select, DDimDualIndex::Select, the R-tree searches). The
// query methods call Check() at page-fetch boundaries — once per leaf/node
// fetched and once per candidate refined — and return early with
// kCancelled/kDeadlineExceeded when it fires. Early exits are clean by
// construction: leaf cursors hold no pins between moves, and the callers
// fill FilterCounts::abandoned so accounting still balances.
//
// Header-only; the deadline reads the cdb::Clock (common/clock.h), which
// is header-only too.

#ifndef CDB_COMMON_QUERY_CONTEXT_H_
#define CDB_COMMON_QUERY_CONTEXT_H_

#include <atomic>
#include <cstdint>

#include "common/clock.h"
#include "common/status.h"

namespace cdb {

/// One-shot cancellation flag, shared between the thread running a query
/// and any thread that wants to stop it. Cancellation is cooperative: the
/// query notices at its next Check() call.
class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  void Cancel() { cancelled_.store(true, std::memory_order_release); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Deadline and cancellation state for one query. Cheap to construct; all
/// members optional. A null/default context never fires.
struct QueryContext {
  /// Absolute deadline in the clock's epoch, in nanoseconds; 0 = none.
  uint64_t deadline_ns = 0;
  /// Clock the deadline is checked against; null = DefaultClock().
  /// Tests inject a ManualClock to place deadlines deterministically.
  Clock* clock = nullptr;
  /// Optional cancellation flag; not owned. Null = not cancellable.
  const CancelToken* cancel = nullptr;

  /// OK while the query may keep running. Cancellation outranks the
  /// deadline: a query that is both cancelled and late reports kCancelled.
  Status Check() const {
    if (cancel != nullptr && cancel->cancelled()) {
      return Status::Cancelled("query cancelled");
    }
    if (deadline_ns != 0) {
      Clock* c = clock != nullptr ? clock : DefaultClock();
      if (c->NowNanos() >= deadline_ns) {
        return Status::DeadlineExceeded("query deadline exceeded");
      }
    }
    return Status::OK();
  }
};

/// Checkpoint helper: propagates when `ctx` (may be null) has fired.
inline Status CheckQueryContext(const QueryContext* ctx) {
  return ctx == nullptr ? Status::OK() : ctx->Check();
}

}  // namespace cdb

#endif  // CDB_COMMON_QUERY_CONTEXT_H_
