// EventLog: fixed-capacity, always-on structured event ring — the write
// path's flight recorder (ISSUE 10 tentpole).
//
// The query path can afford sampled ExplainProfiles because a slow query
// is reproducible; a poisoned ingest lane or a Corruption is not — by the
// time anyone looks, the interesting history is gone. The EventLog keeps
// the last `capacity` pipeline events (submit/shed/group transitions/
// poison/...) in a preallocated ring so a fault dump always carries its
// own black box.
//
// Record path: one fetch_add on the ring cursor plus five relaxed atomic
// stores into the claimed slot — no locks, no allocation, wait-free, safe
// from any thread. Each slot is a per-slot seqlock: the writer marks the
// slot busy, stores the fields, then commits seq+1 with release; Snapshot()
// reads seq (acquire), the fields, and seq again, skipping slots that are
// empty, in-flight, or changed in between — a lapped or torn slot is
// dropped, never misreported. Timestamps come from the injectable
// cdb::Clock (never a raw now()), so tests drive the ring with a
// ManualClock and assert dump contents exactly.
//
// JSON dumps use schema "cdb-flight/v1" and are self-checked through
// ParseJson before they reach disk, like every other artifact writer.

#ifndef CDB_OBS_EVENT_LOG_H_
#define CDB_OBS_EVENT_LOG_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "obs/json.h"

namespace cdb {
namespace obs {

/// What happened. Values are stable (they appear in dumps by *name*, but
/// tests index by enum); add new types at the end.
enum class EventType : uint32_t {
  kSubmit = 0,       ///< Append admitted; a = append id.
  kShed,             ///< Append shed at admission; a = reason (0 full,
                     ///< 1 closed, 2 poisoned).
  kReject,           ///< Append rejected as malformed (producer bug).
  kGroupOpen,        ///< Writer opened a group; a = group seq.
  kGroupApplied,     ///< Inserts done; a = group seq, b = appends.
  kGroupFsync,       ///< Journal commit done; a = group seq.
  kGroupPublish,     ///< Publish epoch done; a = group seq.
  kGroupCommitted,   ///< Group acked; a = group seq, b = appends,
                     ///< c = commit trigger (see IngestCommitTrigger).
  kGroupFailed,      ///< Group failed; a = group seq, b = status code.
  kLanePoisoned,     ///< Lane poisoned; a = group seq, b = status code.
  kLaneClosed,       ///< Close() observed by the writer.
  kRetry,            ///< A transient fault was retried; a = attempt.
  kCorruption,       ///< Integrity failure observed; a = context id.
};

/// Stable lower_snake_case name ("lane_poisoned") used in JSON dumps.
std::string_view EventTypeName(EventType type);

/// One recorded event, as read back by Snapshot().
struct Event {
  uint64_t seq = 0;   ///< Global record order (0-based, never reused).
  uint64_t t_ns = 0;  ///< Clock timestamp at record time.
  EventType type = EventType::kSubmit;
  uint64_t a = 0, b = 0, c = 0;  ///< Type-specific payload (see EventType).
};

/// See file comment.
class EventLog {
 public:
  /// `capacity` is the ring size (clamped to >= 1); `clock` drives the
  /// timestamps (null = DefaultClock(); tests inject a ManualClock).
  explicit EventLog(size_t capacity = 256, Clock* clock = nullptr);
  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  /// Thread-safe, wait-free, allocation-free.
  void Record(EventType type, uint64_t a = 0, uint64_t b = 0, uint64_t c = 0);

  size_t capacity() const { return capacity_; }
  /// Events ever recorded (monotone; recorded() - capacity() of them have
  /// been overwritten when positive).
  uint64_t recorded() const {
    return cursor_.load(std::memory_order_relaxed);
  }
  uint64_t dropped() const {
    const uint64_t n = recorded();
    return n > capacity_ ? n - capacity_ : 0;
  }

  /// The surviving events in record (seq) order. Safe to call while
  /// writers are recording; slots being overwritten at that instant are
  /// skipped rather than returned torn.
  std::vector<Event> Snapshot() const;

  /// {"schema":"cdb-flight/v1","capacity":...,"recorded":...,
  ///  "dropped":...,"events":[{"seq","t_ns","type","a","b","c"},...]}.
  void WriteJson(JsonWriter* w) const;
  std::string ToJson() const;

  /// Writes ToJson() to `path` after a ParseJson self-check (a dump that
  /// cannot be read back is worse than none). Overwrites.
  Status DumpToFile(const std::string& path) const;

 private:
  // Per-slot seqlock: `seq` is 0 when never written, kBusy while a writer
  // owns the slot, and event_seq + 1 once committed.
  struct Slot {
    std::atomic<uint64_t> seq{0};
    std::atomic<uint64_t> t_ns{0};
    std::atomic<uint32_t> type{0};
    std::atomic<uint64_t> a{0};
    std::atomic<uint64_t> b{0};
    std::atomic<uint64_t> c{0};
  };
  static constexpr uint64_t kBusy = ~uint64_t{0};

  size_t capacity_;
  Clock* clock_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<uint64_t> cursor_{0};
};

}  // namespace obs
}  // namespace cdb

#endif  // CDB_OBS_EVENT_LOG_H_
