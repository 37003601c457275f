#include "obs/event_log.h"

#include <algorithm>
#include <cstdio>

#include "common/result.h"

namespace cdb {
namespace obs {

std::string_view EventTypeName(EventType type) {
  switch (type) {
    case EventType::kSubmit:
      return "submit";
    case EventType::kShed:
      return "shed";
    case EventType::kReject:
      return "reject";
    case EventType::kGroupOpen:
      return "group_open";
    case EventType::kGroupApplied:
      return "group_applied";
    case EventType::kGroupFsync:
      return "group_fsync";
    case EventType::kGroupPublish:
      return "group_publish";
    case EventType::kGroupCommitted:
      return "group_committed";
    case EventType::kGroupFailed:
      return "group_failed";
    case EventType::kLanePoisoned:
      return "lane_poisoned";
    case EventType::kLaneClosed:
      return "lane_closed";
    case EventType::kCorruption:
      return "corruption";
  }
  return "unknown";
}

EventLog::EventLog(size_t capacity, Clock* clock)
    : capacity_(capacity == 0 ? 1 : capacity),
      clock_(clock != nullptr ? clock : DefaultClock()),
      slots_(new Slot[capacity_]) {}

void EventLog::Record(EventType type, uint64_t a, uint64_t b, uint64_t c) {
  const uint64_t my_seq = cursor_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[my_seq % capacity_];
  // Claim: readers skip a busy slot; a concurrent lapping writer that also
  // claims this slot will simply win the final release store (one of the
  // two events is dropped, which the ring's overwrite semantics allow).
  slot.seq.store(kBusy, std::memory_order_relaxed);
  slot.t_ns.store(clock_->NowNanos(), std::memory_order_relaxed);
  slot.type.store(static_cast<uint32_t>(type), std::memory_order_relaxed);
  slot.a.store(a, std::memory_order_relaxed);
  slot.b.store(b, std::memory_order_relaxed);
  slot.c.store(c, std::memory_order_relaxed);
  // Commit: seq + 1 so 0 keeps meaning "never written".
  slot.seq.store(my_seq + 1, std::memory_order_release);
}

std::vector<Event> EventLog::Snapshot() const {
  std::vector<Event> out;
  out.reserve(capacity_);
  for (size_t i = 0; i < capacity_; ++i) {
    const Slot& slot = slots_[i];
    const uint64_t s1 = slot.seq.load(std::memory_order_acquire);
    if (s1 == 0 || s1 == kBusy) continue;  // Empty or mid-write.
    Event e;
    e.t_ns = slot.t_ns.load(std::memory_order_relaxed);
    e.type = static_cast<EventType>(slot.type.load(std::memory_order_relaxed));
    e.a = slot.a.load(std::memory_order_relaxed);
    e.b = slot.b.load(std::memory_order_relaxed);
    e.c = slot.c.load(std::memory_order_relaxed);
    const uint64_t s2 = slot.seq.load(std::memory_order_acquire);
    if (s2 != s1) continue;  // Overwritten while reading: drop, not tear.
    e.seq = s1 - 1;
    out.push_back(e);
  }
  std::sort(out.begin(), out.end(),
            [](const Event& x, const Event& y) { return x.seq < y.seq; });
  return out;
}

void EventLog::WriteJson(JsonWriter* w) const {
  const std::vector<Event> events = Snapshot();
  w->BeginObject();
  w->Key("schema").Value("cdb-flight/v1");
  w->Key("capacity").Value(static_cast<uint64_t>(capacity_));
  w->Key("recorded").Value(recorded());
  w->Key("dropped").Value(dropped());
  w->Key("events").BeginArray();
  for (const Event& e : events) {
    w->BeginObject();
    w->Key("seq").Value(e.seq);
    w->Key("t_ns").Value(e.t_ns);
    w->Key("type").Value(EventTypeName(e.type));
    w->Key("a").Value(e.a);
    w->Key("b").Value(e.b);
    w->Key("c").Value(e.c);
    w->EndObject();
  }
  w->EndArray();
  w->EndObject();
}

std::string EventLog::ToJson() const {
  JsonWriter w;
  WriteJson(&w);
  return w.TakeString();
}

Status EventLog::DumpToFile(const std::string& path) const {
  const std::string json = ToJson();
  Result<JsonValue> parsed = ParseJson(json);
  if (!parsed.ok()) {
    return Status::Internal("flight dump failed self-check: " +
                            parsed.status().message());
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IOError("cannot open flight dump file: " + path);
  }
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const int close_rc = std::fclose(f);
  if (written != json.size() || close_rc != 0) {
    return Status::IOError("short write on flight dump file: " + path);
  }
  return Status::OK();
}

}  // namespace obs
}  // namespace cdb
