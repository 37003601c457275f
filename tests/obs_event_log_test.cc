// EventLog flight recorder (ISSUE 10 tentpole piece 2).
//
// Determinism under a ManualClock (every recorded field is asserted
// exactly), ring wraparound (only the newest `capacity` events survive and
// dropped() accounts for the rest), the cdb-flight/v1 JSON schema with a
// parse-back round trip, DumpToFile, and snapshot validity under four
// concurrent recorder threads (runs under `-L tsan`: the record path must
// be wait-free and race-free).

#include "obs/event_log.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "obs/json.h"

namespace cdb {
namespace obs {
namespace {

TEST(EventLogTest, RecordsDeterministicallyOnManualClock) {
  ManualClock clock(1000);
  EventLog log(16, &clock);
  EXPECT_EQ(log.capacity(), 16u);
  EXPECT_EQ(log.recorded(), 0u);
  EXPECT_TRUE(log.Snapshot().empty());

  log.Record(EventType::kSubmit, 7);
  clock.AdvanceNanos(500);
  log.Record(EventType::kGroupOpen, 0);
  clock.AdvanceNanos(250);
  log.Record(EventType::kGroupCommitted, 0, 3, 2);

  const std::vector<Event> events = log.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_EQ(events[0].t_ns, 1000u);
  EXPECT_EQ(events[0].type, EventType::kSubmit);
  EXPECT_EQ(events[0].a, 7u);
  EXPECT_EQ(events[1].seq, 1u);
  EXPECT_EQ(events[1].t_ns, 1500u);
  EXPECT_EQ(events[1].type, EventType::kGroupOpen);
  EXPECT_EQ(events[2].seq, 2u);
  EXPECT_EQ(events[2].t_ns, 1750u);
  EXPECT_EQ(events[2].type, EventType::kGroupCommitted);
  EXPECT_EQ(events[2].b, 3u);
  EXPECT_EQ(events[2].c, 2u);
  EXPECT_EQ(log.recorded(), 3u);
  EXPECT_EQ(log.dropped(), 0u);
}

TEST(EventLogTest, WraparoundKeepsNewestAndCountsDropped) {
  ManualClock clock;
  EventLog log(8, &clock);
  for (uint64_t i = 0; i < 20; ++i) {
    clock.SetNanos(i * 10);
    log.Record(EventType::kSubmit, i);
  }
  EXPECT_EQ(log.recorded(), 20u);
  EXPECT_EQ(log.dropped(), 12u);

  const std::vector<Event> events = log.Snapshot();
  ASSERT_EQ(events.size(), 8u);
  // The survivors are exactly the last 8, in record order.
  for (size_t i = 0; i < events.size(); ++i) {
    const uint64_t expect_seq = 12 + i;
    EXPECT_EQ(events[i].seq, expect_seq);
    EXPECT_EQ(events[i].a, expect_seq);
    EXPECT_EQ(events[i].t_ns, expect_seq * 10);
  }
}

TEST(EventLogTest, JsonRoundTripsThroughParser) {
  ManualClock clock(42);
  EventLog log(4, &clock);
  log.Record(EventType::kLanePoisoned, 5, 8);
  log.Record(EventType::kCorruption, 5);

  const std::string json = log.ToJson();
  Result<JsonValue> parsed = ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue& doc = parsed.value();
  ASSERT_TRUE(doc.is_object());
  ASSERT_NE(doc.Find("schema"), nullptr);
  EXPECT_EQ(doc.Find("schema")->string_value, "cdb-flight/v1");
  EXPECT_EQ(doc.Find("capacity")->number, 4);
  EXPECT_EQ(doc.Find("recorded")->number, 2);
  EXPECT_EQ(doc.Find("dropped")->number, 0);
  const JsonValue* events = doc.Find("events");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->items.size(), 2u);
  EXPECT_EQ(events->items[0].Find("type")->string_value, "lane_poisoned");
  EXPECT_EQ(events->items[0].Find("a")->number, 5);
  EXPECT_EQ(events->items[0].Find("b")->number, 8);
  EXPECT_EQ(events->items[0].Find("t_ns")->number, 42);
  EXPECT_EQ(events->items[1].Find("type")->string_value, "corruption");
}

TEST(EventLogTest, DumpToFileWritesParseableJson) {
  const std::string path = ::testing::TempDir() + "cdb_event_log_dump.json";
  ManualClock clock(7);
  EventLog log(4, &clock);
  log.Record(EventType::kGroupFailed, 1, 2);
  ASSERT_TRUE(log.DumpToFile(path).ok());

  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string contents;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    contents.append(buf, n);
  }
  std::fclose(f);
  std::remove(path.c_str());

  Result<JsonValue> parsed = ParseJson(contents);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* events = parsed.value().Find("events");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->items.size(), 1u);
  EXPECT_EQ(events->items[0].Find("type")->string_value, "group_failed");
}

TEST(EventLogTest, DumpToBadPathFailsWithoutCrashing) {
  EventLog log(4);
  log.Record(EventType::kSubmit);
  Status st = log.DumpToFile("/nonexistent-dir/flight.json");
  EXPECT_FALSE(st.ok());
}

// Four threads hammer the ring while a fifth snapshots it: every snapshot
// must be internally valid (unique seqs below recorded(), types in range,
// record order) even while slots are being overwritten underneath it.
// A lapped slot may be dropped from a snapshot, never misreported.
TEST(EventLogTest, ConcurrentWritersProduceValidSnapshots) {
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 2000;
  ManualClock clock;
  EventLog log(64, &clock);

  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        log.Record(EventType::kSubmit, static_cast<uint64_t>(t), i);
      }
    });
  }
  std::thread snapshotter([&] {
    for (int round = 0; round < 50; ++round) {
      const std::vector<Event> events = log.Snapshot();
      const uint64_t recorded = log.recorded();
      std::set<uint64_t> seqs;
      for (size_t i = 0; i < events.size(); ++i) {
        EXPECT_LT(events[i].seq, recorded);
        EXPECT_TRUE(seqs.insert(events[i].seq).second)
            << "duplicate seq " << events[i].seq;
        EXPECT_EQ(events[i].type, EventType::kSubmit);
        EXPECT_LT(events[i].a, static_cast<uint64_t>(kThreads));
        EXPECT_LT(events[i].b, kPerThread);
        if (i > 0) {
          EXPECT_GT(events[i].seq, events[i - 1].seq);
        }
      }
    }
  });
  for (std::thread& w : writers) w.join();
  snapshotter.join();

  EXPECT_EQ(log.recorded(), kThreads * kPerThread);
  // Quiesced: the final snapshot holds exactly the last `capacity` events.
  EXPECT_EQ(log.Snapshot().size(), log.capacity());
}

}  // namespace
}  // namespace obs
}  // namespace cdb
