// The pager's timers read PagerOptions::clock. With a ManualClock the
// fsync, journal-fsync and publish-drain totals are exactly the time the
// test lets pass inside each timed region — no sleeps, no tolerances. The
// drain case crosses threads and runs under `-L tsan`.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <thread>

#include "common/clock.h"
#include "storage/file.h"
#include "storage/pager.h"

namespace cdb {
namespace {

constexpr size_t kPageSize = 256;

// A BlockFile whose Sync() takes exactly `sync_ns` on `clock`.
class SlowSyncFile : public BlockFile {
 public:
  SlowSyncFile(std::unique_ptr<BlockFile> base, ManualClock* clock,
               uint64_t sync_ns)
      : base_(std::move(base)), clock_(clock), sync_ns_(sync_ns) {}

  Status ReadBlock(uint64_t index, char* out) override {
    return base_->ReadBlock(index, out);
  }
  Status WriteBlock(uint64_t index, const char* data) override {
    return base_->WriteBlock(index, data);
  }
  uint64_t BlockCount() const override { return base_->BlockCount(); }
  size_t block_size() const override { return base_->block_size(); }
  Status Sync() override {
    clock_->AdvanceNanos(sync_ns_);
    return base_->Sync();
  }

 private:
  std::unique_ptr<BlockFile> base_;
  ManualClock* clock_;
  uint64_t sync_ns_;
};

// A manual clock that also counts its readings, so a test thread can tell
// when the pager has started a timed region.
class CountingClock final : public Clock {
 public:
  uint64_t NowNanos() override {
    reads_.fetch_add(1, std::memory_order_acq_rel);
    return now_ns_.load(std::memory_order_acquire);
  }
  void AdvanceNanos(uint64_t ns) {
    now_ns_.fetch_add(ns, std::memory_order_acq_rel);
  }
  uint64_t reads() const { return reads_.load(std::memory_order_acquire); }

 private:
  std::atomic<uint64_t> now_ns_{0};
  std::atomic<uint64_t> reads_{0};
};

// Writes `text` into page `id` (a fresh page when kInvalidPageId) and
// marks it dirty; returns the page.
PageId WritePage(Pager* pager, const char* text,
                 PageId id = kInvalidPageId) {
  if (id == kInvalidPageId) {
    Result<PageId> fresh = pager->Allocate();
    EXPECT_TRUE(fresh.ok());
    id = fresh.value();
  }
  Result<PageRef> ref = pager->Fetch(id);
  EXPECT_TRUE(ref.ok());
  std::strcpy(ref.value().data(), text);
  ref.value().MarkDirty();
  return id;
}

TEST(PagerClockTest, FsyncTimersAreExactMultiplesOfTheSyncCost) {
  constexpr uint64_t kSyncNs = 7'000;
  ManualClock clock;
  PagerOptions opts;
  opts.page_size = kPageSize;
  opts.cache_frames = 8;
  opts.clock = &clock;
  std::unique_ptr<Pager> pager;
  ASSERT_TRUE(
      Pager::Open(std::make_unique<SlowSyncFile>(
                      std::make_unique<MemFile>(kPageSize), &clock, kSyncNs),
                  std::make_unique<SlowSyncFile>(
                      std::make_unique<MemFile>(
                          Pager::JournalBlockSize(kPageSize)),
                      &clock, kSyncNs),
                  opts, &pager)
          .ok());

  const uint64_t opened_ns = clock.NowNanos();  // Open synced once, untimed.

  // Two committed transactions; the second overwrites a committed page,
  // so it journals a pre-image and syncs the journal too.
  const PageId first = WritePage(pager.get(), "first");
  ASSERT_TRUE(pager->Flush().ok());
  WritePage(pager.get(), "second", first);
  WritePage(pager.get(), "third");
  ASSERT_TRUE(pager->Flush().ok());

  const PagerConcurrencyStats c = pager->concurrency_stats();
  ASSERT_GT(c.data_fsyncs, 0u);
  ASSERT_GT(c.journal_fsyncs, 0u);
  EXPECT_EQ(c.data_fsync_ns, c.data_fsyncs * kSyncNs);
  EXPECT_EQ(c.journal_fsync_ns, c.journal_fsyncs * kSyncNs);
  // Nothing else moved the clock.
  EXPECT_EQ(clock.NowNanos() - opened_ns,
            (c.data_fsyncs + c.journal_fsyncs) * kSyncNs);
}

TEST(PagerClockTest, PublishDrainIsTheTimeAReaderHeldTheGate) {
  constexpr uint64_t kHoldNs = 123'456;
  CountingClock clock;
  PagerOptions opts;
  opts.page_size = kPageSize;
  opts.cache_frames = 16;
  opts.clock = &clock;
  std::unique_ptr<Pager> pager;
  ASSERT_TRUE(
      Pager::Open(std::make_unique<MemFile>(kPageSize), opts, &pager).ok());
  WritePage(pager.get(), "committed");
  ASSERT_TRUE(pager->Flush().ok());
  ASSERT_TRUE(pager->BeginConcurrentReads(/*single_writer=*/true).ok());
  WritePage(pager.get(), "pending");  // Private to the writer until publish.

  std::atomic<bool> session_open{false};
  std::atomic<uint64_t> reads_before_publish{UINT64_MAX};
  std::thread reader([&] {
    PagerReadSession session(pager.get());
    session_open.store(true, std::memory_order_release);
    // The writer's first clock reading after the baseline starts the drain
    // timer; hold the session for kHoldNs of clock time after it.
    uint64_t base;
    while ((base = reads_before_publish.load(std::memory_order_acquire)) ==
           UINT64_MAX) {
      std::this_thread::yield();
    }
    while (clock.reads() == base) std::this_thread::yield();
    clock.AdvanceNanos(kHoldNs);
  });
  while (!session_open.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  reads_before_publish.store(clock.reads(), std::memory_order_release);
  const Status published = pager->Flush();  // Waits out the reader.
  reader.join();
  ASSERT_TRUE(published.ok());
  ASSERT_TRUE(pager->EndConcurrentReads().ok());

  const PagerConcurrencyStats c = pager->concurrency_stats();
  EXPECT_EQ(c.publish_epochs, 1u);
  EXPECT_EQ(c.publish_sessions_drained, 1u);
  EXPECT_EQ(c.publish_drain_ns, kHoldNs);
}

}  // namespace
}  // namespace cdb
