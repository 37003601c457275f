// Transient-read retry policy on the Pager's physical-read path (ISSUE 7):
// bounded retries with backoff slept on the pager's Clock, exhaustion, the
// one-shot CRC re-read, and the invariant that retries never double-charge
// page_reads. The concurrent-backoff case runs under `-L tsan`.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "storage/fault_file.h"
#include "storage/file.h"
#include "storage/pager.h"

namespace cdb {
namespace {

constexpr size_t kPageSize = 256;

// Corrupts one payload byte of blocks it reads — once, or on every read —
// to exercise the checksum re-read path (a bit flip on the wire vs. rot
// on the platter).
class CorruptingFile : public BlockFile {
 public:
  explicit CorruptingFile(std::unique_ptr<BlockFile> base)
      : base_(std::move(base)) {}

  void CorruptNextRead() { corrupt_next_ = true; }
  void CorruptAllReads(bool on) { corrupt_all_ = on; }

  Status ReadBlock(uint64_t index, char* out) override {
    CDB_RETURN_IF_ERROR(base_->ReadBlock(index, out));
    if (corrupt_all_ || corrupt_next_) {
      corrupt_next_ = false;
      out[kPageSize / 2] ^= 0x5a;
    }
    return Status::OK();
  }
  Status WriteBlock(uint64_t index, const char* data) override {
    return base_->WriteBlock(index, data);
  }
  uint64_t BlockCount() const override { return base_->BlockCount(); }
  size_t block_size() const override { return base_->block_size(); }
  Status Sync() override { return base_->Sync(); }

 private:
  std::unique_ptr<BlockFile> base_;
  bool corrupt_next_ = false;
  bool corrupt_all_ = false;
};

// Opens a pager over `file`, commits one page of known content, and drops
// the cache so the next Fetch is a cold physical read.
PageId SeedOnePage(Pager* pager) {
  Result<PageId> id = pager->Allocate();
  EXPECT_TRUE(id.ok());
  {
    Result<PageRef> ref = pager->Fetch(id.value());
    EXPECT_TRUE(ref.ok());
    std::strcpy(ref.value().data(), "payload");
    ref.value().MarkDirty();
  }
  EXPECT_TRUE(pager->Flush().ok());
  EXPECT_TRUE(pager->DropCache().ok());
  return id.value();
}

TEST(PagerRetryTest, TransientReadRecoversWithinBudget) {
  auto plan = std::make_shared<FaultInjectionFile::FaultPlan>();
  PagerOptions opts;
  opts.page_size = kPageSize;
  opts.cache_frames = 4;
  opts.max_read_attempts = 3;
  std::unique_ptr<Pager> pager;
  ASSERT_TRUE(Pager::Open(std::make_unique<FaultInjectionFile>(
                              std::make_unique<MemFile>(kPageSize), plan),
                          opts, &pager)
                  .ok());
  PageId id = SeedOnePage(pager.get());

  const uint64_t reads_before = pager->stats().page_reads;
  plan->ArmTransientReads(/*n=*/0, /*k=*/2);
  Result<PageRef> ref = pager->Fetch(id);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  EXPECT_STREQ(ref.value().data(), "payload");
  ref.value().Release();

  // One miss = one charged physical read, however many attempts it took;
  // the attempts live in the retry stats instead.
  EXPECT_EQ(pager->stats().page_reads - reads_before, 1u);
  const PagerRetryStats r = pager->retry_stats();
  EXPECT_EQ(r.read_retries, 2u);
  EXPECT_EQ(r.read_recoveries, 1u);
  EXPECT_EQ(r.read_exhausted, 0u);
}

TEST(PagerRetryTest, ExhaustedRetriesSurfaceUnavailable) {
  auto plan = std::make_shared<FaultInjectionFile::FaultPlan>();
  PagerOptions opts;
  opts.page_size = kPageSize;
  opts.cache_frames = 4;
  opts.max_read_attempts = 2;
  std::unique_ptr<Pager> pager;
  ASSERT_TRUE(Pager::Open(std::make_unique<FaultInjectionFile>(
                              std::make_unique<MemFile>(kPageSize), plan),
                          opts, &pager)
                  .ok());
  PageId id = SeedOnePage(pager.get());

  plan->ArmTransientReads(/*n=*/0, /*k=*/10);  // Outlasts the budget.
  Result<PageRef> ref = pager->Fetch(id);
  ASSERT_FALSE(ref.ok());
  EXPECT_TRUE(ref.status().IsUnavailable()) << ref.status().ToString();
  const PagerRetryStats r = pager->retry_stats();
  EXPECT_EQ(r.read_retries, 1u);
  EXPECT_EQ(r.read_recoveries, 0u);
  EXPECT_EQ(r.read_exhausted, 1u);
  EXPECT_EQ(pager->pinned_frame_count(), 0u);

  // The pager stays usable once the fault clears.
  plan->DisarmTransient();
  EXPECT_TRUE(pager->Fetch(id).ok());
}

TEST(PagerRetryTest, DefaultPolicyDoesNotRetry) {
  auto plan = std::make_shared<FaultInjectionFile::FaultPlan>();
  PagerOptions opts;  // max_read_attempts = 1: today's behavior.
  opts.page_size = kPageSize;
  opts.cache_frames = 4;
  std::unique_ptr<Pager> pager;
  ASSERT_TRUE(Pager::Open(std::make_unique<FaultInjectionFile>(
                              std::make_unique<MemFile>(kPageSize), plan),
                          opts, &pager)
                  .ok());
  PageId id = SeedOnePage(pager.get());

  plan->ArmTransientReads(/*n=*/0, /*k=*/1);
  EXPECT_TRUE(pager->Fetch(id).status().IsUnavailable());
  const PagerRetryStats r = pager->retry_stats();
  EXPECT_EQ(r.read_retries, 0u);
  EXPECT_EQ(r.read_exhausted, 1u);
  EXPECT_EQ(r.backoff_waits, 0u);
  // The window (k=1) was consumed by the single attempt.
  EXPECT_TRUE(pager->Fetch(id).ok());
}

// Records every sleep instead of taking it; a sleep advances the clock.
class RecordingClock final : public Clock {
 public:
  uint64_t NowNanos() override { return now_ns_; }
  void SleepNanos(uint64_t ns) override {
    sleeps_.push_back(ns);
    now_ns_ += ns;
  }
  const std::vector<uint64_t>& sleeps() const { return sleeps_; }

 private:
  uint64_t now_ns_ = 0;
  std::vector<uint64_t> sleeps_;
};

TEST(PagerRetryTest, BackoffDoublesAndCaps) {
  auto plan = std::make_shared<FaultInjectionFile::FaultPlan>();
  RecordingClock clock;
  PagerOptions opts;
  opts.page_size = kPageSize;
  opts.cache_frames = 4;
  opts.max_read_attempts = 4;
  opts.retry_backoff_base_ns = 100;
  opts.retry_backoff_cap_ns = 250;
  opts.clock = &clock;
  std::unique_ptr<Pager> pager;
  ASSERT_TRUE(Pager::Open(std::make_unique<FaultInjectionFile>(
                              std::make_unique<MemFile>(kPageSize), plan),
                          opts, &pager)
                  .ok());
  PageId id = SeedOnePage(pager.get());

  plan->ArmTransientReads(/*n=*/0, /*k=*/3);
  ASSERT_TRUE(pager->Fetch(id).ok());
  // Exponential from the base, clamped at the cap; no wall-clock sleeps —
  // the injected clock observed the whole schedule.
  EXPECT_EQ(clock.sleeps(), (std::vector<uint64_t>{100, 200, 250}));
  EXPECT_EQ(clock.NowNanos(), 550u);
  const PagerRetryStats r = pager->retry_stats();
  EXPECT_EQ(r.backoff_waits, 3u);
  EXPECT_EQ(r.backoff_wait_ns, 550u);
  EXPECT_EQ(r.read_recoveries, 1u);
}

// Readers on several threads miss, fail transiently and back off through
// one shared ManualClock: every sleep lands on it exactly once, so the
// clock ends at the pager's booked backoff total.
TEST(PagerRetryTest, ConcurrentBackoffAdvancesOneSharedClock) {
  constexpr int kReaders = 4;
  constexpr int kPagesPerReader = 8;
  constexpr int64_t kFailures = 12;
  auto plan = std::make_shared<FaultInjectionFile::FaultPlan>();
  ManualClock clock;
  PagerOptions opts;
  opts.page_size = kPageSize;
  opts.cache_frames = kReaders * kPagesPerReader;
  opts.max_read_attempts = kFailures + 1;  // No miss can exhaust.
  opts.retry_backoff_base_ns = 100;
  opts.retry_backoff_cap_ns = 1000;
  opts.clock = &clock;
  std::unique_ptr<Pager> pager;
  ASSERT_TRUE(Pager::Open(std::make_unique<FaultInjectionFile>(
                              std::make_unique<MemFile>(kPageSize), plan),
                          opts, &pager)
                  .ok());
  std::vector<PageId> ids;
  for (int i = 0; i < kReaders * kPagesPerReader; ++i) {
    Result<PageId> id = pager->Allocate();
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  ASSERT_TRUE(pager->Flush().ok());
  ASSERT_TRUE(pager->DropCache().ok());
  ASSERT_TRUE(pager->BeginConcurrentReads().ok());

  plan->ArmTransientReads(/*n=*/3, /*k=*/kFailures);
  std::vector<std::thread> readers;
  std::vector<int> failed(kReaders, 0);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      PagerReadSession session(pager.get());
      for (int i = 0; i < kPagesPerReader; ++i) {
        if (!pager->Fetch(ids[t * kPagesPerReader + i]).ok()) ++failed[t];
      }
    });
  }
  for (std::thread& r : readers) r.join();
  ASSERT_TRUE(pager->EndConcurrentReads().ok());

  EXPECT_EQ(failed, std::vector<int>(kReaders, 0));
  const PagerRetryStats r = pager->retry_stats();
  EXPECT_EQ(r.read_retries, static_cast<uint64_t>(kFailures));
  EXPECT_EQ(r.backoff_waits, static_cast<uint64_t>(kFailures));
  EXPECT_EQ(r.read_exhausted, 0u);
  EXPECT_GE(r.backoff_wait_ns, 100u * kFailures);
  EXPECT_EQ(clock.NowNanos(), r.backoff_wait_ns);
}

TEST(PagerRetryTest, ChecksumMismatchRereadsOnceAndRecovers) {
  auto corrupt_owner =
      std::make_unique<CorruptingFile>(std::make_unique<MemFile>(kPageSize));
  CorruptingFile* corrupt = corrupt_owner.get();
  PagerOptions opts;
  opts.page_size = kPageSize;
  opts.cache_frames = 4;
  opts.reread_on_checksum_mismatch = true;
  std::unique_ptr<Pager> pager;
  ASSERT_TRUE(Pager::Open(std::move(corrupt_owner), opts, &pager).ok());
  PageId id = SeedOnePage(pager.get());

  corrupt->CorruptNextRead();
  Result<PageRef> ref = pager->Fetch(id);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  EXPECT_STREQ(ref.value().data(), "payload");
  ref.value().Release();
  const PagerRetryStats r = pager->retry_stats();
  EXPECT_EQ(r.crc_rereads, 1u);
  EXPECT_EQ(r.crc_reread_recoveries, 1u);
  EXPECT_EQ(pager->stats().checksum_failures, 1u);
}

// ISSUE 9 satellite: the same-buffer CRC re-read is not a transient retry.
// Every retry-ledger counter is pinned exactly so a future refactor cannot
// silently re-book the re-read under read_retries (which would break the
// "page_reads = physical reads per miss" invariant's companion story that
// attempts live in the retry stats).
TEST(PagerRetryTest, ChecksumRereadIsNotATransientRetry) {
  auto corrupt_owner =
      std::make_unique<CorruptingFile>(std::make_unique<MemFile>(kPageSize));
  CorruptingFile* corrupt = corrupt_owner.get();
  PagerOptions opts;
  opts.page_size = kPageSize;
  opts.cache_frames = 4;
  opts.max_read_attempts = 4;  // Retry budget armed — and must stay unused.
  opts.retry_backoff_base_ns = 100;
  opts.reread_on_checksum_mismatch = true;
  std::unique_ptr<Pager> pager;
  ASSERT_TRUE(Pager::Open(std::move(corrupt_owner), opts, &pager).ok());
  PageId id = SeedOnePage(pager.get());

  const uint64_t reads_before = pager->stats().page_reads;
  corrupt->CorruptNextRead();
  Result<PageRef> ref = pager->Fetch(id);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  ref.value().Release();

  EXPECT_EQ(pager->stats().page_reads - reads_before, 1u);
  EXPECT_EQ(pager->stats().checksum_failures, 1u);
  const PagerRetryStats r = pager->retry_stats();
  EXPECT_EQ(r.read_retries, 0u);
  EXPECT_EQ(r.read_recoveries, 0u);
  EXPECT_EQ(r.read_exhausted, 0u);
  EXPECT_EQ(r.backoff_waits, 0u);
  EXPECT_EQ(r.backoff_wait_ns, 0u);
  EXPECT_EQ(r.crc_rereads, 1u);
  EXPECT_EQ(r.crc_reread_recoveries, 1u);
}

// Combined fault: a transient miss, then a wire flip on the retry that
// succeeded, then a clean re-read. The ledger must split exactly — the
// transient attempt under read_retries, the CRC cure under crc_rereads —
// while the miss still charges one physical page_read.
TEST(PagerRetryTest, TransientThenChecksumMismatchSplitsLedgerExactly) {
  auto plan = std::make_shared<FaultInjectionFile::FaultPlan>();
  auto corrupt_owner = std::make_unique<CorruptingFile>(
      std::make_unique<FaultInjectionFile>(std::make_unique<MemFile>(kPageSize),
                                           plan));
  CorruptingFile* corrupt = corrupt_owner.get();
  PagerOptions opts;
  opts.page_size = kPageSize;
  opts.cache_frames = 4;
  opts.max_read_attempts = 3;
  opts.reread_on_checksum_mismatch = true;
  std::unique_ptr<Pager> pager;
  ASSERT_TRUE(Pager::Open(std::move(corrupt_owner), opts, &pager).ok());
  PageId id = SeedOnePage(pager.get());

  const uint64_t reads_before = pager->stats().page_reads;
  // Attempt 1 fails transiently (CorruptingFile propagates the error
  // without consuming its one-shot flip); attempt 2 reads fine but gets
  // flipped on the wire; the CRC re-read returns clean bytes.
  plan->ArmTransientReads(/*n=*/0, /*k=*/1);
  corrupt->CorruptNextRead();
  Result<PageRef> ref = pager->Fetch(id);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  EXPECT_STREQ(ref.value().data(), "payload");
  ref.value().Release();

  EXPECT_EQ(pager->stats().page_reads - reads_before, 1u);
  EXPECT_EQ(pager->stats().checksum_failures, 1u);
  const PagerRetryStats r = pager->retry_stats();
  EXPECT_EQ(r.read_retries, 1u);
  EXPECT_EQ(r.read_recoveries, 1u);
  EXPECT_EQ(r.read_exhausted, 0u);
  EXPECT_EQ(r.crc_rereads, 1u);
  EXPECT_EQ(r.crc_reread_recoveries, 1u);
}

TEST(PagerRetryTest, PersistentChecksumMismatchStaysCorruption) {
  auto corrupt_owner =
      std::make_unique<CorruptingFile>(std::make_unique<MemFile>(kPageSize));
  CorruptingFile* corrupt = corrupt_owner.get();
  PagerOptions opts;
  opts.page_size = kPageSize;
  opts.cache_frames = 4;
  opts.reread_on_checksum_mismatch = true;
  std::unique_ptr<Pager> pager;
  ASSERT_TRUE(Pager::Open(std::move(corrupt_owner), opts, &pager).ok());
  PageId id = SeedOnePage(pager.get());

  // Rot, not a wire glitch: the re-read sees the same bad bytes and the
  // error stays Corruption — never retried as transient.
  corrupt->CorruptAllReads(true);
  Result<PageRef> ref = pager->Fetch(id);
  ASSERT_FALSE(ref.ok());
  EXPECT_TRUE(ref.status().IsCorruption()) << ref.status().ToString();
  const PagerRetryStats r = pager->retry_stats();
  EXPECT_EQ(r.crc_rereads, 1u);
  EXPECT_EQ(r.crc_reread_recoveries, 0u);
  EXPECT_EQ(pager->pinned_frame_count(), 0u);
}

}  // namespace
}  // namespace cdb
