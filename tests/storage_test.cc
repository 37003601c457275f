#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>

#include "storage/fault_file.h"
#include "storage/file.h"
#include "storage/pager.h"

namespace cdb {
namespace {

std::unique_ptr<Pager> MakeMemPager(size_t cache_frames = 8,
                                    size_t page_size = 256) {
  PagerOptions opts;
  opts.page_size = page_size;
  opts.cache_frames = cache_frames;
  std::unique_ptr<Pager> pager;
  Status st = Pager::Open(std::make_unique<MemFile>(page_size), opts, &pager);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return pager;
}

TEST(MemFileTest, ReadBackWrites) {
  MemFile f(64);
  std::vector<char> in(64, 'a'), out(64, 0);
  ASSERT_TRUE(f.WriteBlock(3, in.data()).ok());
  EXPECT_EQ(f.BlockCount(), 4u);
  ASSERT_TRUE(f.ReadBlock(3, out.data()).ok());
  EXPECT_EQ(std::memcmp(in.data(), out.data(), 64), 0);
  // Implicitly-created intermediate blocks read as zero.
  ASSERT_TRUE(f.ReadBlock(1, out.data()).ok());
  EXPECT_EQ(out[0], 0);
}

TEST(MemFileTest, ReadPastEndFails) {
  MemFile f(64);
  std::vector<char> out(64);
  EXPECT_TRUE(f.ReadBlock(0, out.data()).IsIOError());
}

TEST(PagerTest, AllocateFetchPersist) {
  auto pager = MakeMemPager();
  Result<PageId> id = pager->Allocate();
  ASSERT_TRUE(id.ok());
  {
    Result<PageRef> ref = pager->Fetch(id.value());
    ASSERT_TRUE(ref.ok());
    std::strcpy(ref.value().data(), "hello");
    ref.value().MarkDirty();
  }
  ASSERT_TRUE(pager->Flush().ok());
  Result<PageRef> again = pager->Fetch(id.value());
  ASSERT_TRUE(again.ok());
  EXPECT_STREQ(again.value().data(), "hello");
}

TEST(PagerTest, FreshPagesAreZeroed) {
  auto pager = MakeMemPager();
  Result<PageId> id = pager->Allocate();
  ASSERT_TRUE(id.ok());
  Result<PageRef> ref = pager->Fetch(id.value());
  ASSERT_TRUE(ref.ok());
  for (size_t i = 0; i < pager->page_size(); ++i) {
    ASSERT_EQ(ref.value().data()[i], 0) << "at offset " << i;
  }
}

TEST(PagerTest, FreeRecyclesPages) {
  auto pager = MakeMemPager();
  Result<PageId> a = pager->Allocate();
  Result<PageId> b = pager->Allocate();
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(pager->live_page_count(), 2u);
  ASSERT_TRUE(pager->Free(a.value()).ok());
  EXPECT_EQ(pager->live_page_count(), 1u);
  Result<PageId> c = pager->Allocate();
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c.value(), a.value());  // Recycled.
  EXPECT_EQ(pager->live_page_count(), 2u);
  // Recycled pages come back zeroed.
  Result<PageRef> ref = pager->Fetch(c.value());
  ASSERT_TRUE(ref.ok());
  for (size_t i = 0; i < pager->page_size(); ++i) {
    ASSERT_EQ(ref.value().data()[i], 0);
  }
}

TEST(PagerTest, EvictionWritesBackDirtyPages) {
  auto pager = MakeMemPager(/*cache_frames=*/2);
  std::vector<PageId> ids;
  for (int i = 0; i < 10; ++i) {
    Result<PageId> id = pager->Allocate();
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
    Result<PageRef> ref = pager->Fetch(id.value());
    ASSERT_TRUE(ref.ok());
    ref.value().data()[0] = static_cast<char>('A' + i);
    ref.value().MarkDirty();
  }
  for (int i = 0; i < 10; ++i) {
    Result<PageRef> ref = pager->Fetch(ids[static_cast<size_t>(i)]);
    ASSERT_TRUE(ref.ok());
    EXPECT_EQ(ref.value().data()[0], static_cast<char>('A' + i));
  }
}

TEST(PagerTest, StatsCountFetchesAndReads) {
  auto pager = MakeMemPager(/*cache_frames=*/2);
  std::vector<PageId> ids;
  for (int i = 0; i < 5; ++i) {
    Result<PageId> id = pager->Allocate();
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  ASSERT_TRUE(pager->DropCache().ok());
  IoStats before = pager->stats();
  for (PageId id : ids) {
    Result<PageRef> ref = pager->Fetch(id);
    ASSERT_TRUE(ref.ok());
  }
  IoStats delta = pager->stats().Delta(before);
  EXPECT_EQ(delta.page_fetches, 5u);
  EXPECT_GE(delta.page_reads, 3u);  // At most 2 could have stayed cached.
}

TEST(PagerTest, DropCacheForcesColdReads) {
  auto pager = MakeMemPager(/*cache_frames=*/16);
  Result<PageId> id = pager->Allocate();
  ASSERT_TRUE(id.ok());
  { auto r = pager->Fetch(id.value()); ASSERT_TRUE(r.ok()); }
  ASSERT_TRUE(pager->DropCache().ok());
  IoStats before = pager->stats();
  { auto r = pager->Fetch(id.value()); ASSERT_TRUE(r.ok()); }
  EXPECT_EQ(pager->stats().Delta(before).page_reads, 1u);
}

TEST(PagerTest, PinnedPagesSurviveEvictionPressure) {
  auto pager = MakeMemPager(/*cache_frames=*/2);
  Result<PageId> pinned_id = pager->Allocate();
  ASSERT_TRUE(pinned_id.ok());
  Result<PageRef> pinned = pager->Fetch(pinned_id.value());
  ASSERT_TRUE(pinned.ok());
  std::strcpy(pinned.value().data(), "pinned");
  pinned.value().MarkDirty();
  for (int i = 0; i < 8; ++i) {
    Result<PageId> id = pager->Allocate();
    ASSERT_TRUE(id.ok());
    auto r = pager->Fetch(id.value());
    ASSERT_TRUE(r.ok());
  }
  EXPECT_STREQ(pinned.value().data(), "pinned");
}

TEST(PagerTest, ReopenFromPosixFilePersistsData) {
  std::string path =
      (std::filesystem::temp_directory_path() / "cdb_pager_test.db").string();
  std::filesystem::remove(path);
  PagerOptions opts;
  opts.page_size = 256;
  PageId id = kInvalidPageId;
  {
    std::unique_ptr<PosixFile> file;
    ASSERT_TRUE(PosixFile::Open(path, 256, /*truncate=*/true, &file).ok());
    std::unique_ptr<Pager> pager;
    ASSERT_TRUE(Pager::Open(std::move(file), opts, &pager).ok());
    Result<PageId> r = pager->Allocate();
    ASSERT_TRUE(r.ok());
    id = r.value();
    auto ref = pager->Fetch(id);
    ASSERT_TRUE(ref.ok());
    std::strcpy(ref.value().data(), "durable");
    ref.value().MarkDirty();
    ASSERT_TRUE(pager->Flush().ok());
  }
  {
    std::unique_ptr<PosixFile> file;
    ASSERT_TRUE(PosixFile::Open(path, 256, /*truncate=*/false, &file).ok());
    std::unique_ptr<Pager> pager;
    ASSERT_TRUE(Pager::Open(std::move(file), opts, &pager).ok());
    EXPECT_EQ(pager->live_page_count(), 1u);
    auto ref = pager->Fetch(id);
    ASSERT_TRUE(ref.ok());
    EXPECT_STREQ(ref.value().data(), "durable");
  }
  std::filesystem::remove(path);
}

TEST(PagerTest, InvalidFetchRejected) {
  auto pager = MakeMemPager();
  EXPECT_TRUE(pager->Fetch(kInvalidPageId).status().IsInvalidArgument());
  EXPECT_TRUE(pager->Fetch(999).status().IsInvalidArgument());
}

TEST(PagerTest, BufferHitsPlusReadsEqualsFetches) {
  auto pager = MakeMemPager(/*cache_frames=*/4);
  std::vector<PageId> ids;
  for (int i = 0; i < 8; ++i) {
    Result<PageId> id = pager->Allocate();
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  ASSERT_TRUE(pager->Flush().ok());

  // Cold: every fetch misses, so hits stay 0 and reads carry everything.
  ASSERT_TRUE(pager->DropCache().ok());
  IoStats before = pager->stats();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(pager->Fetch(ids[static_cast<size_t>(i)]).ok());
  }
  IoStats cold = pager->stats().Delta(before);
  EXPECT_EQ(cold.page_fetches, 4u);
  EXPECT_EQ(cold.buffer_hits, 0u);
  EXPECT_EQ(cold.page_reads, 4u);
  EXPECT_EQ(cold.page_fetches, cold.buffer_hits + cold.page_reads);

  // Warm: the same four pages are resident, so every fetch hits.
  before = pager->stats();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(pager->Fetch(ids[static_cast<size_t>(i)]).ok());
  }
  IoStats warm = pager->stats().Delta(before);
  EXPECT_EQ(warm.page_fetches, 4u);
  EXPECT_EQ(warm.buffer_hits, 4u);
  EXPECT_EQ(warm.page_reads, 0u);
  EXPECT_EQ(warm.page_fetches, warm.buffer_hits + warm.page_reads);

  // Mixed: a scan over all 8 pages through a 4-frame pool still satisfies
  // the invariant fetch-by-fetch.
  before = pager->stats();
  for (int round = 0; round < 2; ++round) {
    for (PageId id : ids) ASSERT_TRUE(pager->Fetch(id).ok());
  }
  IoStats mixed = pager->stats().Delta(before);
  EXPECT_EQ(mixed.page_fetches, 16u);
  EXPECT_EQ(mixed.page_fetches, mixed.buffer_hits + mixed.page_reads);
}

TEST(PagerTest, EvictionAndDirtyWritebackCounters) {
  auto pager = MakeMemPager(/*cache_frames=*/2);
  std::vector<PageId> ids;
  for (int i = 0; i < 6; ++i) {
    Result<PageId> id = pager->Allocate();
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  // Allocation leaves fresh pages dirty in the pool; flush so the only
  // dirty frame below is the one this test dirties explicitly.
  ASSERT_TRUE(pager->Flush().ok());
  IoStats before = pager->stats();
  {
    Result<PageRef> ref = pager->Fetch(ids[0]);
    ASSERT_TRUE(ref.ok());
    ref.value().data()[0] = 'x';
    ref.value().MarkDirty();
  }
  ASSERT_TRUE(pager->Fetch(ids[1]).ok());
  ASSERT_TRUE(pager->Fetch(ids[2]).ok());
  IoStats delta = pager->stats().Delta(before);
  EXPECT_GE(delta.buffer_evictions, 1u);
  EXPECT_EQ(delta.dirty_writebacks, 1u);
  // Eviction-forced write-backs are also page writes.
  EXPECT_GE(delta.page_writes, delta.dirty_writebacks);

  // Flush writes dirty pages but must not count as eviction write-back.
  {
    Result<PageRef> ref = pager->Fetch(ids[3]);
    ASSERT_TRUE(ref.ok());
    ref.value().MarkDirty();
  }
  before = pager->stats();
  ASSERT_TRUE(pager->Flush().ok());
  delta = pager->stats().Delta(before);
  EXPECT_GE(delta.page_writes, 1u);
  EXPECT_EQ(delta.dirty_writebacks, 0u);
  EXPECT_EQ(delta.buffer_evictions, 0u);
}

// The pool is sharded by page id (id & 7), but single-threaded eviction
// must drop the page one global LRU list would drop (DESIGN.md decision
// 24): the paper tables count the re-reads that follow. Pages 1, 9 and 17
// share shard 1 and page 2 sits in shard 2. With the recency order
// 2, 1, 9 a miss on 17 must evict page 2, the pool-wide LRU page, not
// page 1, the cold end of the fetched page's shard and of the
// lowest-numbered non-empty shard.
TEST(PagerTest, EvictsGlobalLeastRecentlyUsedAcrossShards) {
  constexpr size_t kCacheFrames = 3;
  auto pager = MakeMemPager(kCacheFrames);
  for (int i = 0; i < 17; ++i) ASSERT_TRUE(pager->Allocate().ok());
  ASSERT_TRUE(pager->DropCache().ok());

  // Fetches `id`, releases it and returns the physical reads it cost.
  auto reads_for = [&](PageId id) -> uint64_t {
    const uint64_t before = pager->stats().page_reads;
    EXPECT_TRUE(pager->Fetch(id).ok());
    EXPECT_LE(pager->resident_frame_count(), kCacheFrames) << "page " << id;
    return pager->stats().page_reads - before;
  };
  EXPECT_EQ(reads_for(2), 1u);
  EXPECT_EQ(reads_for(1), 1u);
  EXPECT_EQ(reads_for(9), 1u);
  EXPECT_EQ(reads_for(17), 1u);  // Evicts page 2.
  EXPECT_EQ(reads_for(1), 0u);   // Still resident: recency order 9, 17, 1.
  EXPECT_EQ(reads_for(2), 1u);   // Re-read; evicts page 9.
  EXPECT_EQ(reads_for(17), 0u);
  EXPECT_EQ(reads_for(9), 1u);   // Evicts page 1.
  EXPECT_EQ(reads_for(2), 0u);
  EXPECT_EQ(reads_for(1), 1u);
}

TEST(PagerTest, ResidentAndPinnedFrameCounts) {
  auto pager = MakeMemPager(/*cache_frames=*/4);
  EXPECT_EQ(pager->resident_frame_count(), 0u);
  EXPECT_EQ(pager->pinned_frame_count(), 0u);

  Result<PageId> a = pager->Allocate();
  Result<PageId> b = pager->Allocate();
  ASSERT_TRUE(a.ok() && b.ok());
  {
    Result<PageRef> ra = pager->Fetch(a.value());
    ASSERT_TRUE(ra.ok());
    EXPECT_EQ(pager->pinned_frame_count(), 1u);
    {
      // A second pin on the same page does not change the frame count.
      Result<PageRef> ra2 = pager->Fetch(a.value());
      ASSERT_TRUE(ra2.ok());
      EXPECT_EQ(pager->pinned_frame_count(), 1u);
      Result<PageRef> rb = pager->Fetch(b.value());
      ASSERT_TRUE(rb.ok());
      EXPECT_EQ(pager->pinned_frame_count(), 2u);
    }
    EXPECT_EQ(pager->pinned_frame_count(), 1u);
  }
  EXPECT_EQ(pager->pinned_frame_count(), 0u);
  EXPECT_EQ(pager->resident_frame_count(), 2u);
  ASSERT_TRUE(pager->DropCache().ok());
  EXPECT_EQ(pager->resident_frame_count(), 0u);
}

TEST(FaultInjectionTest, FailAfterCountsDown) {
  auto base = std::make_unique<MemFile>(256);
  auto* fault = new FaultInjectionFile(std::move(base));
  std::unique_ptr<BlockFile> file(fault);

  std::vector<char> buf(256, 1);
  fault->FailAfter(2);
  EXPECT_TRUE(file->WriteBlock(0, buf.data()).ok());
  EXPECT_TRUE(file->WriteBlock(1, buf.data()).ok());
  EXPECT_TRUE(file->WriteBlock(2, buf.data()).IsIOError());
  EXPECT_TRUE(file->ReadBlock(0, buf.data()).IsIOError());
  // Exactly one failure is counted per arming — on the tripping call,
  // attributed to its path — so counts don't depend on how many further
  // calls the workload happens to issue after the trip.
  EXPECT_EQ(fault->injected_failures(), 1u);
  EXPECT_EQ(fault->injected_write_failures(), 1u);
  EXPECT_EQ(fault->injected_read_failures(), 0u);
  fault->ClearFault();
  EXPECT_TRUE(file->ReadBlock(0, buf.data()).ok());

  // A read-path trip is attributed to reads.
  fault->FailAfter(0);
  EXPECT_TRUE(file->ReadBlock(0, buf.data()).IsIOError());
  EXPECT_TRUE(file->WriteBlock(0, buf.data()).IsIOError());
  EXPECT_EQ(fault->injected_read_failures(), 1u);
  EXPECT_EQ(fault->injected_write_failures(), 1u);
  EXPECT_EQ(fault->injected_failures(), 2u);
  fault->ClearFault();
}

TEST(FaultInjectionTest, SyncFailuresAndTornWrites) {
  auto plan = std::make_shared<FaultInjectionFile::CrashPlan>();
  auto* fault =
      new FaultInjectionFile(std::make_unique<MemFile>(64), plan);
  std::unique_ptr<BlockFile> file(fault);

  fault->FailNextSync();
  EXPECT_TRUE(file->Sync().IsIOError());
  EXPECT_EQ(fault->injected_sync_failures(), 1u);
  EXPECT_TRUE(file->Sync().ok());

  std::vector<char> ones(64, 1), twos(64, 2), out(64, 0);
  ASSERT_TRUE(file->WriteBlock(0, ones.data()).ok());
  EXPECT_EQ(fault->writes_seen(), 1u);

  // Crash on the next write, persisting only an 8-byte prefix; the tail
  // keeps the old content. Later writes are silently dropped and
  // sync/read report the crash.
  plan->writes_remaining = 0;
  plan->torn_bytes = 8;
  ASSERT_TRUE(file->WriteBlock(0, twos.data()).ok());
  EXPECT_TRUE(fault->crashed());
  EXPECT_TRUE(file->WriteBlock(1, twos.data()).ok());  // Dropped.
  EXPECT_TRUE(file->Sync().IsIOError());
  EXPECT_TRUE(file->ReadBlock(0, out.data()).IsIOError());

  // Inspect the surviving bytes by lifting the crash (the reopen-over-
  // shared-storage path is covered by crash_recovery_test).
  plan->crashed = false;
  ASSERT_TRUE(file->ReadBlock(0, out.data()).ok());
  for (int i = 0; i < 8; ++i) EXPECT_EQ(out[i], 2) << i;
  for (int i = 8; i < 64; ++i) EXPECT_EQ(out[i], 1) << i;
  EXPECT_EQ(file->BlockCount(), 1u);  // The dropped write never landed.
}

TEST(FaultInjectionTest, PagerSurfacesInjectedErrors) {
  PagerOptions opts;
  opts.page_size = 256;
  opts.cache_frames = 1;  // Force eviction traffic.
  auto fault_owner =
      std::make_unique<FaultInjectionFile>(std::make_unique<MemFile>(256));
  FaultInjectionFile* fault = fault_owner.get();
  std::unique_ptr<Pager> pager;
  ASSERT_TRUE(Pager::Open(std::move(fault_owner), opts, &pager).ok());

  Result<PageId> a = pager->Allocate();
  Result<PageId> b = pager->Allocate();
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(pager->Flush().ok());
  ASSERT_TRUE(pager->DropCache().ok());

  fault->FailAfter(0);
  EXPECT_FALSE(pager->Fetch(a.value()).ok());
  fault->ClearFault();
  // The pager remains usable after a failed fetch.
  EXPECT_TRUE(pager->Fetch(a.value()).ok());
}

// --- Durability-layer tests: checksums, double-free defense, journal. ---

std::unique_ptr<Pager> OpenShared(std::shared_ptr<BlockFile> data,
                                  std::shared_ptr<BlockFile> journal,
                                  const PagerOptions& opts) {
  std::unique_ptr<Pager> pager;
  std::unique_ptr<BlockFile> j =
      journal ? std::make_unique<SharedFile>(journal) : nullptr;
  Status st = Pager::Open(std::make_unique<SharedFile>(data), std::move(j),
                          opts, &pager);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return pager;
}

TEST(PagerDurabilityTest, DoubleFreeIsCorruption) {
  auto pager = MakeMemPager();
  Result<PageId> a = pager->Allocate();
  Result<PageId> b = pager->Allocate();
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(pager->Free(a.value()).ok());
  EXPECT_TRUE(pager->Free(a.value()).IsCorruption());
  EXPECT_TRUE(pager->Free(a.value() + 100).IsCorruption());  // Out of range.
  // A freed page cannot be fetched until it is reallocated.
  EXPECT_TRUE(pager->Fetch(a.value()).status().IsCorruption());
  // The pager stays usable: the live page is intact and the freed page
  // can be recycled.
  EXPECT_TRUE(pager->Fetch(b.value()).ok());
  Result<PageId> c = pager->Allocate();
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c.value(), a.value());
  EXPECT_TRUE(pager->Fetch(c.value()).ok());
}

TEST(PagerDurabilityTest, DoubleFreeDetectedAcrossReopen) {
  auto data = std::make_shared<MemFile>(256);
  PagerOptions opts;
  opts.page_size = 256;
  PageId freed = kInvalidPageId;
  {
    auto pager = OpenShared(data, nullptr, opts);
    Result<PageId> a = pager->Allocate();
    Result<PageId> b = pager->Allocate();
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_TRUE(pager->Free(a.value()).ok());
    freed = a.value();
    ASSERT_TRUE(pager->Flush().ok());
  }
  // The reopened pager rebuilds the exact free set from the on-disk list,
  // so the stale id is still rejected.
  auto pager = OpenShared(data, nullptr, opts);
  ASSERT_NE(pager, nullptr);
  EXPECT_TRUE(pager->Free(freed).IsCorruption());
  EXPECT_TRUE(pager->Fetch(freed).status().IsCorruption());
}

TEST(PagerDurabilityTest, BitFlipInColdPageIsCorruption) {
  auto data = std::make_shared<MemFile>(256);
  PagerOptions opts;
  opts.page_size = 256;
  PageId id = kInvalidPageId;
  {
    auto pager = OpenShared(data, nullptr, opts);
    Result<PageId> a = pager->Allocate();
    ASSERT_TRUE(a.ok());
    id = a.value();
    Result<PageRef> ref = pager->Fetch(id);
    ASSERT_TRUE(ref.ok());
    std::strcpy(ref.value().data(), "precious bytes");
    ref.value().MarkDirty();
    ASSERT_TRUE(pager->Flush().ok());
  }
  // Flip one payload byte behind the pager's back.
  std::vector<char> block(256);
  ASSERT_TRUE(data->ReadBlock(id, block.data()).ok());
  block[kPageHeaderSize + 5] ^= 0x01;
  ASSERT_TRUE(data->WriteBlock(id, block.data()).ok());

  auto pager = OpenShared(data, nullptr, opts);
  ASSERT_NE(pager, nullptr);
  Result<PageRef> ref = pager->Fetch(id);
  EXPECT_TRUE(ref.status().IsCorruption()) << ref.status().ToString();
  EXPECT_EQ(pager->stats().checksum_failures, 1u);
}

TEST(PagerDurabilityTest, HeaderTamperingIsCorruption) {
  auto data = std::make_shared<MemFile>(256);
  PagerOptions opts;
  opts.page_size = 256;
  PageId id = kInvalidPageId;
  {
    auto pager = OpenShared(data, nullptr, opts);
    Result<PageId> a = pager->Allocate();
    ASSERT_TRUE(a.ok());
    id = a.value();
    ASSERT_TRUE(pager->Flush().ok());
  }
  // Rewriting a page's stored id (e.g. a block landing at the wrong
  // offset) is caught even when payload bytes are self-consistent.
  std::vector<char> block(256);
  ASSERT_TRUE(data->ReadBlock(id, block.data()).ok());
  block[4] ^= 0x01;  // Stored page id, little-endian low byte.
  ASSERT_TRUE(data->WriteBlock(id, block.data()).ok());
  auto pager = OpenShared(data, nullptr, opts);
  EXPECT_TRUE(pager->Fetch(id).status().IsCorruption());
}

TEST(PagerDurabilityTest, CorruptMetaRejectedAtOpen) {
  auto data = std::make_shared<MemFile>(256);
  PagerOptions opts;
  opts.page_size = 256;
  {
    auto pager = OpenShared(data, nullptr, opts);
    ASSERT_TRUE(pager->Allocate().ok());
    ASSERT_TRUE(pager->Flush().ok());
  }
  std::vector<char> block(256);
  ASSERT_TRUE(data->ReadBlock(0, block.data()).ok());
  block[25] ^= 0x40;  // Inside the live-page count.
  ASSERT_TRUE(data->WriteBlock(0, block.data()).ok());
  std::unique_ptr<Pager> pager;
  Status st = Pager::Open(std::make_unique<SharedFile>(data), opts, &pager);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
}

TEST(PagerDurabilityTest, ChecksumModeMismatchRejected) {
  auto data = std::make_shared<MemFile>(256);
  PagerOptions opts;
  opts.page_size = 256;
  {
    auto pager = OpenShared(data, nullptr, opts);
    ASSERT_TRUE(pager->Flush().ok());
  }
  PagerOptions raw = opts;
  raw.checksums = false;
  std::unique_ptr<Pager> pager;
  Status st = Pager::Open(std::make_unique<SharedFile>(data), raw, &pager);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
}

TEST(PagerDurabilityTest, JournalBlockSizeValidated) {
  PagerOptions opts;
  opts.page_size = 256;
  std::unique_ptr<Pager> pager;
  Status st = Pager::Open(std::make_unique<MemFile>(256),
                          std::make_unique<MemFile>(256), opts, &pager);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_EQ(Pager::JournalBlockSize(256), 256 + kJournalBlockOverhead);
}

TEST(PagerDurabilityTest, JournalRollsBackUncommittedEvictions) {
  auto data = std::make_shared<MemFile>(256);
  auto jnl = std::make_shared<MemFile>(Pager::JournalBlockSize(256));
  auto plan = std::make_shared<FaultInjectionFile::CrashPlan>();
  PagerOptions opts;
  opts.page_size = 256;
  opts.cache_frames = 4;

  constexpr int kPages = 8;
  std::vector<PageId> ids;
  {
    std::unique_ptr<Pager> pager;
    ASSERT_TRUE(Pager::Open(
                    std::make_unique<FaultInjectionFile>(
                        std::make_unique<SharedFile>(data), plan),
                    std::make_unique<FaultInjectionFile>(
                        std::make_unique<SharedFile>(jnl), plan),
                    opts, &pager)
                    .ok());
    for (int i = 0; i < kPages; ++i) {
      Result<PageId> id = pager->Allocate();
      ASSERT_TRUE(id.ok());
      ids.push_back(id.value());
      Result<PageRef> ref = pager->Fetch(id.value());
      ASSERT_TRUE(ref.ok());
      ref.value().data()[0] = static_cast<char>('A' + i);
      ref.value().MarkDirty();
    }
    ASSERT_TRUE(pager->Flush().ok());
    EXPECT_EQ(pager->commit_seq(), 1u);

    // Uncommitted transaction: the small cache forces in-place eviction
    // writebacks, each preceded by a journaled pre-image.
    for (int i = 0; i < kPages; ++i) {
      Result<PageRef> ref = pager->Fetch(ids[static_cast<size_t>(i)]);
      ASSERT_TRUE(ref.ok());
      ref.value().data()[0] = '!';
      ref.value().MarkDirty();
    }
    EXPECT_GT(pager->stats().journal_records, 0u);

    plan->crashed = true;  // Power loss: destructor's flush is dropped.
  }

  std::unique_ptr<Pager> pager;
  ASSERT_TRUE(Pager::Open(std::make_unique<SharedFile>(data),
                          std::make_unique<SharedFile>(jnl), opts, &pager)
                  .ok());
  EXPECT_EQ(pager->stats().journal_replays, 1u);
  EXPECT_GT(pager->stats().pages_rolled_back, 0u);
  EXPECT_EQ(pager->commit_seq(), 1u);
  for (int i = 0; i < kPages; ++i) {
    Result<PageRef> ref = pager->Fetch(ids[static_cast<size_t>(i)]);
    ASSERT_TRUE(ref.ok());
    EXPECT_EQ(ref.value().data()[0], static_cast<char>('A' + i)) << i;
  }
}

TEST(PagerDurabilityTest, CommittedStateSurvivesCleanReopen) {
  auto data = std::make_shared<MemFile>(256);
  auto jnl = std::make_shared<MemFile>(Pager::JournalBlockSize(256));
  PagerOptions opts;
  opts.page_size = 256;
  PageId id = kInvalidPageId;
  {
    auto pager = OpenShared(data, jnl, opts);
    Result<PageId> a = pager->Allocate();
    ASSERT_TRUE(a.ok());
    id = a.value();
    Result<PageRef> ref = pager->Fetch(id);
    ASSERT_TRUE(ref.ok());
    std::strcpy(ref.value().data(), "committed");
    ref.value().MarkDirty();
    ASSERT_TRUE(pager->Flush().ok());
    // Second commit bumps the sequence.
    ref = pager->Fetch(id);
    ASSERT_TRUE(ref.ok());
    std::strcpy(ref.value().data(), "committed twice");
    ref.value().MarkDirty();
    ASSERT_TRUE(pager->Flush().ok());
    EXPECT_EQ(pager->commit_seq(), 2u);
    EXPECT_EQ(pager->stats().journal_commits, 2u);
  }
  auto pager = OpenShared(data, jnl, opts);
  ASSERT_NE(pager, nullptr);
  // A clean shutdown leaves an invalidated journal: nothing to replay.
  EXPECT_EQ(pager->stats().pages_rolled_back, 0u);
  EXPECT_EQ(pager->commit_seq(), 2u);
  Result<PageRef> ref = pager->Fetch(id);
  ASSERT_TRUE(ref.ok());
  EXPECT_STREQ(ref.value().data(), "committed twice");
}

}  // namespace
}  // namespace cdb
