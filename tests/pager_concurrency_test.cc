// Concurrent-read-mode pager tests (ISSUE 3 tentpole): mode-switch guards,
// per-session stats accounting, correctness of concurrently fetched bytes,
// bounded shard eviction, and warm-cache preservation across the mode
// round-trip. Runs under both ASan (`-L sanitize`) and TSan (`-L tsan`);
// the multi-thread cases are the ones TSan exists for.

#include <atomic>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "storage/file.h"
#include "storage/pager.h"

namespace cdb {
namespace {

constexpr size_t kPageSize = 256;

std::unique_ptr<Pager> MakePager(size_t cache_frames) {
  PagerOptions opts;
  opts.page_size = kPageSize;
  opts.cache_frames = cache_frames;
  std::unique_ptr<Pager> pager;
  EXPECT_TRUE(
      Pager::Open(std::make_unique<MemFile>(kPageSize), opts, &pager).ok());
  return pager;
}

// Deterministic per-page payload so readers can verify what they fetched.
char StampByte(PageId id, size_t i) {
  return static_cast<char>((static_cast<size_t>(id) * 31 + i) & 0xff);
}

// Allocates `n` pages, stamps each with its pattern, and flushes.
std::vector<PageId> StampPages(Pager* pager, size_t n) {
  std::vector<PageId> ids;
  for (size_t p = 0; p < n; ++p) {
    Result<PageId> id = pager->Allocate();
    EXPECT_TRUE(id.ok());
    Result<PageRef> ref = pager->Fetch(id.value());
    EXPECT_TRUE(ref.ok());
    for (size_t i = 0; i < pager->page_size(); ++i) {
      ref.value().data()[i] = StampByte(id.value(), i);
    }
    ref.value().MarkDirty();
    ids.push_back(id.value());
  }
  EXPECT_TRUE(pager->Flush().ok());
  return ids;
}

bool PageMatchesStamp(const Pager& pager, PageId id, const char* data) {
  for (size_t i = 0; i < pager.page_size(); ++i) {
    if (data[i] != StampByte(id, i)) return false;
  }
  return true;
}

TEST(PagerConcurrencyTest, ModeSwitchGuards) {
  auto pager = MakePager(16);
  StampPages(pager.get(), 4);

  // End without Begin is an error.
  EXPECT_FALSE(pager->EndConcurrentReads().ok());

  ASSERT_TRUE(pager->BeginConcurrentReads().ok());
  EXPECT_TRUE(pager->concurrent_reads_active());

  // Begin is not reentrant.
  EXPECT_FALSE(pager->BeginConcurrentReads().ok());

  // Every mutating entry point is rejected in shared mode.
  EXPECT_FALSE(pager->Allocate().ok());
  EXPECT_FALSE(pager->Free(1).ok());
  EXPECT_FALSE(pager->Flush().ok());
  EXPECT_FALSE(pager->DropCache().ok());

  // Fetch without a PagerReadSession on this thread is an error: there is
  // nowhere to charge the I/O.
  EXPECT_FALSE(pager->Fetch(1).ok());
  {
    PagerReadSession session(pager.get());
    EXPECT_TRUE(pager->Fetch(1).ok());
  }

  ASSERT_TRUE(pager->EndConcurrentReads().ok());
  EXPECT_FALSE(pager->concurrent_reads_active());
  EXPECT_TRUE(pager->Allocate().ok());  // Mutations work again.
}

TEST(PagerConcurrencyTest, BeginRequiresNoLivePins) {
  auto pager = MakePager(16);
  std::vector<PageId> ids = StampPages(pager.get(), 2);
  Result<PageRef> ref = pager->Fetch(ids[0]);
  ASSERT_TRUE(ref.ok());
  EXPECT_FALSE(pager->BeginConcurrentReads().ok());
  ref.value().Release();
  EXPECT_TRUE(pager->BeginConcurrentReads().ok());
  EXPECT_TRUE(pager->EndConcurrentReads().ok());
}

TEST(PagerConcurrencyTest, ThreadStatsRoutesToSession) {
  auto pager = MakePager(16);
  std::vector<PageId> ids = StampPages(pager.get(), 3);

  // Exclusive mode: ThreadStats is the pager-wide accumulator.
  EXPECT_EQ(&pager->ThreadStats(), &pager->stats());

  ASSERT_TRUE(pager->BeginConcurrentReads().ok());
  {
    PagerReadSession session(pager.get());
    const uint64_t before = pager->ThreadStats().page_fetches;
    EXPECT_EQ(&pager->ThreadStats(), &session.stats());
    ASSERT_TRUE(pager->Fetch(ids[0]).ok());
    EXPECT_EQ(pager->ThreadStats().page_fetches, before + 1);
    // The pager-wide accumulator is not charged until the session closes.
    EXPECT_EQ(pager->stats().page_fetches - pager->stats().buffer_hits,
              pager->stats().page_reads);
  }
  ASSERT_TRUE(pager->EndConcurrentReads().ok());
  EXPECT_EQ(&pager->ThreadStats(), &pager->stats());
}

TEST(PagerConcurrencyTest, SessionStatsMergeExactly) {
  constexpr size_t kThreads = 4;
  constexpr size_t kFetchesPerThread = 64;
  auto pager = MakePager(/*cache_frames=*/32);
  std::vector<PageId> ids = StampPages(pager.get(), 16);

  const IoStats before = pager->stats();
  ASSERT_TRUE(pager->BeginConcurrentReads().ok());

  std::vector<IoStats> session_stats(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(SplitSeed(20260807, t));
      PagerReadSession session(pager.get());
      for (size_t i = 0; i < kFetchesPerThread; ++i) {
        const PageId id = ids[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(ids.size()) - 1))];
        Result<PageRef> ref = pager->Fetch(id);
        ASSERT_TRUE(ref.ok());
        EXPECT_TRUE(PageMatchesStamp(*pager, id, ref.value().data()));
      }
      session_stats[t] = session.stats();
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_TRUE(pager->EndConcurrentReads().ok());

  // Each session's ledger balances on its own (decision 11 per thread), and
  // the merged pager-wide delta is exactly the sum of the session deltas —
  // no fetch lost, none double-counted.
  IoStats sum;
  for (const IoStats& s : session_stats) {
    EXPECT_EQ(s.page_fetches, kFetchesPerThread);
    EXPECT_EQ(s.page_fetches, s.buffer_hits + s.page_reads);
    sum.Merge(s);
  }
  const IoStats& after = pager->stats();
  EXPECT_EQ(after.page_fetches - before.page_fetches, sum.page_fetches);
  EXPECT_EQ(after.buffer_hits - before.buffer_hits, sum.buffer_hits);
  EXPECT_EQ(after.page_reads - before.page_reads, sum.page_reads);
  EXPECT_EQ(after.buffer_evictions - before.buffer_evictions,
            sum.buffer_evictions);
}

TEST(PagerConcurrencyTest, ConcurrentReadsSeeCorrectBytes) {
  constexpr size_t kThreads = 8;
  // Cache smaller than the page count so threads race through misses,
  // duplicate loads, and evictions — the byte patterns must survive all of
  // those paths.
  auto pager = MakePager(/*cache_frames=*/8);
  std::vector<PageId> ids = StampPages(pager.get(), 24);

  ASSERT_TRUE(pager->BeginConcurrentReads().ok());
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(SplitSeed(42, t));
      PagerReadSession session(pager.get());
      for (size_t i = 0; i < 128; ++i) {
        const PageId id = ids[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(ids.size()) - 1))];
        Result<PageRef> ref = pager->Fetch(id);
        ASSERT_TRUE(ref.ok());
        if (!PageMatchesStamp(*pager, id, ref.value().data())) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_TRUE(pager->EndConcurrentReads().ok());
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(pager->pinned_frame_count(), 0u);
}

TEST(PagerConcurrencyTest, CapacityBoundedEviction) {
  constexpr size_t kCacheFrames = 8;
  auto pager = MakePager(kCacheFrames);
  std::vector<PageId> ids = StampPages(pager.get(), 32);

  ASSERT_TRUE(pager->BeginConcurrentReads().ok());
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(SplitSeed(7, t));
      PagerReadSession session(pager.get());
      for (size_t i = 0; i < 256; ++i) {
        const PageId id = ids[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(ids.size()) - 1))];
        ASSERT_TRUE(pager->Fetch(id).ok());
      }
    });
  }
  for (auto& th : threads) th.join();

  // Eviction is shard-local and tolerates a transient overshoot of one
  // in-flight frame per reader, but once the dust settles the pool must be
  // back under budget (plus at most one unevictable frame per shard).
  EXPECT_LE(pager->resident_frame_count(), kCacheFrames + kReadShards);
  ASSERT_TRUE(pager->EndConcurrentReads().ok());
  EXPECT_LE(pager->resident_frame_count(), kCacheFrames + kReadShards);
  EXPECT_GT(pager->stats().buffer_evictions, 0u);
}

TEST(PagerConcurrencyTest, WarmCacheSurvivesModeRoundTrip) {
  auto pager = MakePager(/*cache_frames=*/32);
  std::vector<PageId> ids = StampPages(pager.get(), 16);

  // Warm every page in exclusive mode.
  ASSERT_TRUE(pager->DropCache().ok());
  for (PageId id : ids) ASSERT_TRUE(pager->Fetch(id).ok());

  const uint64_t reads_before = pager->stats().page_reads;
  ASSERT_TRUE(pager->BeginConcurrentReads().ok());
  {
    PagerReadSession session(pager.get());
    for (PageId id : ids) ASSERT_TRUE(pager->Fetch(id).ok());
  }
  ASSERT_TRUE(pager->EndConcurrentReads().ok());

  // Every fetch inside shared mode hit the (redistributed) warm cache...
  EXPECT_EQ(pager->stats().page_reads, reads_before);

  // ...and the fold back into exclusive mode kept the frames resident too.
  for (PageId id : ids) ASSERT_TRUE(pager->Fetch(id).ok());
  EXPECT_EQ(pager->stats().page_reads, reads_before);
}

TEST(PagerConcurrencyTest, DuplicateLoadChargesLoserHonestly) {
  // Hammer a single page from many threads after a cold start: exactly one
  // frame must survive, and every thread's ledger must balance even when it
  // lost the insert race (the loser did a physical read, so it is charged
  // one page_reads).
  constexpr size_t kThreads = 8;
  auto pager = MakePager(/*cache_frames=*/8);
  std::vector<PageId> ids = StampPages(pager.get(), 1);
  ASSERT_TRUE(pager->DropCache().ok());

  const IoStats before = pager->stats();
  ASSERT_TRUE(pager->BeginConcurrentReads().ok());
  std::vector<IoStats> session_stats(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      PagerReadSession session(pager.get());
      Result<PageRef> ref = pager->Fetch(ids[0]);
      ASSERT_TRUE(ref.ok());
      EXPECT_TRUE(PageMatchesStamp(*pager, ids[0], ref.value().data()));
      session_stats[t] = session.stats();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(pager->resident_frame_count(), 1u);
  ASSERT_TRUE(pager->EndConcurrentReads().ok());

  uint64_t fetches = 0;
  for (const IoStats& s : session_stats) {
    EXPECT_EQ(s.page_fetches, s.buffer_hits + s.page_reads);
    fetches += s.page_fetches;
  }
  EXPECT_EQ(fetches, kThreads);
  EXPECT_EQ(pager->stats().page_fetches - before.page_fetches, kThreads);
  // At least one thread paid the physical read; racers may add more, but
  // the invariant above keeps each one honest.
  EXPECT_GE(pager->stats().page_reads - before.page_reads, 1u);
}

}  // namespace
}  // namespace cdb
