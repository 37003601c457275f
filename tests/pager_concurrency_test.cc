// Concurrent-read-mode pager tests (ISSUE 3 tentpole): mode-switch guards,
// per-session stats accounting, correctness of concurrently fetched bytes,
// bounded shard eviction, warm-cache preservation across the mode
// round-trip, and lock-free hits racing evictions, frame reuse and
// publishes. Runs under both ASan (`-L sanitize`) and TSan (`-L tsan`);
// the multi-thread cases are the ones TSan exists for.

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
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

  // Every fetch inside shared mode hit the warm pool...
  EXPECT_EQ(pager->stats().page_reads, reads_before);

  // ...and leaving the mode kept the frames resident too.
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

// What one reader saw: its sessions' counters, its fetches per shard, and
// pages whose bytes were not the page asked for.
struct ReaderTally {
  IoStats stats;
  std::array<uint64_t, kReadShards> shard_fetches{};
  int mismatches = 0;
  int failures = 0;
  bool balanced = true;  // fetches == hits + reads in every session.
};

// Fetches `id` and checks that the bytes and the id are page `id`'s.
// Returns the pin (or an invalid ref after a failure).
PageRef CheckedFetch(Pager* pager, PageId id, ReaderTally* tally) {
  ++tally->shard_fetches[id & (kReadShards - 1)];
  Result<PageRef> ref = pager->Fetch(id);
  if (!ref.ok()) {
    ++tally->failures;
    return PageRef();
  }
  if (ref.value().id() != id ||
      !PageMatchesStamp(*pager, id, ref.value().data())) {
    ++tally->mismatches;
  }
  return std::move(ref.value());
}

// One session's worth of the hot/cold mix: two hot fetches (mostly hits,
// sometimes pinned across the next fetch) per step of a cold scan (misses
// that evict and re-key frames other readers may still be hitting).
void HotColdSession(Pager* pager, const std::vector<PageId>& hot,
                    const std::vector<PageId>& cold, Rng* rng, size_t* cursor,
                    size_t steps, ReaderTally* tally) {
  PagerReadSession session(pager);
  const auto pick = [&](const std::vector<PageId>& ids) {
    return ids[static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(ids.size()) - 1))];
  };
  for (size_t i = 0; i < steps; ++i) {
    PageRef held = CheckedFetch(pager, pick(hot), tally);
    if (!rng->Chance(0.25)) held.Release();
    CheckedFetch(pager, pick(hot), tally);
    CheckedFetch(pager, cold[(*cursor)++ % cold.size()], tally);
  }
  const IoStats& s = session.stats();
  tally->balanced &= s.page_fetches == s.buffer_hits + s.page_reads;
  tally->stats.Merge(s);
}

// The per-shard tallies behind ShardImbalance() are the readers' own
// fetches, shard for shard: same total, same peak.
void ExpectShardTalliesMatch(const Pager& pager,
                             const std::vector<ReaderTally>& tallies) {
  std::array<uint64_t, kReadShards> per_shard{};
  uint64_t session_fetches = 0;
  for (const ReaderTally& t : tallies) {
    EXPECT_EQ(t.mismatches, 0);
    EXPECT_EQ(t.failures, 0);
    EXPECT_TRUE(t.balanced);
    session_fetches += t.stats.page_fetches;
    for (size_t i = 0; i < kReadShards; ++i) {
      per_shard[i] += t.shard_fetches[i];
    }
  }
  uint64_t total = 0;
  uint64_t peak = 0;
  for (uint64_t f : per_shard) {
    total += f;
    peak = std::max(peak, f);
  }
  EXPECT_EQ(total, session_fetches);
  const double mean =
      static_cast<double>(total) / static_cast<double>(kReadShards);
  EXPECT_DOUBLE_EQ(pager.ShardImbalance(), static_cast<double>(peak) / mean);
}

// Twice as many readers as the four cores the suite is sized for: a
// reader preempted between reading the page table and pinning is what
// leaves it holding a frame that was evicted and reused meanwhile. With
// four readers a build that skips the post-pin page check still passed
// most runs; with eight it failed every run.
TEST(PagerConcurrencyTest, HitsRaceEvictionAndFrameReuse) {
  constexpr size_t kReaders = 8;
  constexpr size_t kSteps = 10000;
  auto pager = MakePager(/*cache_frames=*/8);
  std::vector<PageId> ids = StampPages(pager.get(), 40);
  const std::vector<PageId> hot(ids.begin(), ids.begin() + 6);
  const std::vector<PageId> cold(ids.begin() + 6, ids.end());

  const IoStats before = pager->stats();
  ASSERT_TRUE(pager->BeginConcurrentReads().ok());
  std::vector<ReaderTally> tallies(kReaders);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(SplitSeed(34, t));
      size_t cursor = t * 9;
      HotColdSession(pager.get(), hot, cold, &rng, &cursor, kSteps,
                     &tallies[t]);
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_TRUE(pager->EndConcurrentReads().ok());

  ExpectShardTalliesMatch(*pager, tallies);
  IoStats sum;
  for (const ReaderTally& t : tallies) sum.Merge(t.stats);
  EXPECT_EQ(sum.page_fetches, kReaders * kSteps * 3);
  EXPECT_EQ(pager->stats().page_fetches - before.page_fetches,
            sum.page_fetches);
  EXPECT_EQ(pager->stats().buffer_hits - before.buffer_hits,
            sum.buffer_hits);
  EXPECT_GT(sum.buffer_hits, 0u);
  EXPECT_GT(sum.buffer_evictions, 0u);
  EXPECT_EQ(pager->pinned_frame_count(), 0u);
  EXPECT_LE(pager->resident_frame_count(), 8 + kReadShards);

  // Back in exclusive mode the pool is whole: every page reads back.
  for (PageId id : ids) {
    Result<PageRef> ref = pager->Fetch(id);
    ASSERT_TRUE(ref.ok());
    EXPECT_TRUE(PageMatchesStamp(*pager, id, ref.value().data()));
  }
}

TEST(PagerConcurrencyTest, HitsRacePublishesUnderSingleWriter) {
  constexpr size_t kReaders = 4;
  constexpr size_t kPublishes = 24;
  auto pager = MakePager(/*cache_frames=*/8);
  std::vector<PageId> ids = StampPages(pager.get(), 24);
  const std::vector<PageId> hot(ids.begin(), ids.begin() + 6);

  ASSERT_TRUE(pager->BeginConcurrentReads(/*single_writer=*/true).ok());
  // Pages the writer adds, visible to readers once `published` counts them.
  std::vector<PageId> added(kPublishes);
  std::atomic<size_t> published{0};
  std::atomic<bool> stop{false};
  std::vector<ReaderTally> tallies(kReaders);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(SplitSeed(3434, t));
      size_t cursor = t * 5;
      while (!stop.load(std::memory_order_acquire)) {
        // The cold scan covers every published page, old and added.
        std::vector<PageId> cold(ids.begin() + 6, ids.end());
        const size_t n = published.load(std::memory_order_acquire);
        cold.insert(cold.end(), added.begin(), added.begin() + n);
        // Short sessions, so each publish drains quickly.
        HotColdSession(pager.get(), hot, cold, &rng, &cursor, 16,
                       &tallies[t]);
      }
    });
  }
  for (size_t k = 0; k < kPublishes; ++k) {
    Result<PageId> id = pager->Allocate();
    ASSERT_TRUE(id.ok());
    {
      Result<PageRef> ref = pager->Fetch(id.value());
      ASSERT_TRUE(ref.ok());
      for (size_t i = 0; i < pager->page_size(); ++i) {
        ref.value().data()[i] = StampByte(id.value(), i);
      }
      ref.value().MarkDirty();
    }
    added[k] = id.value();
    ASSERT_TRUE(pager->Flush().ok());
    published.store(k + 1, std::memory_order_release);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();
  ASSERT_TRUE(pager->EndConcurrentReads().ok());

  ExpectShardTalliesMatch(*pager, tallies);
  EXPECT_EQ(pager->pinned_frame_count(), 0u);
  EXPECT_EQ(pager->stats().page_fetches,
            pager->stats().buffer_hits + pager->stats().page_reads);
  EXPECT_EQ(pager->concurrency_stats().publish_epochs, kPublishes);
}

}  // namespace
}  // namespace cdb
