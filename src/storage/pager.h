// Pager: fixed-size page allocation over a BlockFile, with an integrated
// LRU buffer pool, page-access accounting, and (since ISSUE 2) crash-safe
// durability: checksummed pages plus an atomic commit journal.
//
// The paper fixes the page size to 1024 bytes and reports query cost in page
// accesses; every Fetch() here increments IoStats::page_fetches whether or
// not the page was resident, so benchmarks can reproduce that metric with a
// warm or cold cache.
//
// Threading: the pager has two modes (DESIGN.md §2c).
//   - Exclusive mode (the default, and the only mode with mutations): the
//     pager is single-threaded, exactly as the paper's structures are
//     evaluated; no latching, byte-identical behavior to previous versions.
//   - Concurrent-read mode, entered with BeginConcurrentReads(): the buffer
//     pool is sharded by page id (per-shard mutex + LRU, atomic pin counts)
//     and Fetch() becomes safe from many threads at once — provided each
//     thread holds a PagerReadSession, which collects that thread's IoStats
//     delta and merges it into stats() when it closes. All mutating entry
//     points (Allocate, Free, Flush, DropCache, MarkDirty) are rejected
//     until EndConcurrentReads() restores exclusive mode.
//
// On-disk layout (format v2):
//   block 0           meta page: magic, page size, next id, free-list head,
//                     live-page count, commit sequence, CRC32C
//   block i (i >= 1)  page with id i. With checksums enabled (the default)
//                     each block is [16-byte PageHeader | payload]; the
//                     header carries a magic/version word, the page id and
//                     a CRC32C over (page id, payload), verified on every
//                     physical read — torn writes, misdirected writes and
//                     bit rot all surface as Status::Corruption instead of
//                     wrong query results. page_size() returns the payload
//                     size clients may use.
// Freed pages form an intrusive singly-linked free list threaded through
// their first 4 payload bytes; the full list is walked and validated at
// Open so double frees are detected exactly.
//
// Atomic commit (optional, enabled by passing a journal file to Open):
// Flush() is then a transaction boundary. Before any in-place overwrite the
// pager appends the page's last-committed image to a rollback journal and
// syncs it; the commit point is the journal invalidation after the data
// file is synced. Open() replays a surviving journal, rolling the file back
// to its last committed state, so a crash or torn write at any point leaves
// every Flush() atomically applied or atomically absent (crash_recovery
// tests sweep every write index). Without a journal the pager behaves as
// before: checksums still detect corruption but Flush() is not atomic.

#ifndef CDB_STORAGE_PAGER_H_
#define CDB_STORAGE_PAGER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/clock.h"
#include "common/io_stats.h"
#include "common/result.h"
#include "common/status.h"
#include "storage/file.h"

namespace cdb {

using PageId = uint32_t;
inline constexpr PageId kInvalidPageId = 0;

/// Default page size, matching the paper's experimental setup.
inline constexpr size_t kDefaultPageSize = 1024;

/// Bytes of each block reserved for the page header when checksums are
/// enabled (page_size() shrinks by this much).
inline constexpr size_t kPageHeaderSize = 16;

/// Per-record framing overhead in the journal file (see JournalBlockSize).
inline constexpr size_t kJournalBlockOverhead = 16;

/// Buffer-pool shards used while in concurrent-read mode (a power of two,
/// so a page's shard is `id & (kReadShards - 1)`). Exclusive mode has one
/// LRU, which stays byte-identical to the paper's accounting.
inline constexpr size_t kReadShards = 8;

class Pager;

/// Pinned view of a page's bytes. The frame stays resident while any
/// PageRef to it is alive. Call MarkDirty() after mutating data().
class PageRef {
 public:
  PageRef() = default;
  PageRef(PageRef&& other) noexcept { *this = std::move(other); }
  PageRef& operator=(PageRef&& other) noexcept;
  PageRef(const PageRef&) = delete;
  PageRef& operator=(const PageRef&) = delete;
  ~PageRef();

  bool valid() const { return pager_ != nullptr; }
  PageId id() const { return id_; }
  char* data() { return data_; }
  const char* data() const { return data_; }

  /// Flags the page for write-back on eviction or Flush().
  void MarkDirty();

  /// Unpins early (also done by the destructor).
  void Release();

 private:
  friend class Pager;
  PageRef(Pager* pager, PageId id, char* data)
      : pager_(pager), id_(id), data_(data) {}

  Pager* pager_ = nullptr;
  PageId id_ = kInvalidPageId;
  char* data_ = nullptr;
};

/// Options controlling a Pager instance.
struct PagerOptions {
  /// On-disk block size. With checksums the usable payload (page_size())
  /// is kPageHeaderSize smaller.
  size_t page_size = kDefaultPageSize;
  /// Buffer-pool capacity in frames. The paper's figures are shaped by page
  /// accesses, which are counted independently of residency.
  size_t cache_frames = 64;
  /// Verify a CRC32C page checksum on every physical read and stamp it on
  /// every write. The mode is recorded in the meta page; a file must be
  /// reopened with the mode it was created with.
  bool checksums = true;

  /// Transient-read retry policy (ISSUE 7; DESIGN.md §2g). Applies only to
  /// the physical page reads behind Fetch() cache misses — open/recovery
  /// reads are not retried (a flaky open should surface, not loop). With
  /// the defaults every knob is off and the pager behaves exactly as
  /// before; IoStats::page_reads stays "one per cache miss" either way
  /// (retry attempts are tallied in PagerRetryStats instead), so paper
  /// artifacts are unaffected.

  /// Total read attempts per miss for errors with Status::IsTransient()
  /// (kUnavailable). 1 = no retry. Non-transient errors never retry.
  int max_read_attempts = 1;
  /// Capped exponential backoff between attempts: wait
  /// min(backoff_base_ns << attempt, backoff_cap_ns) nanoseconds. Base 0 =
  /// no waiting (retry immediately).
  uint64_t retry_backoff_base_ns = 0;
  uint64_t retry_backoff_cap_ns = 0;
  /// Clock behind every pager timer — fsyncs, journal fsyncs, publish
  /// drains, shard-lock waits — and the retry backoff, which sleeps on it
  /// (null = DefaultClock(), a real sleep). Tests pass a ManualClock:
  /// backoff then advances it instead of sleeping, and the timers read
  /// exactly what the test advanced. Shared with reader threads, so it
  /// must be thread-safe (every cdb::Clock is). Not owned.
  Clock* clock = nullptr;
  /// Re-read a page once when its checksum fails before declaring
  /// Corruption, curing one-shot bus/DMA flukes while keeping persistent
  /// rot loud. Counted in PagerRetryStats::crc_rereads.
  bool reread_on_checksum_mismatch = false;
};

/// Concurrency/pipeline instrumentation snapshot (ISSUE 5). Counters
/// accumulate from Open() onward; all are zero until the corresponding
/// machinery runs (shard counters need concurrent-read mode, publish
/// counters need a single-writer publish, fsync counters need real Sync
/// calls). Durations are nanoseconds on PagerOptions::clock.
struct PagerConcurrencyStats {
  /// Shard-mutex acquisitions that found the lock held (try_lock failed)
  /// and the total nanoseconds those acquisitions then waited. Uncontended
  /// acquisitions never read the clock, so the hot path stays cheap.
  uint64_t shard_lock_waits = 0;
  uint64_t shard_lock_wait_ns = 0;
  /// Single-writer publishes: how many, total nanoseconds spent waiting
  /// for open read sessions to drain, sessions waited out, and dirty
  /// pages written back across all publishes.
  uint64_t publish_epochs = 0;
  uint64_t publish_drain_ns = 0;
  uint64_t publish_sessions_drained = 0;
  uint64_t publish_pages = 0;
  /// Physical Sync() calls (and their total duration) on the data file and
  /// the journal file.
  uint64_t data_fsyncs = 0;
  uint64_t data_fsync_ns = 0;
  uint64_t journal_fsyncs = 0;
  uint64_t journal_fsync_ns = 0;

  bool any() const {
    return shard_lock_waits != 0 || publish_epochs != 0 || data_fsyncs != 0 ||
           journal_fsyncs != 0;
  }
};

/// Transient-retry instrumentation snapshot (ISSUE 7). All counters are
/// zero unless PagerOptions enabled retries / CRC re-reads and a physical
/// read actually failed. Exported as `<prefix>.retry.*` gauges by
/// obs::ExportPagerMetrics.
struct PagerRetryStats {
  /// Retry attempts issued (excludes each miss's first attempt).
  uint64_t read_retries = 0;
  /// Misses that failed transiently at least once but ultimately succeeded.
  uint64_t read_recoveries = 0;
  /// Misses that exhausted max_read_attempts and surfaced kUnavailable.
  uint64_t read_exhausted = 0;
  /// Backoff waits taken and their total scheduled nanoseconds.
  uint64_t backoff_waits = 0;
  uint64_t backoff_wait_ns = 0;
  /// Checksum-mismatch re-reads, and how many of them verified clean.
  uint64_t crc_rereads = 0;
  uint64_t crc_reread_recoveries = 0;

  bool any() const {
    return read_retries != 0 || read_exhausted != 0 || crc_rereads != 0;
  }
};

/// See file comment.
class Pager {
 public:
  /// Creates a pager over `file`. If the file is empty a fresh meta page is
  /// written; otherwise the meta page is validated against the options and
  /// the free list is walked and verified.
  static Status Open(std::unique_ptr<BlockFile> file,
                     const PagerOptions& options, std::unique_ptr<Pager>* out);

  /// As above, with an atomic-commit journal. `journal` must have block
  /// size JournalBlockSize(options.page_size); if it holds a committed
  /// rollback journal from a crashed process, Open rolls `file` back to its
  /// last consistent state before reading the meta page.
  static Status Open(std::unique_ptr<BlockFile> file,
                     std::unique_ptr<BlockFile> journal,
                     const PagerOptions& options, std::unique_ptr<Pager>* out);

  /// Block size the journal file must be created with for a given data
  /// page size (one journal block frames one page image).
  static size_t JournalBlockSize(size_t page_size) {
    return page_size + kJournalBlockOverhead;
  }

  ~Pager();
  Pager(const Pager&) = delete;
  Pager& operator=(const Pager&) = delete;

  /// Allocates a zeroed page (recycling the free list first).
  Result<PageId> Allocate();

  /// Returns `id` to the free list. The page must be live and unpinned;
  /// freeing a page that is already free (or out of range) returns
  /// Status::Corruption without touching the list.
  Status Free(PageId id);

  /// Pins page `id` and returns a reference to its bytes. Physical reads
  /// verify the page checksum; a mismatch returns Status::Corruption.
  Result<PageRef> Fetch(PageId id);

  /// Writes back all dirty frames and the meta page. With a journal this
  /// is an atomic transaction boundary: after a crash anywhere inside (or
  /// after) Flush, reopening yields either the previous committed state or
  /// this one, never a mixture.
  Status Flush();

  /// Usable bytes per page (block size minus the checksum header).
  size_t page_size() const { return payload_size_; }

  /// Pages currently allocated (excludes meta page and free-listed pages).
  /// This is the "disk space" metric of Figure 10.
  uint64_t live_page_count() const { return live_pages_; }

  /// Total blocks in the backing file, including meta and free pages.
  uint64_t file_page_count() const { return next_page_id_; }

  /// Commits completed (persisted in the meta page; 0 for a fresh file).
  uint64_t commit_seq() const { return commit_seq_; }

  bool checksums_enabled() const { return checksums_; }
  bool journal_enabled() const { return journal_ != nullptr; }

  /// Ids currently on the free list (exact: rebuilt from disk at Open,
  /// maintained by Allocate/Free). Used by Free's double-free defense and
  /// the cdb_check integrity checker.
  const std::unordered_set<PageId>& free_pages() const { return free_set_; }

  /// Pager-wide accumulated counters. In concurrent-read mode this lags the
  /// truth by whatever open PagerReadSessions have not merged yet; after
  /// EndConcurrentReads it is exact again.
  const IoStats& stats() const { return stats_; }
  IoStats* mutable_stats() { return &stats_; }

  /// Frames currently held in the buffer pool (all shards in
  /// concurrent-read mode).
  size_t resident_frame_count() const {
    return shared_mode_ ? shared_frames_.load(std::memory_order_relaxed)
                        : frames_.size();
  }

  /// Frames with at least one live PageRef. Zero between operations — a
  /// non-zero value after a query returns means a leaked pin (checked by
  /// the fault-injection tests). Buffer-pool state is published to a
  /// MetricsRegistry by obs::ExportPagerMetrics (obs/metrics.h).
  size_t pinned_frame_count() const {
    return shared_mode_ ? shared_pinned_.load(std::memory_order_relaxed)
                        : pinned_frames_;
  }

  /// Drops every unpinned frame (writing dirty ones back) so subsequent
  /// fetches hit the file. Benchmarks use it to take cold-cache readings.
  Status DropCache();

  /// Switches the buffer pool into concurrent-read mode: flushes so every
  /// frame is clean, then distributes the resident frames across the shard
  /// pools (preserving recency, so a warm cache stays warm). Requires zero
  /// live pins. After this, Fetch() is thread-safe for any thread holding a
  /// PagerReadSession, and every mutating entry point returns
  /// Status::InvalidArgument until EndConcurrentReads().
  ///
  /// With `single_writer` the mode becomes single-writer/multi-reader
  /// (DESIGN.md §2d): the *calling* thread keeps the full exclusive-mode
  /// API — Allocate/Free/Fetch/MarkDirty mutate a private frame overlay
  /// (never evicted, so in-flight changes stay invisible) — while every
  /// other thread reads the last *committed* state through sessions as
  /// before. The writer publishes by calling Flush(), which drains open
  /// read sessions (sessions, not the mode, are the commit-epoch boundary:
  /// a session opened after the publish sees the new state), write-backs
  /// the transaction through the journal, purges superseded frames from
  /// the shard pools and re-opens the gate. Reader-side id validation runs
  /// against the published allocation snapshot, so readers can neither see
  /// a half-built page nor lose one the writer freed but has not
  /// committed.
  Status BeginConcurrentReads(bool single_writer = false);

  /// Leaves concurrent-read mode, folding the shard pools back into the
  /// exclusive-mode LRU (shard-local recency is preserved; cross-shard
  /// ordering is approximate). Requires that all PageRefs and all
  /// PagerReadSessions are closed.
  Status EndConcurrentReads();

  bool concurrent_reads_active() const { return shared_mode_; }

  /// True when the calling thread is a *reader* under single-writer mode:
  /// concurrent reads are active with a writer, and this is not the writer
  /// thread. Index structures use this to descend from their committed
  /// meta instead of in-memory state the writer is mutating.
  bool InSwmrReadContext() const {
    return shared_mode_ && swmr_ &&
           std::this_thread::get_id() != writer_thread_;
  }

  /// The calling thread's view of the I/O counters: in concurrent-read mode
  /// with an open PagerReadSession this is the session's local delta (so a
  /// Tracer on a worker thread sees only its own queries); otherwise it is
  /// the pager-wide accumulator, i.e. exactly stats().
  const IoStats& ThreadStats() const;

  /// Snapshot of the contention/publish/fsync counters (see
  /// PagerConcurrencyStats). Safe to call from any thread at any time.
  PagerConcurrencyStats concurrency_stats() const;

  /// Snapshot of the transient-retry counters (see PagerRetryStats). Safe
  /// to call from any thread at any time.
  PagerRetryStats retry_stats() const;

  /// Shard-load imbalance over the *current* concurrent-read epoch:
  /// max(per-shard fetches) / mean(per-shard fetches), 0 when no shard saw
  /// a fetch (or outside concurrent-read mode). 1.0 = perfectly even.
  /// Per-shard fetch counters reset at each BeginConcurrentReads().
  double ShardImbalance() const;

 private:
  struct Frame {
    std::vector<char> data;  // Full block; payload at payload_offset_.
    bool dirty = false;
    // Atomic so concurrent-read pin/unpin from different shard-lock holders
    // and the lock-free pinned_frame_count() probe are race-free. Exclusive
    // mode only ever touches it single-threaded.
    std::atomic<int> pins{0};
    std::list<PageId>::iterator lru_pos;  // Valid iff in_lru.
    bool in_lru = false;

    Frame() = default;
    Frame(Frame&& o) noexcept
        : data(std::move(o.data)),
          dirty(o.dirty),
          pins(o.pins.load(std::memory_order_relaxed)),
          lru_pos(o.lru_pos),
          in_lru(o.in_lru) {}
  };

  /// One concurrent-read shard: pages with ShardOf(id) == index live here
  /// while shared mode is active. All fields are guarded by `mu`.
  struct ReadShard {
    std::mutex mu;
    std::unordered_map<PageId, Frame> frames;
    std::list<PageId> lru;  // Front = most recently used, unpinned only.
    // Fetches routed to this shard in the current concurrent-read epoch
    // (reset by BeginConcurrentReads); feeds ShardImbalance().
    std::atomic<uint64_t> fetches{0};
  };

  /// Atomic accumulators behind retry_stats(); same torn-view caveat as
  /// ConcurrencyCounters below.
  struct RetryCounters {
    std::atomic<uint64_t> read_retries{0};
    std::atomic<uint64_t> read_recoveries{0};
    std::atomic<uint64_t> read_exhausted{0};
    std::atomic<uint64_t> backoff_waits{0};
    std::atomic<uint64_t> backoff_wait_ns{0};
    std::atomic<uint64_t> crc_rereads{0};
    std::atomic<uint64_t> crc_reread_recoveries{0};
  };

  /// Atomic accumulators behind concurrency_stats(); see that struct for
  /// the meaning of each field. All relaxed — these are statistics, and
  /// every reader tolerates a torn-across-fields view.
  struct ConcurrencyCounters {
    std::atomic<uint64_t> shard_lock_waits{0};
    std::atomic<uint64_t> shard_lock_wait_ns{0};
    std::atomic<uint64_t> publish_epochs{0};
    std::atomic<uint64_t> publish_drain_ns{0};
    std::atomic<uint64_t> publish_sessions_drained{0};
    std::atomic<uint64_t> publish_pages{0};
    std::atomic<uint64_t> data_fsyncs{0};
    std::atomic<uint64_t> data_fsync_ns{0};
    std::atomic<uint64_t> journal_fsyncs{0};
    std::atomic<uint64_t> journal_fsync_ns{0};
  };

  Pager(std::unique_ptr<BlockFile> file, std::unique_ptr<BlockFile> journal,
        const PagerOptions& options);

  friend class PageRef;
  friend class PagerReadSession;
  void Unpin(PageId id);
  void MarkDirty(PageId id);

  // Concurrent-read machinery (pager.cc; active only between
  // BeginConcurrentReads and EndConcurrentReads).
  static size_t ShardOf(PageId id) { return id & (kReadShards - 1); }
  Result<PageRef> SharedFetch(PageId id);
  void SharedUnpin(PageId id);
  void MergeSessionStats(const IoStats& delta);
  // Acquires shard.mu; on contention (try_lock failure) charges the wait to
  // cc_.shard_lock_waits / shard_lock_wait_ns. Uncontended path is just the
  // try_lock — no clock read.
  std::unique_lock<std::mutex> LockShard(ReadShard& shard);
  // Timed wrappers around file_->Sync() / journal_->Sync(); the only Sync
  // call sites, so cc_ sees every fsync.
  Status SyncDataFile();
  Status SyncJournalFile();

  // Single-writer machinery.
  bool IsSwmrWriterThread() const {
    return swmr_ && std::this_thread::get_id() == writer_thread_;
  }
  // The accumulator mutations charge: the pager-wide stats_ in exclusive
  // mode, the writer's private delta under single-writer mode (merged into
  // stats_ at each publish; readers merge via sessions concurrently).
  IoStats& MutStats() { return shared_mode_ ? writer_stats_ : stats_; }
  // Flush()'s writer-thread form: drain read sessions, commit the
  // transaction, purge superseded shard frames, advance the published
  // allocation snapshot, re-open the gate.
  Status PublishWriter();

  Status LoadMeta();
  Status StoreMeta();
  Status WalkFreeList();
  // Flush's transaction body (journal pre-images, write-backs, meta,
  // commit). Shared between exclusive Flush() and PublishWriter().
  Status FlushBody();
  Status EvictIfNeeded();
  Status WriteBack(PageId id, Frame* frame);
  // `sink` receives checksum_failures (the caller's IoStats: the pager-wide
  // accumulator in exclusive mode, the session's in concurrent-read mode).
  Status VerifyPageBlock(PageId id, const char* block, IoStats* sink);
  // The one physical-read path behind Fetch()/SharedFetch() cache misses:
  // ReadBlock + checksum verify, with the PagerOptions retry policy
  // (transient retries with capped exponential backoff, one optional CRC
  // re-read). Thread-safe; charges rc_, never `sink` beyond what a single
  // verified read would.
  Status ReadBlockVerified(PageId id, char* block, IoStats* sink);

  // Journal machinery (all no-ops when journal_ is null).
  uint64_t txn_seq() const { return commit_seq_ + 1; }
  Status EnsureJournaled(PageId id);
  Status SyncJournalForWrite();
  Status InvalidateJournal();
  Status RecoverFromJournal();

  std::unique_ptr<BlockFile> file_;
  std::unique_ptr<BlockFile> journal_;  // Null = no atomic commit.
  size_t block_size_;
  size_t payload_size_;
  size_t payload_offset_;  // kPageHeaderSize with checksums, else 0.
  bool checksums_;
  size_t cache_frames_;
  Clock* clock_;  // PagerOptions::clock, resolved; see there.
  // Retry policy, copied from PagerOptions at Open (see there).
  int max_read_attempts_;
  uint64_t retry_backoff_base_ns_;
  uint64_t retry_backoff_cap_ns_;
  bool reread_on_checksum_mismatch_;
  RetryCounters rc_;  // See retry_stats().

  PageId next_page_id_ = 1;  // Block 0 is the meta page.
  PageId free_head_ = kInvalidPageId;
  uint64_t live_pages_ = 0;
  uint64_t commit_seq_ = 0;
  size_t pinned_frames_ = 0;  // Frames with pins > 0.

  std::unordered_set<PageId> free_set_;

  // Transaction state: pages whose pre-images are in the journal, how many
  // records were appended, and whether they are durable yet.
  std::unordered_set<PageId> journaled_;
  uint32_t journal_records_ = 0;
  bool journal_header_written_ = false;
  bool journal_synced_ = true;
  bool txn_active_ = false;  // Any mutation since the last commit?
  uint64_t txn_base_blocks_ = 0;  // BlockCount() at the last commit.

  std::unordered_map<PageId, Frame> frames_;
  std::list<PageId> lru_;  // Front = most recently used, unpinned only.

  std::vector<char> block_scratch_;    // One data block (pre-image reads).
  std::vector<char> journal_scratch_;  // One journal block.

  IoStats stats_;

  // Concurrent-read mode state. `shared_mode_` is flipped only while no
  // other thread touches the pager (the executor's dispatch handshake
  // provides the happens-before edge), so it needs no atomicity itself.
  bool shared_mode_ = false;
  std::vector<std::unique_ptr<ReadShard>> shards_;
  std::atomic<size_t> shared_frames_{0};  // Frames across all shards.
  std::atomic<size_t> shared_pinned_{0};  // Pinned frames across all shards.
  std::mutex stats_mu_;  // Guards stats_ during session merges.
  ConcurrencyCounters cc_;  // See concurrency_stats().

  // Single-writer/multi-reader state (meaningful only while shared_mode_
  // with swmr_; the flags themselves flip only during the Begin/End
  // handshake, like shared_mode_). Readers validate page ids against the
  // *published* allocation snapshot — the live next_page_id_/free_set_
  // belong to the writer's uncommitted transaction.
  bool swmr_ = false;
  std::thread::id writer_thread_{};
  IoStats writer_stats_;
  PageId published_next_page_id_ = 1;
  std::unordered_set<PageId> published_free_;
  // Publish gate: session ctors wait while a publish drains and count
  // themselves in; PublishWriter closes the gate and waits for the count
  // to reach zero. All four fields are guarded by publish_mu_.
  std::mutex publish_mu_;
  std::condition_variable publish_cv_;
  bool gate_closed_ = false;
  size_t active_swmr_sessions_ = 0;
};

/// RAII handle making the current thread a reader of a pager that is in
/// concurrent-read mode. Fetch() on that pager from this thread charges the
/// session's private IoStats (read via Pager::ThreadStats() or stats());
/// the destructor folds the delta into the pager-wide Pager::stats(). A
/// thread may hold sessions on several pagers at once (the dual index reads
/// the index and relation pagers in one query); sessions on the same thread
/// must be destroyed in reverse order of construction, which scoped locals
/// give for free.
class PagerReadSession {
 public:
  explicit PagerReadSession(Pager* pager);
  ~PagerReadSession();
  PagerReadSession(const PagerReadSession&) = delete;
  PagerReadSession& operator=(const PagerReadSession&) = delete;

  /// This session's private counters (what this thread fetched so far).
  const IoStats& stats() const { return local_; }

 private:
  friend class Pager;
  Pager* pager_;
  IoStats local_;
  PagerReadSession* prev_;  // Next-older session on this thread's stack.
  // True when this session registered with the single-writer publish gate
  // (and so must deregister + wake a waiting publish on close).
  bool counted_ = false;
};

}  // namespace cdb

#endif  // CDB_STORAGE_PAGER_H_
