// Pager: fixed-size page allocation over a BlockFile, with an integrated
// LRU buffer pool, page-access accounting, and (since ISSUE 2) crash-safe
// durability: checksummed pages plus an atomic commit journal.
//
// The paper fixes the page size to 1024 bytes and reports query cost in page
// accesses; every Fetch() here increments IoStats::page_fetches whether or
// not the page was resident, so benchmarks can reproduce that metric with a
// warm or cold cache.
//
// Buffer pool (DESIGN.md §2c): one pool, sharded by page id into
// kReadShards shards, holds every resident page in every mode. Each shard
// keeps its frames in one recency list ordered by tick (newest first).
//   - Single-threaded (the default, and the only state in which any thread
//     may mutate): no lock is taken, pins change by plain load and store,
//     and eviction follows one global LRU order (the oldest unpinned frame
//     across the shards), as the paper's accounting requires.
//   - Concurrent reads (BeginConcurrentReads()): Fetch() is safe from any
//     thread holding a PagerReadSession, which collects that thread's
//     IoStats delta and merges it into stats() when it closes. A hit takes
//     no lock: it reads the page table, pins its frame by CAS and marks it
//     referenced; an unpin is one atomic decrement. A miss locks one shard
//     and evicts there, giving referenced frames a second chance
//     (DESIGN.md decisions 24-26). Mutations (Allocate, Free, Flush,
//     DropCache, MarkDirty) are rejected until EndConcurrentReads().
//   - Single writer (BeginConcurrentReads(true)): the calling thread keeps
//     the full API, working in a private overlay (see there).
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

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
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

/// Shards of the buffer pool (a power of two, so a page's shard is
/// `id & (kReadShards - 1)`). Single-threaded eviction still follows one
/// global LRU order, so the paper's accounting does not depend on it.
inline constexpr size_t kReadShards = 8;

class Pager;
class PagerReadSession;

/// One frame of the buffer pool or of the single writer's overlay; the
/// pager's own. A pool frame keeps its address while concurrent reads
/// last (a reader-evicted frame waits in its shard's spare list), so a
/// stale page-table pointer never dangles: it fails the pin or the `page`
/// check.
struct BufferFrame {
  std::vector<char> data;  // Full block; the payload follows the header.
  PageId page = kInvalidPageId;
  bool dirty = false;
  /// Live PageRefs; -1 marks a frame a concurrent reader evicted. Readers
  /// pin by CAS and unpin by fetch_sub; single-threaded, the count changes
  /// by relaxed load and store.
  std::atomic<int> pins{0};
  /// Set by a concurrent hit; reader eviction clears it and gives the
  /// frame a second chance.
  std::atomic<bool> referenced{false};
  /// Recency stamp; its shard's list is ordered by it. Pool frames only,
  /// like the links; guarded by the shard lock while reads are concurrent.
  uint64_t tick = 0;
  BufferFrame* newer = nullptr;
  BufferFrame* older = nullptr;
};

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
  PageId id() const {
    return frame_ != nullptr ? frame_->page : kInvalidPageId;
  }
  char* data() { return data_; }
  const char* data() const { return data_; }

  /// Flags the page for write-back on eviction or Flush().
  void MarkDirty();

  /// Unpins early (also done by the destructor).
  void Release();

 private:
  friend class Pager;
  PageRef(Pager* pager, BufferFrame* frame, char* data)
      : pager_(pager), frame_(frame), data_(data) {}

  Pager* pager_ = nullptr;
  BufferFrame* frame_ = nullptr;
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
  /// Clock behind every pager timer: fsyncs, journal fsyncs, publish
  /// drains and shard-lock waits (null = DefaultClock()). Tests pass a
  /// ManualClock so the timers read exactly what the test advanced.
  /// Shared with reader threads, so it must be thread-safe (every
  /// cdb::Clock is). Not owned.
  Clock* clock = nullptr;
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

  /// Frames currently held: the pool's, plus the single writer's overlay.
  size_t resident_frame_count() const {
    return pool_frames_.load(std::memory_order_relaxed) +
           overlay_frames_.load(std::memory_order_relaxed);
  }

  /// Frames with at least one live PageRef, counted over the frames the
  /// page table names (free pages cannot be pinned) plus, outside reader
  /// threads, the writer's overlay. Zero between operations — a non-zero
  /// value after a query returns means a leaked pin (checked by the
  /// fault-injection tests). A publish replaces the table, so under
  /// single-writer mode only the writer and threads holding a read session
  /// may call it. Buffer-pool state is published to a MetricsRegistry by
  /// obs::ExportPagerMetrics (obs/metrics.h).
  size_t pinned_frame_count() const;

  /// Drops every unpinned frame (writing dirty ones back) so subsequent
  /// fetches hit the file. Benchmarks use it to take cold-cache readings.
  Status DropCache();

  /// Enters concurrent-read mode: flushes so every frame is clean and
  /// snapshots the allocation state readers validate against; no frame
  /// moves. Requires zero live pins. After this, Fetch() is thread-safe
  /// for any thread holding a PagerReadSession, and every mutating entry
  /// point returns Status::InvalidArgument until EndConcurrentReads().
  ///
  /// With `single_writer` the mode becomes single-writer/multi-reader
  /// (DESIGN.md §2d): the *calling* thread keeps the full exclusive-mode
  /// API — Allocate/Free/Fetch/MarkDirty work in a private frame overlay
  /// (never evicted, so in-flight changes stay invisible) — while every
  /// other thread reads the last *committed* state through sessions as
  /// before. The writer publishes by calling Flush(), which drains open
  /// read sessions (sessions, not the mode, are the commit-epoch boundary:
  /// a session opened after the publish sees the new state), writes the
  /// transaction back through the journal, hands the committed frames to
  /// the pool (replacing superseded copies) and re-opens the gate.
  /// Reader-side id validation runs against the published allocation
  /// snapshot, so readers can neither see a half-built page nor lose one
  /// the writer freed but has not committed.
  Status BeginConcurrentReads(bool single_writer = false);

  /// Leaves concurrent-read mode (publishing first under single-writer
  /// mode). Requires that all PageRefs and all PagerReadSessions are
  /// closed.
  Status EndConcurrentReads();

  bool concurrent_reads_active() const { return shared_mode_; }

  /// True when the calling thread is a *reader* under single-writer mode:
  /// concurrent reads are active with a writer, and this is not the writer
  /// thread. Index structures use this to descend from their committed
  /// meta instead of in-memory state the writer is mutating.
  bool InSwmrReadContext() const {
    return swmr_ && std::this_thread::get_id() != writer_thread_;
  }

  /// The calling thread's view of the I/O counters: in concurrent-read mode
  /// with an open PagerReadSession this is the session's local delta (so a
  /// Tracer on a worker thread sees only its own queries); otherwise it is
  /// the pager-wide accumulator, i.e. exactly stats().
  const IoStats& ThreadStats() const;

  /// Snapshot of the contention/publish/fsync counters (see
  /// PagerConcurrencyStats). Safe to call from any thread at any time.
  PagerConcurrencyStats concurrency_stats() const;

  /// Shard-load imbalance of reader fetches since the last
  /// BeginConcurrentReads(): max(per-shard fetches) / mean(per-shard
  /// fetches), 1.0 = perfectly even, 0 when no reader fetched. The value
  /// outlives EndConcurrentReads(), so it can be exported after a batch;
  /// single-threaded and writer fetches are not counted.
  double ShardImbalance() const;

 private:
  using FrameMap = std::unordered_map<PageId, BufferFrame>;

  /// One shard of the pool: pages with ShardOf(id) == index. While reads
  /// are concurrent every field but `fetches` is guarded by `mu` (a hit
  /// touches only its frame); single-threaded, no lock is taken.
  struct alignas(64) Shard {
    std::mutex mu;
    FrameMap frames;
    // Every frame in `frames`, newest tick first.
    BufferFrame* newest = nullptr;
    BufferFrame* oldest = nullptr;
    // Frames readers evicted this epoch, out of `frames` but alive so a
    // stale page-table pointer stays valid; a miss here reuses one. Freed
    // when readers are drained.
    std::vector<FrameMap::node_type> spare;
    // Reader fetches routed here since the last BeginConcurrentReads(),
    // merged from sessions as they close; feeds ShardImbalance().
    std::atomic<uint64_t> fetches{0};
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
  void Unpin(BufferFrame* frame);
  void MarkDirty(BufferFrame* frame);
  // Fetch() on a reader thread: the lock-free hit, else ReaderMiss().
  Result<PageRef> ReaderFetch(PageId id, PagerReadSession* session);
  Result<PageRef> ReaderMiss(PageId id, IoStats& sink);
  PageRef MakeRef(BufferFrame* frame) {
    return PageRef(this, frame, frame->data.data() + payload_offset_);
  }

  static size_t ShardOf(PageId id) { return id & (kReadShards - 1); }
  // This thread's open session on this pager, or null.
  PagerReadSession* FindSession() const;
  void MergeSession(const PagerReadSession& session);
  // Adds `delta` (mod 2^64) to a frame counter other threads may read;
  // an atomic read-modify-write only while reads are concurrent.
  void Count(std::atomic<size_t>& counter, size_t delta);
  // Recency-list surgery on a pool frame of `shard`.
  static void LinkNewest(Shard& shard, BufferFrame* frame, uint64_t tick);
  static void Unlink(Shard& shard, BufferFrame* frame);
  // Grows the page table to cover ids below `n` (new entries null).
  // Single-threaded, or readers drained.
  void ReserveTable(size_t n);
  void SetTableEntry(PageId id, BufferFrame* frame) {
    table_[id].store(frame, std::memory_order_relaxed);
  }
  // Frees the frames readers evicted. Readers must be drained.
  void ReleaseSpares();
  // Acquires shard.mu; on contention (try_lock failure) charges the wait to
  // cc_.shard_lock_waits / shard_lock_wait_ns. Uncontended path is just the
  // try_lock — no clock read.
  std::unique_lock<std::mutex> LockShard(Shard& shard);
  // Timed wrappers around file_->Sync() / journal_->Sync(); the only Sync
  // call sites, so cc_ sees every fsync.
  Status SyncDataFile();
  Status SyncJournalFile();

  // Single-writer machinery.
  bool IsSwmrWriterThread() const {
    return swmr_ && std::this_thread::get_id() == writer_thread_;
  }
  // True on a thread that may only read: concurrent reads are active and
  // it is not the single writer.
  bool IsReader() const { return shared_mode_ && !IsSwmrWriterThread(); }
  // The accumulator mutations charge: the pager-wide stats_ in exclusive
  // mode, the writer's private delta under single-writer mode (merged into
  // stats_ at each publish; readers merge via sessions concurrently).
  IoStats& MutStats() { return shared_mode_ ? writer_stats_ : stats_; }
  // Flush()'s writer-thread form: drain read sessions, commit the
  // transaction, hand the overlay to the pool, advance the published
  // allocation snapshot, re-open the gate.
  Status PublishWriter();
  // Moves the committed overlay frames into the pool (pinned ones stay in
  // the overlay and leave a copy). Readers must be drained.
  void AdoptOverlay();

  Status LoadMeta();
  Status StoreMeta();
  Status WalkFreeList();
  // Flush's transaction body (journal pre-images, write-backs, meta,
  // commit). Shared between exclusive Flush() and PublishWriter().
  Status FlushBody();
  // Evicts unpinned pool frames, charging `sink`, until the pool fits
  // cache_frames_; each victim is the pool's least recently used unpinned
  // frame. Single-threaded (or readers drained).
  Status EvictIfNeeded(IoStats& sink);
  // A reader's eviction, holding `home`'s lock: walks that shard from its
  // oldest frame, second-chancing referenced frames, skipping pinned ones
  // and taking the rest by CAS 0 -> -1, until the pool fits.
  void ReaderEvict(Shard& home, IoStats& sink);
  Status WriteBack(PageId id, BufferFrame* frame);
  // `sink` receives checksum_failures (the caller's IoStats: the pager-wide
  // accumulator in exclusive mode, the session's in concurrent-read mode).
  Status VerifyPageBlock(PageId id, const char* block, IoStats* sink);
  // The one physical-read path behind Fetch() cache misses: charges one
  // page_reads, then one ReadBlock and one checksum verify (a block past
  // EOF is left zero). A transient read failure surfaces as kUnavailable
  // and a mismatch as Corruption; nothing is retried. Thread-safe.
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

  PageId next_page_id_ = 1;  // Block 0 is the meta page.
  PageId free_head_ = kInvalidPageId;
  uint64_t live_pages_ = 0;
  uint64_t commit_seq_ = 0;

  std::unordered_set<PageId> free_set_;

  // Transaction state: pages whose pre-images are in the journal, how many
  // records were appended, and whether they are durable yet.
  std::unordered_set<PageId> journaled_;
  uint32_t journal_records_ = 0;
  bool journal_header_written_ = false;
  bool journal_synced_ = true;
  bool txn_active_ = false;  // Any mutation since the last commit?
  uint64_t txn_base_blocks_ = 0;  // BlockCount() at the last commit.

  // The buffer pool. `tick_` is the recency clock behind BufferFrame::tick;
  // concurrent readers stamp it without advancing it (DESIGN.md §2c).
  std::array<Shard, kReadShards> shards_;
  uint64_t tick_ = 0;
  std::atomic<size_t> pool_frames_{0};     // Frames across all shards.
  std::atomic<size_t> overlay_frames_{0};  // overlay_.size().
  // The page table: entry i names page i's pool frame, or is null when the
  // page is not resident or is free in the state readers see (the
  // published one under single-writer mode). Kept current wherever a pool
  // frame comes or goes or a page's free state changes: single-threaded
  // by plain stores, by readers under the page's shard lock, by a publish
  // while readers are drained. It covers every id below next_page_id_
  // (published_next_page_id_ while a writer runs); it grows only when
  // no reader runs.
  std::unique_ptr<std::atomic<BufferFrame*>[]> table_;
  size_t table_capacity_ = 0;

  std::vector<char> block_scratch_;    // One data block (pre-image reads).
  std::vector<char> journal_scratch_;  // One journal block.

  IoStats stats_;

  // Concurrent-read mode state. `shared_mode_` is flipped only while no
  // other thread touches the pager (the executor's dispatch handshake
  // provides the happens-before edge), so it needs no atomicity itself.
  bool shared_mode_ = false;
  std::mutex stats_mu_;  // Guards stats_ during session merges.
  ConcurrencyCounters cc_;  // See concurrency_stats().

  // Single-writer/multi-reader state (meaningful only while shared_mode_
  // with swmr_; the flags themselves flip only during the Begin/End
  // handshake, like shared_mode_). Readers validate page ids against the
  // *published* allocation snapshot — the live next_page_id_/free_set_
  // belong to the writer's uncommitted transaction.
  bool swmr_ = false;
  std::thread::id writer_thread_{};
  // The writer's private frames: every page its transaction touched since
  // the last publish, never evicted.
  FrameMap overlay_;
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
  std::array<uint64_t, kReadShards> shard_fetches_{};  // Per-shard fetches.
  PagerReadSession* prev_;  // Next-older session on this thread's stack.
  // True when this session registered with the single-writer publish gate
  // (and so must deregister + wake a waiting publish on close).
  bool counted_ = false;
};

}  // namespace cdb

#endif  // CDB_STORAGE_PAGER_H_
