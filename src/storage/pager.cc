#include "storage/pager.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "common/crc32c.h"

namespace cdb {

namespace {

// Meta-page format v2 (v1 had no checksums; its magic ended ...DE99 and is
// rejected with a format message rather than a generic corruption error).
constexpr uint64_t kMetaMagicV1 = 0xCDB1DE99CDB1DE99ull;
constexpr uint64_t kMetaMagicV2 = 0xCDB1DE99CDB1DE02ull;
constexpr uint32_t kMetaFlagChecksums = 1u;

// Serialized meta layout (block 0):
//   u64 magic  u32 page_size(block)  u32 next_page_id  u32 free_head
//   u32 flags  u64 live_pages        u64 commit_seq    u32 crc
constexpr size_t kMetaSize = 44;
constexpr size_t kMetaCrcOffset = 40;

// Per-page header (first kPageHeaderSize bytes of every non-meta block
// when checksums are enabled):
//   u32 magic/version  u32 page_id  u32 crc  u32 reserved
// The crc is CRC32C over (page_id bytes || payload), so a page written to
// the wrong block fails verification even if its payload is intact.
constexpr uint32_t kPageMagicV1 = 0x43444231u;  // "CDB1".

// Journal block layout. Block 0 is the header:
//   u64 magic  u64 seq  u32 page_size(block)  u32 crc(over bytes [0,20))
// Blocks 1..n are records:
//   u32 page_id  u32 crc(over page_id || seq || image)  u64 seq
//   image[page_size]
// The header is written first and synced before any in-place data write;
// recovery scans records until the first crc/seq mismatch, so a torn
// journal tail only hides records whose pages were never overwritten.
constexpr uint64_t kJournalMagic = 0xCDB10C4A0CDB10C4ull;
constexpr size_t kJournalHeaderSize = 24;

uint32_t PageCrc(PageId id, uint64_t seq_or_zero, const char* data, size_t n) {
  uint32_t c = Crc32c(&id, sizeof(id));
  if (seq_or_zero != 0) c = Crc32cExtend(c, &seq_or_zero, sizeof(seq_or_zero));
  return Crc32cExtend(c, data, n);
}

template <typename T>
void Store(char* p, size_t off, T v) {
  std::memcpy(p + off, &v, sizeof(v));
}

template <typename T>
T Load(const char* p, size_t off) {
  T v;
  std::memcpy(&v, p + off, sizeof(v));
  return v;
}

// Per-thread stack of open read sessions (a worker typically holds one per
// pager it touches). Pager::FindSession walks it to route counters; a plain
// singly-linked list is enough because sessions are scoped locals and so
// strictly nested.
thread_local PagerReadSession* t_session_head = nullptr;

}  // namespace

PagerReadSession::PagerReadSession(Pager* pager)
    : pager_(pager), prev_(t_session_head) {
  t_session_head = this;
  // Under single-writer mode a session is the commit-epoch boundary: wait
  // out any in-flight publish, then register so the next publish waits for
  // us. (The writer thread never registers — it would deadlock its own
  // publish, and its Fetches bypass the shard pools anyway.)
  if (pager_->shared_mode_ && pager_->swmr_ && !pager_->IsSwmrWriterThread()) {
    std::unique_lock<std::mutex> lock(pager_->publish_mu_);
    pager_->publish_cv_.wait(lock, [&] { return !pager_->gate_closed_; });
    ++pager_->active_swmr_sessions_;
    counted_ = true;
  }
}

PagerReadSession::~PagerReadSession() {
  // Sessions are scoped locals, so this one is the head; tolerate mis-nested
  // destruction anyway by unlinking wherever we are.
  if (t_session_head == this) {
    t_session_head = prev_;
  } else {
    for (PagerReadSession* s = t_session_head; s != nullptr; s = s->prev_) {
      if (s->prev_ == this) {
        s->prev_ = prev_;
        break;
      }
    }
  }
  // Merge *before* deregistering from the publish gate, so a publish that
  // drains on this session observes its counters already folded in.
  pager_->MergeSessionStats(local_);
  if (counted_) {
    {
      std::lock_guard<std::mutex> lock(pager_->publish_mu_);
      --pager_->active_swmr_sessions_;
    }
    pager_->publish_cv_.notify_all();
  }
}

PageRef& PageRef::operator=(PageRef&& other) noexcept {
  if (this != &other) {
    Release();
    pager_ = other.pager_;
    id_ = other.id_;
    data_ = other.data_;
    other.pager_ = nullptr;
    other.data_ = nullptr;
    other.id_ = kInvalidPageId;
  }
  return *this;
}

PageRef::~PageRef() { Release(); }

void PageRef::MarkDirty() {
  if (pager_ != nullptr) pager_->MarkDirty(id_);
}

void PageRef::Release() {
  if (pager_ != nullptr) {
    pager_->Unpin(id_);
    pager_ = nullptr;
    data_ = nullptr;
    id_ = kInvalidPageId;
  }
}

Pager::Pager(std::unique_ptr<BlockFile> file,
             std::unique_ptr<BlockFile> journal, const PagerOptions& options)
    : file_(std::move(file)),
      journal_(std::move(journal)),
      block_size_(options.page_size),
      payload_size_(options.page_size -
                    (options.checksums ? kPageHeaderSize : 0)),
      payload_offset_(options.checksums ? kPageHeaderSize : 0),
      checksums_(options.checksums),
      cache_frames_(options.cache_frames),
      clock_(options.clock != nullptr ? options.clock : DefaultClock()),
      max_read_attempts_(options.max_read_attempts < 1
                             ? 1
                             : options.max_read_attempts),
      retry_backoff_base_ns_(options.retry_backoff_base_ns),
      retry_backoff_cap_ns_(options.retry_backoff_cap_ns),
      reread_on_checksum_mismatch_(options.reread_on_checksum_mismatch),
      block_scratch_(options.page_size),
      journal_scratch_(JournalBlockSize(options.page_size)) {
  // Round the shard count up to a power of two so ShardOf is a mask.
  size_t want = options.read_shards == 0 ? 1 : options.read_shards;
  size_t shards = 1;
  while (shards < want && shards < 1024) shards <<= 1;
  shard_mask_ = shards - 1;
}

Status Pager::Open(std::unique_ptr<BlockFile> file,
                   const PagerOptions& options, std::unique_ptr<Pager>* out) {
  return Open(std::move(file), nullptr, options, out);
}

Status Pager::Open(std::unique_ptr<BlockFile> file,
                   std::unique_ptr<BlockFile> journal,
                   const PagerOptions& options, std::unique_ptr<Pager>* out) {
  size_t min_block = 64 + (options.checksums ? kPageHeaderSize : 0);
  if (options.page_size < min_block || options.page_size < kMetaSize) {
    return Status::InvalidArgument("page size too small");
  }
  if (file->block_size() != options.page_size) {
    return Status::InvalidArgument("file block size != pager page size");
  }
  if (journal != nullptr &&
      journal->block_size() != JournalBlockSize(options.page_size)) {
    return Status::InvalidArgument(
        "journal block size != page size + kJournalBlockOverhead");
  }
  std::unique_ptr<Pager> pager(
      new Pager(std::move(file), std::move(journal), options));
  if (pager->journal_ != nullptr && pager->journal_->BlockCount() > 0) {
    CDB_RETURN_IF_ERROR(pager->RecoverFromJournal());
  }
  if (pager->file_->BlockCount() == 0) {
    CDB_RETURN_IF_ERROR(pager->StoreMeta());
    // Make the empty-but-valid state durable so a crash inside the first
    // transaction rolls back to a readable database, not a torn file.
    if (pager->journal_ != nullptr) {
      CDB_RETURN_IF_ERROR(pager->file_->Sync());
    }
  } else {
    CDB_RETURN_IF_ERROR(pager->LoadMeta());
    CDB_RETURN_IF_ERROR(pager->WalkFreeList());
  }
  pager->txn_base_blocks_ = pager->file_->BlockCount();
  *out = std::move(pager);
  return Status::OK();
}

Pager::~Pager() {
  // In concurrent-read mode every frame is clean by construction and there
  // is nothing to flush; destroying the pager mid-batch (only reachable via
  // test teardown) must not trip the shared-mode mutation guard.
  if (!shared_mode_) Flush().ok();
}

const IoStats& Pager::ThreadStats() const {
  if (shared_mode_) {
    // The single writer's view is its un-published delta (cleared into
    // stats() at each publish).
    if (IsSwmrWriterThread()) return writer_stats_;
    for (PagerReadSession* s = t_session_head; s != nullptr; s = s->prev_) {
      if (s->pager_ == this) return s->local_;
    }
  }
  return stats_;
}

void Pager::MergeSessionStats(const IoStats& delta) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.Merge(delta);
}

Status Pager::LoadMeta() {
  CDB_RETURN_IF_ERROR(file_->ReadBlock(0, block_scratch_.data()));
  const char* p = block_scratch_.data();
  uint64_t magic = Load<uint64_t>(p, 0);
  if (magic == kMetaMagicV1) {
    return Status::Corruption(
        "pre-durability (format v1) database; rebuild it with this version");
  }
  if (magic != kMetaMagicV2) return Status::Corruption("bad meta magic");
  uint32_t crc = Load<uint32_t>(p, kMetaCrcOffset);
  if (crc != Crc32c(p, kMetaCrcOffset)) {
    ++stats_.checksum_failures;
    return Status::Corruption("meta page checksum mismatch");
  }
  if (Load<uint32_t>(p, 8) != block_size_) {
    return Status::InvalidArgument("page size mismatch with stored file");
  }
  uint32_t flags = Load<uint32_t>(p, 20);
  if (((flags & kMetaFlagChecksums) != 0) != checksums_) {
    return Status::InvalidArgument("checksum mode mismatch with stored file");
  }
  next_page_id_ = Load<uint32_t>(p, 12);
  free_head_ = Load<uint32_t>(p, 16);
  live_pages_ = Load<uint64_t>(p, 24);
  commit_seq_ = Load<uint64_t>(p, 32);
  return Status::OK();
}

Status Pager::StoreMeta() {
  CDB_RETURN_IF_ERROR(EnsureJournaled(0));
  CDB_RETURN_IF_ERROR(SyncJournalForWrite());
  std::vector<char> buf(block_size_, 0);
  char* p = buf.data();
  Store<uint64_t>(p, 0, kMetaMagicV2);
  Store<uint32_t>(p, 8, static_cast<uint32_t>(block_size_));
  Store<uint32_t>(p, 12, next_page_id_);
  Store<uint32_t>(p, 16, free_head_);
  Store<uint32_t>(p, 20, checksums_ ? kMetaFlagChecksums : 0u);
  Store<uint64_t>(p, 24, live_pages_);
  Store<uint64_t>(p, 32, txn_seq());
  Store<uint32_t>(p, kMetaCrcOffset, Crc32c(p, kMetaCrcOffset));
  return file_->WriteBlock(0, p);
}

Status Pager::VerifyPageBlock(PageId id, const char* block, IoStats* sink) {
  if (!checksums_) return Status::OK();
  uint32_t magic = Load<uint32_t>(block, 0);
  uint32_t stored_id = Load<uint32_t>(block, 4);
  uint32_t crc = Load<uint32_t>(block, 8);
  uint32_t want = PageCrc(id, 0, block + payload_offset_, payload_size_);
  if (magic != kPageMagicV1 || stored_id != id || crc != want) {
    ++sink->checksum_failures;
    return Status::Corruption("page " + std::to_string(id) +
                              " failed checksum verification");
  }
  return Status::OK();
}

Status Pager::WalkFreeList() {
  free_set_.clear();
  PageId id = free_head_;
  uint64_t steps = 0;
  while (id != kInvalidPageId) {
    if (id >= next_page_id_) {
      return Status::Corruption("free list references page " +
                                std::to_string(id) + " outside the file");
    }
    if (++steps > next_page_id_ || free_set_.count(id) > 0) {
      return Status::Corruption("free list contains a cycle");
    }
    if (id >= file_->BlockCount()) {
      return Status::Corruption("free page " + std::to_string(id) +
                                " past end of file");
    }
    free_set_.insert(id);
    CDB_RETURN_IF_ERROR(file_->ReadBlock(id, block_scratch_.data()));
    CDB_RETURN_IF_ERROR(VerifyPageBlock(id, block_scratch_.data(), &stats_));
    id = Load<PageId>(block_scratch_.data(), payload_offset_);
  }
  if (live_pages_ + free_set_.size() + 1 != next_page_id_) {
    return Status::Corruption("live page count disagrees with free list");
  }
  return Status::OK();
}

Result<PageId> Pager::Allocate() {
  if (shared_mode_ && !IsSwmrWriterThread()) {
    return Status::InvalidArgument("Allocate during concurrent reads");
  }
  ++MutStats().pages_allocated;
  txn_active_ = true;
  PageId id;
  if (free_head_ != kInvalidPageId) {
    id = free_head_;
    free_set_.erase(id);
    // The next-free link lives in the page's first 4 payload bytes.
    Result<PageRef> ref = Fetch(id);
    if (!ref.ok()) return ref.status();
    std::memcpy(&free_head_, ref.value().data(), sizeof(free_head_));
    std::memset(ref.value().data(), 0, payload_size_);
    ref.value().MarkDirty();
  } else {
    id = next_page_id_++;
    Frame frame;
    frame.data.assign(block_size_, 0);
    frame.dirty = true;
    frame.pins = 0;
    auto [it, inserted] = frames_.emplace(id, std::move(frame));
    assert(inserted);
    lru_.push_front(id);
    it->second.lru_pos = lru_.begin();
    it->second.in_lru = true;
    Status st = EvictIfNeeded();
    if (!st.ok()) return st;
  }
  ++live_pages_;
  return id;
}

Status Pager::Free(PageId id) {
  if (shared_mode_ && !IsSwmrWriterThread()) {
    return Status::InvalidArgument("Free during concurrent reads");
  }
  if (id == kInvalidPageId || id >= next_page_id_) {
    return Status::Corruption("Free of out-of-range page id " +
                              std::to_string(id));
  }
  if (free_set_.count(id) > 0) {
    return Status::Corruption("double free of page " + std::to_string(id));
  }
  auto it = frames_.find(id);
  if (it != frames_.end() && it->second.pins > 0) {
    return Status::InvalidArgument("Free of pinned page " +
                                   std::to_string(id));
  }
  txn_active_ = true;
  Result<PageRef> ref = Fetch(id);
  if (!ref.ok()) return ref.status();
  std::memcpy(ref.value().data(), &free_head_, sizeof(free_head_));
  ref.value().MarkDirty();
  free_head_ = id;
  free_set_.insert(id);
  assert(live_pages_ > 0);
  --live_pages_;
  return Status::OK();
}

Result<PageRef> Pager::Fetch(PageId id) {
  // Readers validate against the published snapshot inside SharedFetch —
  // the live next_page_id_/free_set_ are the writer's under single-writer
  // mode (and identical to the snapshot in plain concurrent-read mode).
  if (shared_mode_ && !IsSwmrWriterThread()) return SharedFetch(id);
  if (id == kInvalidPageId || id >= next_page_id_) {
    return Status::InvalidArgument("Fetch of invalid page id " +
                                   std::to_string(id));
  }
  if (free_set_.count(id) > 0) {
    return Status::Corruption("Fetch of free page " + std::to_string(id));
  }
  IoStats& sink = MutStats();
  ++sink.page_fetches;
  auto it = frames_.find(id);
  if (it == frames_.end()) {
    ++sink.page_reads;
    Frame frame;
    frame.data.resize(block_size_);
    // Pages allocated but never flushed do not exist in the file yet; they
    // were evicted with write-back, so a resident miss means a real read
    // unless the block is past EOF (possible only for never-written pages,
    // which are zero by definition).
    if (id < file_->BlockCount()) {
      CDB_RETURN_IF_ERROR(ReadBlockVerified(id, frame.data.data(), &sink));
    } else {
      std::fill(frame.data.begin(), frame.data.end(), 0);
    }
    it = frames_.emplace(id, std::move(frame)).first;
  } else {
    ++sink.buffer_hits;
    if (it->second.in_lru) {
      lru_.erase(it->second.lru_pos);
      it->second.in_lru = false;
    }
  }
  Frame& frame = it->second;
  if (frame.pins == 0) ++pinned_frames_;
  ++frame.pins;
  Status st = EvictIfNeeded();
  if (!st.ok()) {
    // Roll back the pin so the pager stays consistent.
    --frame.pins;
    if (frame.pins == 0) --pinned_frames_;
    return st;
  }
  return PageRef(this, id, frame.data.data() + payload_offset_);
}

void Pager::Unpin(PageId id) {
  if (shared_mode_ && !IsSwmrWriterThread()) {
    SharedUnpin(id);
    return;
  }
  auto it = frames_.find(id);
  assert(it != frames_.end());
  Frame& frame = it->second;
  assert(frame.pins > 0);
  if (--frame.pins == 0) {
    --pinned_frames_;
    lru_.push_front(id);
    frame.lru_pos = lru_.begin();
    frame.in_lru = true;
  }
}

void Pager::MarkDirty(PageId id) {
  // Writes are a programming error in concurrent-read mode (except from
  // the single writer); there is no Status channel here, so fail loudly in
  // debug builds and ignore the mark otherwise (the frame would never be
  // written back anyway — write-back paths are all mode-guarded).
  assert(!shared_mode_ || IsSwmrWriterThread());
  if (shared_mode_ && !IsSwmrWriterThread()) return;
  auto it = frames_.find(id);
  assert(it != frames_.end());
  it->second.dirty = true;
  txn_active_ = true;
}

Status Pager::EnsureJournaled(PageId id) {
  if (journal_ == nullptr) return Status::OK();
  // Blocks at or past the last commit's end did not exist in the committed
  // state; rolling back the meta page makes them unreachable, so they need
  // no pre-image.
  if (id >= txn_base_blocks_) return Status::OK();
  if (journaled_.count(id) > 0) return Status::OK();
  char* rec = journal_scratch_.data();
  if (!journal_header_written_) {
    std::memset(rec, 0, journal_scratch_.size());
    Store<uint64_t>(rec, 0, kJournalMagic);
    Store<uint64_t>(rec, 8, txn_seq());
    Store<uint32_t>(rec, 16, static_cast<uint32_t>(block_size_));
    Store<uint32_t>(rec, 20, Crc32c(rec, 20));
    CDB_RETURN_IF_ERROR(journal_->WriteBlock(0, rec));
    journal_header_written_ = true;
    journal_records_ = 0;
    journal_synced_ = false;
  }
  // The pre-image is the block's content at the last commit: in-place
  // overwrites only happen after this function ran for the page, so the
  // file still holds the committed bytes.
  CDB_RETURN_IF_ERROR(file_->ReadBlock(id, block_scratch_.data()));
  Store<uint32_t>(rec, 0, id);
  Store<uint64_t>(rec, 8, txn_seq());
  std::memcpy(rec + kJournalBlockOverhead, block_scratch_.data(), block_size_);
  Store<uint32_t>(rec, 4,
                  PageCrc(id, txn_seq(), rec + kJournalBlockOverhead,
                          block_size_));
  CDB_RETURN_IF_ERROR(journal_->WriteBlock(1 + journal_records_, rec));
  ++journal_records_;
  ++MutStats().journal_records;
  journaled_.insert(id);
  journal_synced_ = false;
  return Status::OK();
}

Status Pager::SyncDataFile() {
  uint64_t t0 = clock_->NowNanos();
  Status st = file_->Sync();
  cc_.data_fsyncs.fetch_add(1, std::memory_order_relaxed);
  cc_.data_fsync_ns.fetch_add(clock_->NowNanos() - t0,
                              std::memory_order_relaxed);
  return st;
}

Status Pager::SyncJournalFile() {
  uint64_t t0 = clock_->NowNanos();
  Status st = journal_->Sync();
  cc_.journal_fsyncs.fetch_add(1, std::memory_order_relaxed);
  cc_.journal_fsync_ns.fetch_add(clock_->NowNanos() - t0,
                                 std::memory_order_relaxed);
  return st;
}

Status Pager::SyncJournalForWrite() {
  if (journal_ == nullptr || journal_synced_) return Status::OK();
  CDB_RETURN_IF_ERROR(SyncJournalFile());
  journal_synced_ = true;
  return Status::OK();
}

Status Pager::InvalidateJournal() {
  std::memset(journal_scratch_.data(), 0, journal_scratch_.size());
  CDB_RETURN_IF_ERROR(journal_->WriteBlock(0, journal_scratch_.data()));
  return SyncJournalFile();
}

Status Pager::RecoverFromJournal() {
  CDB_RETURN_IF_ERROR(journal_->ReadBlock(0, journal_scratch_.data()));
  const char* hdr = journal_scratch_.data();
  uint64_t magic = Load<uint64_t>(hdr, 0);
  uint32_t crc = Load<uint32_t>(hdr, 20);
  if (magic != kJournalMagic || crc != Crc32c(hdr, 20)) {
    // No transaction was in flight (or the header is torn, in which case
    // no data page was overwritten). Scrub it so stale bytes cannot be
    // misread later.
    return InvalidateJournal();
  }
  if (Load<uint32_t>(hdr, 16) != block_size_) {
    return Status::InvalidArgument("journal page size mismatch");
  }
  uint64_t seq = Load<uint64_t>(hdr, 8);
  uint64_t applied = 0;
  std::vector<char> rec(journal_scratch_.size());
  for (uint64_t b = 1; b < journal_->BlockCount(); ++b) {
    CDB_RETURN_IF_ERROR(journal_->ReadBlock(b, rec.data()));
    PageId id = Load<uint32_t>(rec.data(), 0);
    uint32_t rec_crc = Load<uint32_t>(rec.data(), 4);
    uint64_t rec_seq = Load<uint64_t>(rec.data(), 8);
    if (rec_seq != seq ||
        rec_crc != PageCrc(id, seq, rec.data() + kJournalBlockOverhead,
                           block_size_)) {
      break;  // Torn tail or a stale record from an earlier transaction.
    }
    if (id >= file_->BlockCount()) {
      return Status::Corruption("journal record references unknown block " +
                                std::to_string(id));
    }
    CDB_RETURN_IF_ERROR(
        file_->WriteBlock(id, rec.data() + kJournalBlockOverhead));
    ++applied;
  }
  if (applied > 0) CDB_RETURN_IF_ERROR(SyncDataFile());
  ++stats_.journal_replays;
  stats_.pages_rolled_back += applied;
  return InvalidateJournal();
}

Status Pager::WriteBack(PageId id, Frame* frame) {
  if (!frame->dirty) return Status::OK();
  CDB_RETURN_IF_ERROR(EnsureJournaled(id));
  CDB_RETURN_IF_ERROR(SyncJournalForWrite());
  ++MutStats().page_writes;
  if (checksums_) {
    char* p = frame->data.data();
    Store<uint32_t>(p, 0, kPageMagicV1);
    Store<uint32_t>(p, 4, id);
    Store<uint32_t>(p, 8, PageCrc(id, 0, p + payload_offset_, payload_size_));
    Store<uint32_t>(p, 12, 0);
  }
  CDB_RETURN_IF_ERROR(file_->WriteBlock(id, frame->data.data()));
  frame->dirty = false;
  return Status::OK();
}

Status Pager::EvictIfNeeded() {
  // The single-writer overlay is never evicted: a mid-transaction
  // write-back would make uncommitted bytes readable. The overlay is
  // bounded by the writer's batch size between publishes, not by
  // cache_frames_ (documented trade-off, DESIGN.md §2d).
  if (shared_mode_) return Status::OK();
  while (frames_.size() > cache_frames_ && !lru_.empty()) {
    PageId victim = lru_.back();
    auto it = frames_.find(victim);
    assert(it != frames_.end() && it->second.pins == 0);
    if (it->second.dirty) ++stats_.dirty_writebacks;
    CDB_RETURN_IF_ERROR(WriteBack(victim, &it->second));
    ++stats_.buffer_evictions;
    lru_.pop_back();
    frames_.erase(it);
  }
  return Status::OK();
}

Status Pager::Flush() {
  if (shared_mode_) {
    if (IsSwmrWriterThread()) return PublishWriter();
    return Status::InvalidArgument("Flush during concurrent reads");
  }
  return FlushBody();
}

Status Pager::FlushBody() {
  // An empty transaction has nothing to commit — in particular the
  // destructor's flush after a clean Flush() must not advance the
  // sequence or touch the file.
  if (!txn_active_ && !journal_header_written_) return Status::OK();
  // Journal every pre-image first so one journal sync covers the whole
  // batch of in-place writes below.
  if (journal_ != nullptr) {
    for (auto& [id, frame] : frames_) {
      if (frame.dirty) CDB_RETURN_IF_ERROR(EnsureJournaled(id));
    }
    CDB_RETURN_IF_ERROR(EnsureJournaled(0));
  }
  for (auto& [id, frame] : frames_) {
    CDB_RETURN_IF_ERROR(WriteBack(id, &frame));
  }
  CDB_RETURN_IF_ERROR(StoreMeta());
  CDB_RETURN_IF_ERROR(SyncDataFile());
  if (journal_ != nullptr) {
    // Commit point: dropping the journal makes this transaction the state
    // recovery preserves.
    if (journal_header_written_) {
      CDB_RETURN_IF_ERROR(InvalidateJournal());
    }
    ++MutStats().journal_commits;
  }
  commit_seq_ = txn_seq();
  journaled_.clear();
  journal_header_written_ = false;
  journal_records_ = 0;
  journal_synced_ = true;
  txn_active_ = false;
  txn_base_blocks_ = file_->BlockCount();
  return Status::OK();
}

Status Pager::PublishWriter() {
  // Nothing to commit: don't close the gate for a no-op (the ingest lane
  // calls Flush once more on exit even when the tail batch was empty).
  if (!txn_active_ && !journal_header_written_) return Status::OK();
  std::unique_lock<std::mutex> lock(publish_mu_);
  gate_closed_ = true;
  const uint64_t drain_start = clock_->NowNanos();
  const uint64_t sessions_at_gate = active_swmr_sessions_;
  publish_cv_.wait(lock, [&] { return active_swmr_sessions_ == 0; });
  cc_.publish_epochs.fetch_add(1, std::memory_order_relaxed);
  cc_.publish_drain_ns.fetch_add(clock_->NowNanos() - drain_start,
                                 std::memory_order_relaxed);
  cc_.publish_sessions_drained.fetch_add(sessions_at_gate,
                                         std::memory_order_relaxed);
  // Every read session is drained and new ones are parked at the gate, so
  // the commit below is invisible until the snapshot swap completes.
  std::vector<PageId> written;
  for (auto& [id, frame] : frames_) {
    if (frame.dirty) written.push_back(id);
  }
  cc_.publish_pages.fetch_add(written.size(), std::memory_order_relaxed);
  Status st = FlushBody();
  if (st.ok()) {
    // Purge superseded copies so post-publish readers refetch the new
    // bytes from disk. (Pages freed this transaction may leave stale
    // clean frames behind; the published free set blocks fetching them,
    // and a later reuse lands in `written` and purges them here.)
    for (PageId id : written) {
      ReadShard& shard = *shards_[ShardOf(id)];
      std::lock_guard<std::mutex> slock(shard.mu);
      auto it = shard.frames.find(id);
      if (it != shard.frames.end()) {
        assert(it->second.pins.load(std::memory_order_relaxed) == 0);
        if (it->second.in_lru) shard.lru.erase(it->second.lru_pos);
        shard.frames.erase(it);
        shared_frames_.fetch_sub(1, std::memory_order_relaxed);
      }
    }
    published_next_page_id_ = next_page_id_;
    published_free_ = free_set_;
  }
  {
    std::lock_guard<std::mutex> slock(stats_mu_);
    stats_.Merge(writer_stats_);
    writer_stats_.Reset();
  }
  gate_closed_ = false;
  lock.unlock();
  publish_cv_.notify_all();
  return st;
}

Status Pager::DropCache() {
  if (shared_mode_) {
    return Status::InvalidArgument("DropCache during concurrent reads");
  }
  CDB_RETURN_IF_ERROR(Flush());
  for (auto it = frames_.begin(); it != frames_.end();) {
    if (it->second.pins == 0) {
      if (it->second.in_lru) lru_.erase(it->second.lru_pos);
      it = frames_.erase(it);
    } else {
      ++it;
    }
  }
  return Status::OK();
}

Status Pager::BeginConcurrentReads(bool single_writer) {
  if (shared_mode_) {
    return Status::InvalidArgument("already in concurrent-read mode");
  }
  if (pinned_frames_ != 0) {
    return Status::InvalidArgument("BeginConcurrentReads with live pins");
  }
  // Every frame must be clean before sharing: shared-mode eviction drops
  // frames without write-back, and readers never see in-flight mutations.
  CDB_RETURN_IF_ERROR(Flush());
  if (shards_.empty()) {
    shards_.resize(shard_mask_ + 1);
    for (auto& s : shards_) s = std::make_unique<ReadShard>();
  }
  // Per-epoch fetch distribution restarts with the mode (ShardImbalance()).
  for (auto& s : shards_) s->fetches.store(0, std::memory_order_relaxed);
  // Distribute resident frames, walking the exclusive LRU from MRU to LRU
  // so each shard's list preserves relative recency — a warm cache stays
  // warm across the mode switch.
  size_t moved = 0;
  for (PageId id : lru_) {
    auto it = frames_.find(id);
    assert(it != frames_.end());
    it->second.in_lru = false;
    ReadShard& shard = *shards_[ShardOf(id)];
    auto res = shard.frames.emplace(id, std::move(it->second));
    assert(res.second);
    shard.lru.push_back(id);
    res.first->second.lru_pos = --shard.lru.end();
    res.first->second.in_lru = true;
    ++moved;
  }
  frames_.clear();
  lru_.clear();
  shared_frames_.store(moved, std::memory_order_relaxed);
  shared_pinned_.store(0, std::memory_order_relaxed);
  // Snapshot the allocation state readers validate against. In plain
  // concurrent-read mode it never diverges from the live state (mutations
  // are rejected); under single-writer mode it advances only at publish.
  published_next_page_id_ = next_page_id_;
  published_free_ = free_set_;
  swmr_ = single_writer;
  writer_thread_ = std::this_thread::get_id();
  writer_stats_.Reset();
  gate_closed_ = false;
  active_swmr_sessions_ = 0;
  shared_mode_ = true;
  return Status::OK();
}

Status Pager::EndConcurrentReads() {
  if (!shared_mode_) {
    return Status::InvalidArgument("not in concurrent-read mode");
  }
  if (swmr_) {
    if (!IsSwmrWriterThread()) {
      return Status::InvalidArgument(
          "EndConcurrentReads must run on the writer thread");
    }
    // Commit whatever the writer left pending so exclusive mode resumes
    // from a published state.
    CDB_RETURN_IF_ERROR(PublishWriter());
    {
      std::lock_guard<std::mutex> lock(publish_mu_);
      if (active_swmr_sessions_ != 0) {
        return Status::InvalidArgument(
            "EndConcurrentReads with open read sessions");
      }
    }
    if (pinned_frames_ != 0) {
      return Status::InvalidArgument("EndConcurrentReads with writer pins");
    }
  }
  if (shared_pinned_.load(std::memory_order_relaxed) != 0) {
    return Status::InvalidArgument(
        "EndConcurrentReads with live PageRefs or sessions");
  }
  // Fold the shards back. Recency within a shard is preserved; ordering
  // across shards is approximate, which only perturbs future eviction
  // order, never counters or query results. Under single-writer mode the
  // writer's overlay may already hold a (clean, identical post-publish)
  // copy of a shard frame — keep the overlay's and drop the shard's.
  for (auto& shard_ptr : shards_) {
    ReadShard& shard = *shard_ptr;
    for (PageId id : shard.lru) {
      auto it = shard.frames.find(id);
      assert(it != shard.frames.end());
      it->second.in_lru = false;
      auto res = frames_.emplace(id, std::move(it->second));
      if (!res.second) continue;
      lru_.push_back(id);
      res.first->second.lru_pos = --lru_.end();
      res.first->second.in_lru = true;
    }
    shard.frames.clear();
    shard.lru.clear();
  }
  shared_frames_.store(0, std::memory_order_relaxed);
  // Residual writer counters (reads that never hit a publish) and the
  // mode reset. The publish above already merged the mutation counters.
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.Merge(writer_stats_);
    writer_stats_.Reset();
  }
  const bool had_writer = swmr_;
  swmr_ = false;
  shared_mode_ = false;
  // The writer overlay may have grown past the frame budget while
  // eviction was disabled; shed the excess now that exclusive eviction is
  // legal again. (Plain concurrent-read mode never overflows: shard-local
  // eviction kept the pool at the budget.)
  return had_writer ? EvictIfNeeded() : Status::OK();
}

std::unique_lock<std::mutex> Pager::LockShard(ReadShard& shard) {
  std::unique_lock<std::mutex> lock(shard.mu, std::try_to_lock);
  if (!lock.owns_lock()) {
    // Contended: charge the blocking wait. The uncontended path above never
    // reads the clock, so instrumentation costs nothing when shards are
    // well spread.
    uint64_t t0 = clock_->NowNanos();
    lock.lock();
    cc_.shard_lock_waits.fetch_add(1, std::memory_order_relaxed);
    cc_.shard_lock_wait_ns.fetch_add(clock_->NowNanos() - t0,
                                     std::memory_order_relaxed);
  }
  return lock;
}

Result<PageRef> Pager::SharedFetch(PageId id) {
  PagerReadSession* session = nullptr;
  for (PagerReadSession* s = t_session_head; s != nullptr; s = s->prev_) {
    if (s->pager_ == this) {
      session = s;
      break;
    }
  }
  if (session == nullptr) {
    return Status::InvalidArgument(
        "concurrent-read Fetch requires a PagerReadSession on this thread");
  }
  // Validate against the published snapshot (== the live state in plain
  // concurrent-read mode; the last commit under single-writer mode). The
  // session's gate registration ordered this read after the snapshot swap.
  if (id == kInvalidPageId || id >= published_next_page_id_) {
    return Status::InvalidArgument("Fetch of invalid page id " +
                                   std::to_string(id));
  }
  if (published_free_.count(id) > 0) {
    return Status::Corruption("Fetch of free page " + std::to_string(id));
  }
  IoStats& stats = session->local_;
  ++stats.page_fetches;
  ReadShard& shard = *shards_[ShardOf(id)];
  shard.fetches.fetch_add(1, std::memory_order_relaxed);
  std::unique_lock<std::mutex> lock = LockShard(shard);
  auto it = shard.frames.find(id);
  if (it == shard.frames.end()) {
    // Miss: do the physical read outside the shard lock so a slow read
    // does not serialize the whole shard. Two threads may race to load the
    // same page; the loser adopts the winner's frame and its duplicate
    // read is charged as a physical read (it was one), which keeps the
    // per-session fetches == hits + reads invariant exact.
    lock.unlock();
    ++stats.page_reads;
    std::vector<char> block(block_size_);
    if (id < file_->BlockCount()) {
      CDB_RETURN_IF_ERROR(ReadBlockVerified(id, block.data(), &stats));
    }
    lock = LockShard(shard);
    it = shard.frames.find(id);
    if (it == shard.frames.end()) {
      Frame frame;
      frame.data = std::move(block);
      it = shard.frames.emplace(id, std::move(frame)).first;
      shared_frames_.fetch_add(1, std::memory_order_relaxed);
    }
  } else {
    ++stats.buffer_hits;
  }
  Frame& frame = it->second;
  if (frame.pins.fetch_add(1, std::memory_order_relaxed) == 0) {
    shared_pinned_.fetch_add(1, std::memory_order_relaxed);
    if (frame.in_lru) {
      shard.lru.erase(frame.lru_pos);
      frame.in_lru = false;
    }
  }
  // Capacity: evict unpinned frames from this shard's cold end while the
  // pool as a whole is over budget. All frames are clean, so eviction is
  // just an erase. Another shard may be the actual offender; tolerating
  // transient overflow keeps eviction lock-local.
  while (shared_frames_.load(std::memory_order_relaxed) > cache_frames_ &&
         !shard.lru.empty()) {
    PageId victim = shard.lru.back();
    auto vit = shard.frames.find(victim);
    assert(vit != shard.frames.end() &&
           vit->second.pins.load(std::memory_order_relaxed) == 0);
    shard.lru.pop_back();
    shard.frames.erase(vit);
    shared_frames_.fetch_sub(1, std::memory_order_relaxed);
    ++stats.buffer_evictions;
  }
  return PageRef(this, id, frame.data.data() + payload_offset_);
}

Status Pager::ReadBlockVerified(PageId id, char* block, IoStats* sink) {
  // `page_reads` was already charged by the caller: one logical miss is one
  // physical read in the paper's accounting, however many attempts the
  // retry policy issues underneath (attempts are visible in retry_stats()).
  bool failed_transiently = false;
  bool crc_reread_done = false;
  uint64_t backoff_ns = retry_backoff_base_ns_;
  for (int attempt = 1;; ++attempt) {
    Status st = file_->ReadBlock(id, block);
    if (st.ok()) {
      st = VerifyPageBlock(id, block, sink);
      if (st.ok()) {
        if (failed_transiently) {
          rc_.read_recoveries.fetch_add(1, std::memory_order_relaxed);
        }
        return st;
      }
      if (st.IsCorruption() && reread_on_checksum_mismatch_ &&
          !crc_reread_done) {
        crc_reread_done = true;
        // One re-read cures a fluked transfer; a second mismatch is rot.
        // (Persistent mismatches therefore charge checksum_failures twice,
        // once per verification — the miss still errors exactly once.)
        // The re-read books only under crc_rereads, never read_retries:
        // the block *read* succeeded, so this is not a transient I/O retry
        // and must not look like one in the retry ledger (page_reads stays
        // one per miss either way; tests/pager_retry_test.cc pins the
        // exact split).
        rc_.crc_rereads.fetch_add(1, std::memory_order_relaxed);
        Status reread = file_->ReadBlock(id, block);
        if (reread.ok()) {
          reread = VerifyPageBlock(id, block, sink);
          if (reread.ok()) {
            rc_.crc_reread_recoveries.fetch_add(1,
                                                std::memory_order_relaxed);
            if (failed_transiently) {
              rc_.read_recoveries.fetch_add(1, std::memory_order_relaxed);
            }
            return reread;
          }
        }
        return reread;
      }
      return st;
    }
    if (!st.IsTransient() || attempt >= max_read_attempts_) {
      if (st.IsTransient()) {
        rc_.read_exhausted.fetch_add(1, std::memory_order_relaxed);
      }
      return st;
    }
    failed_transiently = true;
    rc_.read_retries.fetch_add(1, std::memory_order_relaxed);
    if (backoff_ns > 0) {
      uint64_t wait = retry_backoff_cap_ns_ > 0
                          ? std::min(backoff_ns, retry_backoff_cap_ns_)
                          : backoff_ns;
      rc_.backoff_waits.fetch_add(1, std::memory_order_relaxed);
      rc_.backoff_wait_ns.fetch_add(wait, std::memory_order_relaxed);
      clock_->SleepNanos(wait);
      backoff_ns = backoff_ns > (UINT64_MAX >> 1) ? UINT64_MAX
                                                  : backoff_ns << 1;
    }
  }
}

PagerRetryStats Pager::retry_stats() const {
  PagerRetryStats s;
  s.read_retries = rc_.read_retries.load(std::memory_order_relaxed);
  s.read_recoveries = rc_.read_recoveries.load(std::memory_order_relaxed);
  s.read_exhausted = rc_.read_exhausted.load(std::memory_order_relaxed);
  s.backoff_waits = rc_.backoff_waits.load(std::memory_order_relaxed);
  s.backoff_wait_ns = rc_.backoff_wait_ns.load(std::memory_order_relaxed);
  s.crc_rereads = rc_.crc_rereads.load(std::memory_order_relaxed);
  s.crc_reread_recoveries =
      rc_.crc_reread_recoveries.load(std::memory_order_relaxed);
  return s;
}

PagerConcurrencyStats Pager::concurrency_stats() const {
  PagerConcurrencyStats s;
  s.shard_lock_waits = cc_.shard_lock_waits.load(std::memory_order_relaxed);
  s.shard_lock_wait_ns =
      cc_.shard_lock_wait_ns.load(std::memory_order_relaxed);
  s.publish_epochs = cc_.publish_epochs.load(std::memory_order_relaxed);
  s.publish_drain_ns = cc_.publish_drain_ns.load(std::memory_order_relaxed);
  s.publish_sessions_drained =
      cc_.publish_sessions_drained.load(std::memory_order_relaxed);
  s.publish_pages = cc_.publish_pages.load(std::memory_order_relaxed);
  s.data_fsyncs = cc_.data_fsyncs.load(std::memory_order_relaxed);
  s.data_fsync_ns = cc_.data_fsync_ns.load(std::memory_order_relaxed);
  s.journal_fsyncs = cc_.journal_fsyncs.load(std::memory_order_relaxed);
  s.journal_fsync_ns =
      cc_.journal_fsync_ns.load(std::memory_order_relaxed);
  return s;
}

double Pager::ShardImbalance() const {
  uint64_t total = 0;
  uint64_t peak = 0;
  size_t shards = 0;
  for (const auto& shard_ptr : shards_) {
    uint64_t f = shard_ptr->fetches.load(std::memory_order_relaxed);
    total += f;
    peak = std::max(peak, f);
    ++shards;
  }
  if (total == 0 || shards == 0) return 0;
  double mean = static_cast<double>(total) / static_cast<double>(shards);
  return static_cast<double>(peak) / mean;
}

void Pager::SharedUnpin(PageId id) {
  ReadShard& shard = *shards_[ShardOf(id)];
  std::unique_lock<std::mutex> lock = LockShard(shard);
  auto it = shard.frames.find(id);
  assert(it != shard.frames.end());
  Frame& frame = it->second;
  int prev = frame.pins.fetch_sub(1, std::memory_order_relaxed);
  assert(prev > 0);
  if (prev == 1) {
    shared_pinned_.fetch_sub(1, std::memory_order_relaxed);
    shard.lru.push_front(id);
    frame.lru_pos = shard.lru.begin();
    frame.in_lru = true;
  }
}

}  // namespace cdb
