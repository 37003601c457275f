#include "storage/pager.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <tuple>

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
  // publish, and its Fetches go to its overlay anyway.)
  if (pager_->InSwmrReadContext()) {
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
  pager_->MergeSession(*this);
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
    frame_ = other.frame_;
    data_ = other.data_;
    other.pager_ = nullptr;
    other.frame_ = nullptr;
    other.data_ = nullptr;
  }
  return *this;
}

PageRef::~PageRef() { Release(); }

void PageRef::MarkDirty() {
  if (pager_ != nullptr) pager_->MarkDirty(frame_);
}

void PageRef::Release() {
  if (pager_ != nullptr) {
    pager_->Unpin(frame_);
    pager_ = nullptr;
    frame_ = nullptr;
    data_ = nullptr;
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
      block_scratch_(options.page_size),
      journal_scratch_(JournalBlockSize(options.page_size)) {}

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
  pager->ReserveTable(pager->next_page_id_);
  *out = std::move(pager);
  return Status::OK();
}

Pager::~Pager() {
  // In concurrent-read mode every frame is clean by construction and there
  // is nothing to flush; destroying the pager mid-batch (only reachable via
  // test teardown) must not trip the shared-mode mutation guard.
  if (!shared_mode_) Flush().ok();
}

PagerReadSession* Pager::FindSession() const {
  for (PagerReadSession* s = t_session_head; s != nullptr; s = s->prev_) {
    if (s->pager_ == this) return s;
  }
  return nullptr;
}

const IoStats& Pager::ThreadStats() const {
  if (shared_mode_) {
    // The single writer's view is its un-published delta (cleared into
    // stats() at each publish).
    if (IsSwmrWriterThread()) return writer_stats_;
    if (PagerReadSession* s = FindSession()) return s->local_;
  }
  return stats_;
}

void Pager::MergeSession(const PagerReadSession& session) {
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.Merge(session.local_);
  }
  for (size_t i = 0; i < kReadShards; ++i) {
    if (session.shard_fetches_[i] != 0) {
      shards_[i].fetches.fetch_add(session.shard_fetches_[i],
                                   std::memory_order_relaxed);
    }
  }
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
  if (IsReader()) {
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
    // Live again; a writer's page stays free to readers until published.
    if (!IsSwmrWriterThread()) SetTableEntry(id, ref.value().frame_);
  } else {
    id = next_page_id_++;
    const bool writer = IsSwmrWriterThread();
    Shard& shard = shards_[ShardOf(id)];
    BufferFrame& frame = (writer ? overlay_ : shard.frames)[id];
    frame.page = id;
    frame.data.assign(block_size_, 0);
    frame.dirty = true;
    Count(writer ? overlay_frames_ : pool_frames_, 1);
    if (!writer) {
      LinkNewest(shard, &frame, ++tick_);
      ReserveTable(next_page_id_);
      SetTableEntry(id, &frame);
      CDB_RETURN_IF_ERROR(EvictIfNeeded(stats_));
    }
  }
  ++live_pages_;
  return id;
}

Status Pager::Free(PageId id) {
  if (IsReader()) {
    return Status::InvalidArgument("Free during concurrent reads");
  }
  if (id == kInvalidPageId || id >= next_page_id_) {
    return Status::Corruption("Free of out-of-range page id " +
                              std::to_string(id));
  }
  if (free_set_.count(id) > 0) {
    return Status::Corruption("double free of page " + std::to_string(id));
  }
  auto& frames =
      IsSwmrWriterThread() ? overlay_ : shards_[ShardOf(id)].frames;
  auto it = frames.find(id);
  if (it != frames.end() &&
      it->second.pins.load(std::memory_order_relaxed) > 0) {
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
  // Readers see a writer's free only once it is published.
  if (!IsSwmrWriterThread()) SetTableEntry(id, nullptr);
  assert(live_pages_ > 0);
  --live_pages_;
  return Status::OK();
}

Result<PageRef> Pager::Fetch(PageId id) {
  // A reader holding a session fetches through the page table; a single
  // thread fetches through the pool, and under single-writer mode the
  // writer fetches into its private overlay.
  if (IsReader()) {
    PagerReadSession* session = FindSession();
    if (session == nullptr) {
      return Status::InvalidArgument(
          "concurrent-read Fetch requires a PagerReadSession on this thread");
    }
    return ReaderFetch(id, session);
  }
  const bool writer = IsSwmrWriterThread();
  if (id == kInvalidPageId || id >= next_page_id_) {
    return Status::InvalidArgument("Fetch of invalid page id " +
                                   std::to_string(id));
  }
  if (free_set_.count(id) > 0) {
    return Status::Corruption("Fetch of free page " + std::to_string(id));
  }
  IoStats& sink = MutStats();
  ++sink.page_fetches;
  Shard& shard = shards_[ShardOf(id)];
  FrameMap& frames = writer ? overlay_ : shard.frames;
  auto it = frames.find(id);
  if (it == frames.end()) {
    std::vector<char> block(block_size_);
    bool copied = false;
    if (writer) {
      // The writer's first touch of a page copies its committed bytes from
      // the pool when they are resident there.
      std::unique_lock<std::mutex> pool_lock = LockShard(shard);
      auto pit = shard.frames.find(id);
      if (pit != shard.frames.end()) {
        std::memcpy(block.data(), pit->second.data.data(), block_size_);
        copied = true;
      }
    }
    if (copied) {
      ++sink.buffer_hits;
    } else {
      CDB_RETURN_IF_ERROR(ReadBlockVerified(id, block.data(), &sink));
    }
    it = frames.try_emplace(id).first;
    it->second.page = id;
    it->second.data = std::move(block);
    Count(writer ? overlay_frames_ : pool_frames_, 1);
    if (!writer) {
      // Pinned until its first unpin restamps it, so no tick is spent here.
      LinkNewest(shard, &it->second, tick_);
      SetTableEntry(id, &it->second);
    }
  } else {
    ++sink.buffer_hits;
  }
  BufferFrame& frame = it->second;
  frame.pins.store(frame.pins.load(std::memory_order_relaxed) + 1,
                   std::memory_order_relaxed);
  if (!writer && pool_frames_.load(std::memory_order_relaxed) > cache_frames_) {
    Status st = EvictIfNeeded(sink);
    if (!st.ok()) {
      Unpin(&frame);
      return st;
    }
  }
  return MakeRef(&frame);
}

Result<PageRef> Pager::ReaderFetch(PageId id, PagerReadSession* session) {
  // Readers validate against the published snapshot: the live allocation
  // state belongs to the writer's uncommitted transaction (and equals the
  // snapshot in plain concurrent-read mode). The session's gate
  // registration ordered this read after the last snapshot swap.
  if (id == kInvalidPageId || id >= published_next_page_id_) {
    return Status::InvalidArgument("Fetch of invalid page id " +
                                   std::to_string(id));
  }
  IoStats& sink = session->local_;
  ++sink.page_fetches;
  ++session->shard_fetches_[ShardOf(id)];
  // The hit: no lock, no hash. A table entry may be stale (its frame was
  // evicted, and perhaps reused for another page): an evicted frame
  // refuses the pin (-1), and a reused one fails the page check below,
  // which the pin orders after the reuser's writes.
  if (BufferFrame* frame = table_[id].load(std::memory_order_acquire)) {
    int pins = frame->pins.load(std::memory_order_relaxed);
    while (pins >= 0 &&
           !frame->pins.compare_exchange_weak(pins, pins + 1,
                                              std::memory_order_acquire,
                                              std::memory_order_relaxed)) {
    }
    if (pins >= 0) {
      if (frame->page == id) {
        if (!frame->referenced.load(std::memory_order_relaxed)) {
          frame->referenced.store(true, std::memory_order_relaxed);
        }
        ++sink.buffer_hits;
        return MakeRef(frame);
      }
      frame->pins.fetch_sub(1, std::memory_order_release);
    }
  }
  return ReaderMiss(id, sink);
}

Result<PageRef> Pager::ReaderMiss(PageId id, IoStats& sink) {
  // The table leaves free pages out, so only this path checks for them;
  // published_free_ changes only while readers are drained.
  if (published_free_.count(id) > 0) {
    return Status::Corruption("Fetch of free page " + std::to_string(id));
  }
  Shard& shard = shards_[ShardOf(id)];
  std::unique_lock<std::mutex> lock = LockShard(shard);
  auto it = shard.frames.find(id);
  if (it == shard.frames.end()) {
    // Load outside the shard lock so a slow read does not serialize the
    // shard. Two readers may race to load the same page; the loser adopts
    // the winner's frame and its duplicate read is charged as a physical
    // read (it was one), which keeps the per-session
    // fetches == hits + reads invariant exact.
    lock.unlock();
    std::vector<char> block(block_size_);
    CDB_RETURN_IF_ERROR(ReadBlockVerified(id, block.data(), &sink));
    lock = LockShard(shard);
    it = shard.frames.find(id);
    if (it == shard.frames.end()) {
      // A new frame, or a spare re-keyed: its address stays put.
      if (shard.spare.empty()) {
        it = shard.frames.try_emplace(id).first;
      } else {
        FrameMap::node_type node = std::move(shard.spare.back());
        shard.spare.pop_back();
        node.key() = id;
        it = shard.frames.insert(std::move(node)).position;
      }
      BufferFrame* frame = &it->second;
      frame->page = id;
      frame->data.swap(block);
      frame->referenced.store(false, std::memory_order_relaxed);
      LinkNewest(shard, frame, tick_);
      // Publishes the frame's bytes and page to a stale pointer's pin, and
      // (a release store, unlike SetTableEntry) the frame to the next hit.
      frame->pins.store(1, std::memory_order_release);
      table_[id].store(frame, std::memory_order_release);
      Count(pool_frames_, 1);
      if (pool_frames_.load(std::memory_order_relaxed) > cache_frames_) {
        ReaderEvict(shard, sink);
      }
      return MakeRef(frame);
    }
  } else {
    ++sink.buffer_hits;
  }
  // Resident after all (another reader inserted it since the table was
  // read). A frame in the map is never evicted without this lock, so its
  // pin count is not negative.
  BufferFrame* frame = &it->second;
  frame->pins.fetch_add(1, std::memory_order_acquire);
  frame->referenced.store(true, std::memory_order_relaxed);
  return MakeRef(frame);
}

void Pager::Unpin(BufferFrame* frame) {
  if (IsReader()) {
    // Orders this reader's use of the bytes before an evictor's CAS.
    frame->pins.fetch_sub(1, std::memory_order_release);
    return;
  }
  const int pins = frame->pins.load(std::memory_order_relaxed) - 1;
  assert(pins >= 0);
  frame->pins.store(pins, std::memory_order_relaxed);
  // Overlay frames are never evicted, so only pool frames are restamped.
  if (pins == 0 && !IsSwmrWriterThread()) {
    Shard& shard = shards_[ShardOf(frame->page)];
    Unlink(shard, frame);
    LinkNewest(shard, frame, ++tick_);
  }
}

void Pager::Count(std::atomic<size_t>& counter, size_t delta) {
  if (shared_mode_) {
    counter.fetch_add(delta, std::memory_order_relaxed);
  } else {
    counter.store(counter.load(std::memory_order_relaxed) + delta,
                  std::memory_order_relaxed);
  }
}

void Pager::LinkNewest(Shard& shard, BufferFrame* frame, uint64_t tick) {
  frame->tick = tick;
  frame->newer = nullptr;
  frame->older = shard.newest;
  if (shard.newest != nullptr) {
    shard.newest->newer = frame;
  } else {
    shard.oldest = frame;
  }
  shard.newest = frame;
}

void Pager::Unlink(Shard& shard, BufferFrame* frame) {
  (frame->newer != nullptr ? frame->newer->older : shard.newest) =
      frame->older;
  (frame->older != nullptr ? frame->older->newer : shard.oldest) =
      frame->newer;
  frame->newer = frame->older = nullptr;
}

void Pager::MarkDirty(BufferFrame* frame) {
  // Writes are a programming error in concurrent-read mode (except from
  // the single writer); there is no Status channel here, so fail loudly in
  // debug builds and ignore the mark otherwise (the frame would never be
  // written back anyway — write-back paths are all mode-guarded).
  assert(!IsReader());
  if (IsReader()) return;
  frame->dirty = true;
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

Status Pager::WriteBack(PageId id, BufferFrame* frame) {
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

Status Pager::EvictIfNeeded(IoStats& sink) {
  while (pool_frames_.load(std::memory_order_relaxed) > cache_frames_) {
    // Every shard's list is ordered by tick, so the oldest tick among the
    // shards' oldest unpinned frames is the pool's least recently used
    // one. Pinned frames are few (a descent's path), so the skips are
    // short.
    Shard* home = nullptr;
    BufferFrame* victim = nullptr;
    for (Shard& shard : shards_) {
      BufferFrame* f = shard.oldest;
      while (f != nullptr && f->pins.load(std::memory_order_relaxed) != 0) {
        f = f->newer;
      }
      if (f != nullptr && (victim == nullptr || f->tick < victim->tick)) {
        victim = f;
        home = &shard;
      }
    }
    if (victim == nullptr) break;
    const PageId id = victim->page;
    // Only single-threaded frames can be dirty: concurrent reads begin
    // with a flush, and a publish hands over committed frames.
    if (victim->dirty) ++sink.dirty_writebacks;
    CDB_RETURN_IF_ERROR(WriteBack(id, victim));
    ++sink.buffer_evictions;
    Unlink(*home, victim);
    SetTableEntry(id, nullptr);
    home->frames.erase(id);
    Count(pool_frames_, static_cast<size_t>(-1));
  }
  return Status::OK();
}

void Pager::ReaderEvict(Shard& home, IoStats& sink) {
  // A reader holds only its home shard's lock and evicts there, tolerating
  // transient overflow elsewhere rather than taking a second lock. The
  // walk is bounded: concurrent hits may re-reference frames it has
  // already moved.
  size_t budget = 2 * home.frames.size();
  BufferFrame* f = home.oldest;
  while (f != nullptr && budget-- > 0 &&
         pool_frames_.load(std::memory_order_relaxed) > cache_frames_) {
    BufferFrame* next = f->newer;
    if (f->referenced.load(std::memory_order_relaxed)) {
      // Second chance: newest again, stamped with the epoch's tick so the
      // list stays ordered.
      f->referenced.store(false, std::memory_order_relaxed);
      if (next != nullptr) {
        Unlink(home, f);
        LinkNewest(home, f, tick_);
      }
    } else {
      int unpinned = 0;
      if (f->pins.compare_exchange_strong(unpinned, -1,
                                          std::memory_order_acquire,
                                          std::memory_order_relaxed)) {
        Unlink(home, f);
        SetTableEntry(f->page, nullptr);
        home.spare.push_back(home.frames.extract(f->page));
        ++sink.buffer_evictions;
        Count(pool_frames_, static_cast<size_t>(-1));
      }
    }
    f = next;
  }
}

Status Pager::Flush() {
  if (IsReader()) {
    return Status::InvalidArgument("Flush during concurrent reads");
  }
  return IsSwmrWriterThread() ? PublishWriter() : FlushBody();
}

Status Pager::FlushBody() {
  // An empty transaction has nothing to commit — in particular the
  // destructor's flush after a clean Flush() must not advance the
  // sequence or touch the file.
  if (!txn_active_ && !journal_header_written_) return Status::OK();
  // Under single-writer mode the transaction lives in the overlay and the
  // pool is clean; otherwise it lives in the pool.
  std::vector<FrameMap*> stores;
  if (swmr_) {
    stores.push_back(&overlay_);
  } else {
    for (Shard& shard : shards_) stores.push_back(&shard.frames);
  }
  // Journal every pre-image first so one journal sync covers the whole
  // batch of in-place writes below.
  if (journal_ != nullptr) {
    for (auto* frames : stores) {
      for (auto& [id, frame] : *frames) {
        if (frame.dirty) CDB_RETURN_IF_ERROR(EnsureJournaled(id));
      }
    }
    CDB_RETURN_IF_ERROR(EnsureJournaled(0));
  }
  for (auto* frames : stores) {
    for (auto& [id, frame] : *frames) {
      CDB_RETURN_IF_ERROR(WriteBack(id, &frame));
    }
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
  if (!txn_active_ && !journal_header_written_) {
    // Nothing to commit, so don't close the gate for a no-op (the ingest
    // lane calls Flush once more on exit even when the tail batch was
    // empty). The overlay holds only clean copies of committed pages; drop
    // the unpinned ones.
    std::erase_if(overlay_, [](const auto& entry) {
      return entry.second.pins.load(std::memory_order_relaxed) == 0;
    });
    overlay_frames_.store(overlay_.size(), std::memory_order_relaxed);
    return Status::OK();
  }
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
  // the commit below is invisible until the snapshot swap completes, and
  // the pool is the writer's to change without shard locks.
  cc_.publish_pages.fetch_add(
      std::count_if(overlay_.begin(), overlay_.end(),
                    [](const auto& entry) { return entry.second.dirty; }),
      std::memory_order_relaxed);
  Status st = FlushBody();
  if (st.ok()) {
    ReleaseSpares();
    ReserveTable(next_page_id_);
    AdoptOverlay();
    // Committed frames are clean, so this eviction writes nothing back.
    st = EvictIfNeeded(writer_stats_);
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

void Pager::AdoptOverlay() {
  // The adopted frames are newer than anything in the pool.
  ++tick_;
  for (auto it = overlay_.begin(); it != overlay_.end();) {
    const PageId id = it->first;
    BufferFrame& src = it->second;
    Shard& shard = shards_[ShardOf(id)];
    auto [dst, inserted] = shard.frames.try_emplace(id);
    BufferFrame& frame = dst->second;
    // A superseded copy is unpinned: its readers have drained.
    assert(frame.pins.load(std::memory_order_relaxed) == 0);
    if (inserted) {
      frame.page = id;
      Count(pool_frames_, 1);
    } else {
      Unlink(shard, &frame);
    }
    frame.dirty = false;
    LinkNewest(shard, &frame, tick_);
    // The transaction's frees become visible with it.
    SetTableEntry(id, free_set_.count(id) > 0 ? nullptr : &frame);
    if (src.pins.load(std::memory_order_relaxed) == 0) {
      frame.data = std::move(src.data);
      it = overlay_.erase(it);
      Count(overlay_frames_, static_cast<size_t>(-1));
    } else {
      // The writer still holds this page: leave it the overlay's frame and
      // give readers a copy.
      frame.data = src.data;
      ++it;
    }
  }
}

Status Pager::DropCache() {
  if (shared_mode_) {
    return Status::InvalidArgument("DropCache during concurrent reads");
  }
  CDB_RETURN_IF_ERROR(Flush());
  for (Shard& shard : shards_) {
    for (auto it = shard.frames.begin(); it != shard.frames.end();) {
      if (it->second.pins.load(std::memory_order_relaxed) == 0) {
        Unlink(shard, &it->second);
        SetTableEntry(it->first, nullptr);
        it = shard.frames.erase(it);
        Count(pool_frames_, static_cast<size_t>(-1));
      } else {
        ++it;
      }
    }
  }
  return Status::OK();
}

size_t Pager::pinned_frame_count() const {
  // The table is a flat array, so this is a short scan even over a large
  // pool. An entry read while a reader clears it still names a live frame
  // (spares are freed only when readers are drained), and a pinned frame
  // is never evicted.
  size_t pinned = 0;
  for (size_t i = 0; i < table_capacity_; ++i) {
    const BufferFrame* frame = table_[i].load(std::memory_order_acquire);
    if (frame != nullptr && frame->pins.load(std::memory_order_relaxed) > 0) {
      ++pinned;
    }
  }
  if (!IsReader()) {
    for (const auto& entry : overlay_) {
      pinned += entry.second.pins.load(std::memory_order_relaxed) > 0;
    }
  }
  return pinned;
}

void Pager::ReserveTable(size_t n) {
  if (n <= table_capacity_) return;
  const size_t capacity = std::max({n, 2 * table_capacity_, size_t{64}});
  auto table = std::make_unique<std::atomic<BufferFrame*>[]>(capacity);
  for (size_t i = 0; i < table_capacity_; ++i) {
    table[i].store(table_[i].load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  }
  table_ = std::move(table);
  table_capacity_ = capacity;
}

void Pager::ReleaseSpares() {
  for (Shard& shard : shards_) shard.spare.clear();
}

Status Pager::BeginConcurrentReads(bool single_writer) {
  if (shared_mode_) {
    return Status::InvalidArgument("already in concurrent-read mode");
  }
  if (pinned_frame_count() != 0) {
    return Status::InvalidArgument("BeginConcurrentReads with live pins");
  }
  // Every pool frame must be clean before sharing: concurrent eviction
  // drops frames without write-back, and readers never see in-flight
  // mutations.
  CDB_RETURN_IF_ERROR(Flush());
  // Per-epoch fetch distribution restarts with the mode (ShardImbalance()).
  for (Shard& shard : shards_) {
    shard.fetches.store(0, std::memory_order_relaxed);
  }
  // Frames the readers touch this epoch are newer than every earlier one.
  ++tick_;
  // Snapshot the allocation state readers validate against. In plain
  // concurrent-read mode it never diverges from the live state (mutations
  // are rejected); under single-writer mode it advances only at publish.
  published_next_page_id_ = next_page_id_;
  published_free_ = free_set_;
  ReserveTable(published_next_page_id_);
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
    // Commit whatever the writer left pending so the pager resumes from a
    // published state. After it the overlay holds only pinned frames.
    CDB_RETURN_IF_ERROR(PublishWriter());
    std::lock_guard<std::mutex> lock(publish_mu_);
    if (active_swmr_sessions_ != 0) {
      return Status::InvalidArgument(
          "EndConcurrentReads with open read sessions");
    }
  }
  if (pinned_frame_count() != 0) {
    return Status::InvalidArgument(
        "EndConcurrentReads with live PageRefs or sessions");
  }
  ReleaseSpares();
  // Residual writer counters (reads that never hit a publish) and the
  // mode reset. The publish above already merged the mutation counters.
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.Merge(writer_stats_);
    writer_stats_.Reset();
  }
  swmr_ = false;
  shared_mode_ = false;
  return Status::OK();
}

std::unique_lock<std::mutex> Pager::LockShard(Shard& shard) {
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

Status Pager::ReadBlockVerified(PageId id, char* block, IoStats* sink) {
  // One miss is one physical read in the paper's accounting, even for a
  // page allocated but never flushed: it does not exist in the file yet,
  // and past EOF a miss is the zero page `block` already holds.
  ++sink->page_reads;
  if (id >= file_->BlockCount()) return Status::OK();
  CDB_RETURN_IF_ERROR(file_->ReadBlock(id, block));
  return VerifyPageBlock(id, block, sink);
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
  for (const Shard& shard : shards_) {
    uint64_t f = shard.fetches.load(std::memory_order_relaxed);
    total += f;
    peak = std::max(peak, f);
    ++shards;
  }
  if (total == 0 || shards == 0) return 0;
  double mean = static_cast<double>(total) / static_cast<double>(shards);
  return static_cast<double>(peak) / mean;
}

}  // namespace cdb
