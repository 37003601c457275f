#include "constraint/relation.h"

#include <algorithm>
#include <cstring>
#include <functional>

namespace cdb {

namespace {

// Data-page header.
struct PageHeader {
  PageId next;
  PageId prev;
  uint16_t used;          // Bytes consumed including the header.
  uint16_t live_records;
};

constexpr size_t kHeaderSize = sizeof(PageHeader);
constexpr uint8_t kLiveFlag = 1;

// Record layout: id u32 | m u16 | flags u8 | per-constraint 25 bytes
// (a f64, b f64, c f64, cmp u8).
constexpr size_t kRecordFixed = 7;
constexpr size_t kPerConstraint = 25;

size_t RecordLength(size_t m) { return kRecordFixed + m * kPerConstraint; }

void ReadHeader(const char* page, PageHeader* h) {
  std::memcpy(h, page, sizeof(*h));
}
void WriteHeader(char* page, const PageHeader& h) {
  std::memcpy(page, &h, sizeof(h));
}

void SerializeRecord(char* dst, TupleId id, const GeneralizedTuple& tuple,
                     uint8_t flags) {
  uint16_t m = static_cast<uint16_t>(tuple.size());
  std::memcpy(dst, &id, 4);
  std::memcpy(dst + 4, &m, 2);
  dst[6] = static_cast<char>(flags);
  char* p = dst + kRecordFixed;
  for (const Constraint2D& c : tuple.constraints()) {
    std::memcpy(p, &c.a, 8);
    std::memcpy(p + 8, &c.b, 8);
    std::memcpy(p + 16, &c.c, 8);
    p[24] = static_cast<char>(c.cmp == Cmp::kLE ? 0 : 1);
    p += kPerConstraint;
  }
}

void DeserializeRecord(const char* src, TupleId* id, uint8_t* flags,
                       GeneralizedTuple* tuple) {
  uint16_t m;
  std::memcpy(id, src, 4);
  std::memcpy(&m, src + 4, 2);
  *flags = static_cast<uint8_t>(src[6]);
  std::vector<Constraint2D> cons;
  cons.reserve(m);
  const char* p = src + kRecordFixed;
  for (uint16_t i = 0; i < m; ++i) {
    Constraint2D c;
    std::memcpy(&c.a, p, 8);
    std::memcpy(&c.b, p + 8, 8);
    std::memcpy(&c.c, p + 16, 8);
    c.cmp = p[24] == 0 ? Cmp::kLE : Cmp::kGE;
    cons.push_back(c);
    p += kPerConstraint;
  }
  *tuple = GeneralizedTuple(std::move(cons));
}

uint16_t RecordConstraintCount(const char* src) {
  uint16_t m;
  std::memcpy(&m, src + 4, 2);
  return m;
}

// Bounding-box sidecar page header and record layout (ISSUE 8c).
// Header: next u32 | count u16 | pad u16. Record (id-positional):
// flags u8 (bit 0 = tuple has a finite box) | xlo, ylo, xhi, yhi f64.
struct BoxPageHeader {
  PageId next;
  uint16_t count;
  uint16_t pad;
};

constexpr size_t kBoxHeaderSize = sizeof(BoxPageHeader);
constexpr size_t kBoxRecordSize = 33;
constexpr uint8_t kBoxFiniteFlag = 1;

void ReadBoxHeader(const char* page, BoxPageHeader* h) {
  std::memcpy(h, page, sizeof(*h));
}
void WriteBoxHeader(char* page, const BoxPageHeader& h) {
  std::memcpy(page, &h, sizeof(h));
}

void SerializeBoxRecord(char* dst, bool has_box, const Rect& box) {
  dst[0] = static_cast<char>(has_box ? kBoxFiniteFlag : 0);
  std::memcpy(dst + 1, &box.xlo, 8);
  std::memcpy(dst + 9, &box.ylo, 8);
  std::memcpy(dst + 17, &box.xhi, 8);
  std::memcpy(dst + 25, &box.yhi, 8);
}

void DeserializeBoxRecord(const char* src, bool* has_box, Rect* box) {
  *has_box = (static_cast<uint8_t>(src[0]) & kBoxFiniteFlag) != 0;
  std::memcpy(&box->xlo, src + 1, 8);
  std::memcpy(&box->ylo, src + 9, 8);
  std::memcpy(&box->xhi, src + 17, 8);
  std::memcpy(&box->yhi, src + 25, 8);
}

}  // namespace

Status Relation::Open(Pager* pager, PageId root_page,
                      std::unique_ptr<Relation>* out) {
  std::unique_ptr<Relation> rel(new Relation(pager));
  if (root_page == kInvalidPageId) {
    Result<PageId> id = pager->Allocate();
    if (!id.ok()) return id.status();
    rel->root_page_ = rel->tail_page_ = id.value();
    Result<PageRef> ref = pager->Fetch(id.value());
    if (!ref.ok()) return ref.status();
    PageHeader h{kInvalidPageId, kInvalidPageId,
                 static_cast<uint16_t>(kHeaderSize), 0};
    WriteHeader(ref.value().data(), h);
    ref.value().MarkDirty();
  } else {
    rel->root_page_ = root_page;
    CDB_RETURN_IF_ERROR(rel->RebuildDirectory());
  }
  *out = std::move(rel);
  return Status::OK();
}

Status Relation::RebuildDirectory() {
  PageId page = root_page_;
  PageId prev = kInvalidPageId;
  while (page != kInvalidPageId) {
    Result<PageRef> ref = pager_->Fetch(page);
    if (!ref.ok()) return ref.status();
    PageHeader h;
    ReadHeader(ref.value().data(), &h);
    size_t off = kHeaderSize;
    while (off < h.used) {
      const char* rec = ref.value().data() + off;
      TupleId id;
      uint8_t flags;
      std::memcpy(&id, rec, 4);
      flags = static_cast<uint8_t>(rec[6]);
      uint16_t m = RecordConstraintCount(rec);
      if (directory_.size() <= id) directory_.resize(id + 1);
      directory_[id] = {page, static_cast<uint16_t>(off),
                        (flags & kLiveFlag) != 0};
      if (flags & kLiveFlag) ++live_count_;
      off += RecordLength(m);
    }
    prev = page;
    page = h.next;
  }
  tail_page_ = prev == kInvalidPageId ? root_page_ : prev;
  return Status::OK();
}

Result<TupleId> Relation::Insert(const GeneralizedTuple& tuple) {
  CDB_RETURN_IF_ERROR(ValidateTuple(tuple));
  if (pager_->concurrent_reads_active() &&
      directory_.size() >= swmr_capacity_) {
    return Status::InvalidArgument(
        "online append capacity exhausted (BeginOnlineAppends reservation)");
  }
  size_t len = RecordLength(tuple.size());
  if (len + kHeaderSize > pager_->page_size()) {
    return Status::InvalidArgument("tuple too large for a page");
  }
  TupleId id = static_cast<TupleId>(directory_.size());

  Result<PageRef> tail = pager_->Fetch(tail_page_);
  if (!tail.ok()) return tail.status();
  PageHeader h;
  ReadHeader(tail.value().data(), &h);

  if (h.used + len > pager_->page_size()) {
    // Start a new tail page.
    Result<PageId> fresh = pager_->Allocate();
    if (!fresh.ok()) return fresh.status();
    Result<PageRef> fresh_ref = pager_->Fetch(fresh.value());
    if (!fresh_ref.ok()) return fresh_ref.status();
    PageHeader nh{kInvalidPageId, tail_page_,
                  static_cast<uint16_t>(kHeaderSize), 0};
    WriteHeader(fresh_ref.value().data(), nh);
    fresh_ref.value().MarkDirty();
    h.next = fresh.value();
    WriteHeader(tail.value().data(), h);
    tail.value().MarkDirty();
    tail_page_ = fresh.value();
    tail = std::move(fresh_ref);
    h = nh;
  }

  SerializeRecord(tail.value().data() + h.used, id, tuple, kLiveFlag);
  directory_.push_back({tail_page_, h.used, true});
  h.used = static_cast<uint16_t>(h.used + len);
  ++h.live_records;
  WriteHeader(tail.value().data(), h);
  tail.value().MarkDirty();
  ++live_count_;

  if (bbox_enabled_) {
    tail.value().Release();
    Rect box;
    bool has_box = tuple.GetBoundingRect(&box);
    if (!has_box) box = Rect();
    CDB_RETURN_IF_ERROR(AppendBoxSlot(has_box, box));
  }
  return id;
}

Status Relation::Get(TupleId id, GeneralizedTuple* out) const {
  if (pager_->InSwmrReadContext()) {
    // Reader under single-writer mode: bound-check against the published
    // count — directory_.size() is the writer's, and unpublished entries
    // reference pages the pager would refuse to fetch anyway.
    if (id >= published_tuples_.load(std::memory_order_acquire) ||
        !directory_[id].live) {
      return Status::NotFound("tuple " + std::to_string(id));
    }
  } else if (id >= directory_.size() || !directory_[id].live) {
    return Status::NotFound("tuple " + std::to_string(id));
  }
  const Location& loc = directory_[id];
  Result<PageRef> ref = pager_->Fetch(loc.page);
  if (!ref.ok()) return ref.status();
  TupleId stored;
  uint8_t flags;
  DeserializeRecord(ref.value().data() + loc.offset, &stored, &flags, out);
  if (stored != id || !(flags & kLiveFlag)) {
    return Status::Corruption("directory/page mismatch for tuple " +
                              std::to_string(id));
  }
  return Status::OK();
}

Status Relation::LocateTuple(TupleId id, PageId* page) const {
  if (pager_->InSwmrReadContext()) {
    if (id >= published_tuples_.load(std::memory_order_acquire) ||
        !directory_[id].live) {
      return Status::NotFound("tuple " + std::to_string(id));
    }
  } else if (id >= directory_.size() || !directory_[id].live) {
    return Status::NotFound("tuple " + std::to_string(id));
  }
  *page = directory_[id].page;
  return Status::OK();
}

Status Relation::GetFromPage(const PageRef& page, TupleId id,
                             GeneralizedTuple* out) const {
  const Location& loc = directory_[id];
  TupleId stored;
  uint8_t flags;
  DeserializeRecord(page.data() + loc.offset, &stored, &flags, out);
  if (stored != id || !(flags & kLiveFlag)) {
    return Status::Corruption("directory/page mismatch for tuple " +
                              std::to_string(id));
  }
  return Status::OK();
}

Status Relation::Delete(TupleId id) {
  if (pager_->concurrent_reads_active()) {
    // Online serving is insert-only: a delete would mutate directory
    // entries readers consult lock-free.
    return Status::InvalidArgument("Delete during online appends");
  }
  if (id >= directory_.size() || !directory_[id].live) {
    return Status::NotFound("tuple " + std::to_string(id));
  }
  Location& loc = directory_[id];
  Result<PageRef> ref = pager_->Fetch(loc.page);
  if (!ref.ok()) return ref.status();
  ref.value().data()[loc.offset + 6] = 0;  // Clear the live flag.
  PageHeader h;
  ReadHeader(ref.value().data(), &h);
  --h.live_records;
  WriteHeader(ref.value().data(), h);
  ref.value().MarkDirty();
  loc.live = false;
  --live_count_;

  // Unlink and free a fully-dead page, unless it is the only page.
  if (h.live_records == 0 && !(loc.page == root_page_ && h.next == kInvalidPageId)) {
    PageId dead = loc.page;
    PageId prev = h.prev, next = h.next;
    ref.value().Release();
    if (prev != kInvalidPageId) {
      Result<PageRef> p = pager_->Fetch(prev);
      if (!p.ok()) return p.status();
      PageHeader ph;
      ReadHeader(p.value().data(), &ph);
      ph.next = next;
      WriteHeader(p.value().data(), ph);
      p.value().MarkDirty();
    } else {
      root_page_ = next;
    }
    if (next != kInvalidPageId) {
      Result<PageRef> n = pager_->Fetch(next);
      if (!n.ok()) return n.status();
      PageHeader nh;
      ReadHeader(n.value().data(), &nh);
      nh.prev = prev;
      WriteHeader(n.value().data(), nh);
      n.value().MarkDirty();
    } else {
      tail_page_ = prev;
    }
    CDB_RETURN_IF_ERROR(pager_->Free(dead));
  }
  if (bbox_enabled_) CDB_RETURN_IF_ERROR(ClearBoxSlot(id));
  return Status::OK();
}

Status Relation::BeginOnlineAppends(size_t max_inserts) {
  if (pager_->concurrent_reads_active()) {
    return Status::InvalidArgument(
        "BeginOnlineAppends after BeginConcurrentReads");
  }
  swmr_capacity_ = directory_.size() + max_inserts;
  directory_.reserve(swmr_capacity_);
  // The box mirror is indexed lock-free by readers just like the
  // directory, so it must never reallocate while they run.
  if (bbox_enabled_) bbox_cache_.reserve(swmr_capacity_);
  published_box_slots_.store(bbox_cache_.size(), std::memory_order_release);
  published_tuples_.store(directory_.size(), std::memory_order_release);
  return Status::OK();
}

size_t Relation::BoxSlotsPerPage() const {
  return (pager_->page_size() - kBoxHeaderSize) / kBoxRecordSize;
}

Status Relation::AppendBoxSlot(bool has_box, const Rect& box) {
  Result<PageRef> tail = pager_->Fetch(bbox_pages_.back());
  if (!tail.ok()) return tail.status();
  BoxPageHeader h;
  ReadBoxHeader(tail.value().data(), &h);
  if (h.count >= BoxSlotsPerPage()) {
    Result<PageId> fresh = pager_->Allocate();
    if (!fresh.ok()) return fresh.status();
    Result<PageRef> fresh_ref = pager_->Fetch(fresh.value());
    if (!fresh_ref.ok()) return fresh_ref.status();
    BoxPageHeader nh{kInvalidPageId, 0, 0};
    WriteBoxHeader(fresh_ref.value().data(), nh);
    fresh_ref.value().MarkDirty();
    h.next = fresh.value();
    WriteBoxHeader(tail.value().data(), h);
    tail.value().MarkDirty();
    bbox_pages_.push_back(fresh.value());
    tail = std::move(fresh_ref);
    h = nh;
  }
  SerializeBoxRecord(
      tail.value().data() + kBoxHeaderSize + h.count * kBoxRecordSize,
      has_box, box);
  ++h.count;
  WriteBoxHeader(tail.value().data(), h);
  tail.value().MarkDirty();
  bbox_cache_.push_back({has_box, box});
  return Status::OK();
}

Status Relation::ClearBoxSlot(TupleId id) {
  if (id >= bbox_cache_.size()) return Status::OK();
  bbox_cache_[id].has_box = false;
  const size_t per_page = BoxSlotsPerPage();
  Result<PageRef> ref = pager_->Fetch(bbox_pages_[id / per_page]);
  if (!ref.ok()) return ref.status();
  char* rec =
      ref.value().data() + kBoxHeaderSize + (id % per_page) * kBoxRecordSize;
  rec[0] = 0;
  ref.value().MarkDirty();
  return Status::OK();
}

Status Relation::EnableBoundingBoxCache() {
  if (bbox_enabled_) return Status::OK();
  if (pager_->concurrent_reads_active()) {
    // Readers index the mirror lock-free; building it under them would
    // race the backfill. Enable before serving starts.
    return Status::InvalidArgument(
        "EnableBoundingBoxCache during concurrent reads");
  }
  Result<PageId> root = pager_->Allocate();
  if (!root.ok()) return root.status();
  {
    Result<PageRef> ref = pager_->Fetch(root.value());
    if (!ref.ok()) return ref.status();
    BoxPageHeader h{kInvalidPageId, 0, 0};
    WriteBoxHeader(ref.value().data(), h);
    ref.value().MarkDirty();
  }
  bbox_root_ = root.value();
  bbox_pages_.assign(1, root.value());
  bbox_cache_.clear();
  // Cover a pending BeginOnlineAppends reservation too, so the mirror
  // never reallocates once single-writer serving starts.
  bbox_cache_.reserve(std::max(directory_.size(), swmr_capacity_));
  bbox_enabled_ = true;
  // Backfill one slot per existing directory entry; dead ids get empty
  // slots so the id-positional mapping holds.
  for (TupleId id = 0; id < directory_.size(); ++id) {
    Rect box;
    bool has_box = false;
    if (directory_[id].live) {
      GeneralizedTuple tuple;
      CDB_RETURN_IF_ERROR(Get(id, &tuple));
      has_box = tuple.GetBoundingRect(&box);
    }
    if (!has_box) box = Rect();
    CDB_RETURN_IF_ERROR(AppendBoxSlot(has_box, box));
  }
  return Status::OK();
}

Status Relation::LoadBoundingBoxCache(PageId bbox_root) {
  if (bbox_enabled_) {
    return Status::InvalidArgument("bounding-box cache already enabled");
  }
  if (pager_->concurrent_reads_active()) {
    return Status::InvalidArgument(
        "LoadBoundingBoxCache during concurrent reads");
  }
  if (bbox_root == kInvalidPageId) {
    return Status::InvalidArgument("invalid bounding-box sidecar root");
  }
  const size_t per_page = BoxSlotsPerPage();
  bbox_pages_.clear();
  bbox_cache_.clear();
  bbox_cache_.reserve(std::max(directory_.size(), swmr_capacity_));
  PageId page = bbox_root;
  while (page != kInvalidPageId) {
    Result<PageRef> ref = pager_->Fetch(page);
    if (!ref.ok()) return ref.status();
    BoxPageHeader h;
    ReadBoxHeader(ref.value().data(), &h);
    if (h.count > per_page) {
      return Status::Corruption("bbox sidecar slot count exceeds capacity");
    }
    if (h.next != kInvalidPageId && h.count != per_page) {
      // Slots are id-positional, so only the tail page may be partial.
      return Status::Corruption("partial non-tail bbox sidecar page");
    }
    bbox_pages_.push_back(page);
    for (uint16_t i = 0; i < h.count; ++i) {
      bool has_box;
      Rect box;
      DeserializeBoxRecord(
          ref.value().data() + kBoxHeaderSize + i * kBoxRecordSize, &has_box,
          &box);
      bbox_cache_.push_back({has_box, box});
    }
    page = h.next;
  }
  if (bbox_cache_.size() < directory_.size()) {
    return Status::Corruption("bbox sidecar shorter than relation directory");
  }
  bbox_root_ = bbox_root;
  bbox_enabled_ = true;
  if (bbox_cache_.size() > directory_.size()) {
    // Deletes freed whole trailing data pages before the last close, so the
    // directory shrank; truncate the sidecar so future appends land on the
    // right id-positional slot.
    const size_t keep = directory_.size();
    const size_t keep_pages = keep == 0 ? 1 : (keep + per_page - 1) / per_page;
    for (size_t i = keep_pages; i < bbox_pages_.size(); ++i) {
      CDB_RETURN_IF_ERROR(pager_->Free(bbox_pages_[i]));
    }
    Result<PageRef> tail = pager_->Fetch(bbox_pages_[keep_pages - 1]);
    if (!tail.ok()) return tail.status();
    BoxPageHeader h;
    ReadBoxHeader(tail.value().data(), &h);
    h.next = kInvalidPageId;
    h.count = static_cast<uint16_t>(keep - (keep_pages - 1) * per_page);
    WriteBoxHeader(tail.value().data(), h);
    tail.value().MarkDirty();
    bbox_pages_.resize(keep_pages);
    bbox_cache_.resize(keep);
  }
  return Status::OK();
}

bool Relation::CachedBoundingBox(TupleId id, Rect* out) const {
  if (!bbox_enabled_) return false;
  if (pager_->InSwmrReadContext()) {
    // Readers never consult bbox_cache_.size(): its vector bookkeeping is
    // the writer's to mutate mid-append. Ids at or past either published
    // bound — tuples appended after the last PublishAppends, or beyond the
    // sidecar's record range entirely — read as "no box" and take the full
    // refinement path; never an out-of-bounds read, never a stale accept.
    if (id >= published_tuples_.load(std::memory_order_acquire) ||
        id >= published_box_slots_.load(std::memory_order_acquire)) {
      return false;
    }
  } else if (id >= directory_.size() || id >= bbox_cache_.size()) {
    return false;
  }
  if (!directory_[id].live) return false;
  const BoxEntry& e = bbox_cache_[id];
  if (!e.has_box) return false;
  *out = e.box;
  return true;
}

Status Relation::VerifyBoundingBoxCache(
    const std::function<void(const std::string&)>& on_violation) const {
  if (!bbox_enabled_) {
    return Status::InvalidArgument("bounding-box cache not enabled");
  }
  const size_t per_page = BoxSlotsPerPage();
  PageId page = bbox_root_;
  size_t slot = 0;
  while (page != kInvalidPageId) {
    Result<PageRef> ref = pager_->Fetch(page);
    if (!ref.ok()) return ref.status();
    BoxPageHeader h;
    ReadBoxHeader(ref.value().data(), &h);
    if (h.count > per_page) {
      on_violation("bbox sidecar page " + std::to_string(page) +
                   " slot count exceeds capacity");
      return Status::OK();
    }
    if (h.next != kInvalidPageId && h.count != per_page) {
      on_violation("partial non-tail bbox sidecar page " +
                   std::to_string(page));
    }
    for (uint16_t i = 0; i < h.count; ++i, ++slot) {
      bool stored_has;
      Rect stored;
      DeserializeBoxRecord(
          ref.value().data() + kBoxHeaderSize + i * kBoxRecordSize,
          &stored_has, &stored);
      if (slot >= directory_.size()) {
        on_violation("bbox sidecar slot " + std::to_string(slot) +
                     " beyond relation directory");
        continue;
      }
      if (!directory_[slot].live) {
        if (stored_has) {
          on_violation("bbox sidecar slot " + std::to_string(slot) +
                       " claims a box for a dead tuple");
        }
        continue;
      }
      GeneralizedTuple tuple;
      CDB_RETURN_IF_ERROR(Get(static_cast<TupleId>(slot), &tuple));
      Rect want;
      bool want_has = tuple.GetBoundingRect(&want);
      // Both sides of the comparison run the same BoundingRect code, so a
      // healthy sidecar matches to the exact bit pattern.
      bool same = stored_has == want_has &&
                  (!want_has || (std::memcmp(&stored.xlo, &want.xlo, 8) == 0 &&
                                 std::memcmp(&stored.ylo, &want.ylo, 8) == 0 &&
                                 std::memcmp(&stored.xhi, &want.xhi, 8) == 0 &&
                                 std::memcmp(&stored.yhi, &want.yhi, 8) == 0));
      if (!same) {
        on_violation("stale bounding box for tuple " + std::to_string(slot));
      }
    }
    page = h.next;
  }
  if (slot != bbox_cache_.size()) {
    on_violation("bbox sidecar slot count disagrees with loaded mirror");
  }
  return Status::OK();
}

Status Relation::ForEach(
    const std::function<Status(TupleId, const GeneralizedTuple&)>& fn) const {
  for (TupleId id = 0; id < directory_.size(); ++id) {
    if (!directory_[id].live) continue;
    GeneralizedTuple tuple;
    CDB_RETURN_IF_ERROR(Get(id, &tuple));
    CDB_RETURN_IF_ERROR(fn(id, tuple));
  }
  return Status::OK();
}

}  // namespace cdb
