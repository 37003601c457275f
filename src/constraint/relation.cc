#include "constraint/relation.h"

#include <algorithm>
#include <cstring>
#include <functional>

namespace cdb {

namespace {

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
  CDB_RETURN_IF_ERROR(rel->heap_.Open(root_page));
  *out = std::move(rel);
  return Status::OK();
}

Result<TupleId> Relation::Insert(const GeneralizedTuple& tuple) {
  CDB_RETURN_IF_ERROR(ValidateTuple(tuple));
  Result<TupleId> id = Append(tuple);
  if (!id.ok() || !bbox_enabled_) return id;
  CDB_RETURN_IF_ERROR(AppendBoxSlot(&tuple));
  return id;
}

Status Relation::Delete(TupleId id) {
  CDB_RETURN_IF_ERROR(heap_.Delete(id));
  return bbox_enabled_ ? ClearBoxSlot(id) : Status::OK();
}

Status Relation::BeginOnlineAppends(size_t max_inserts) {
  CDB_RETURN_IF_ERROR(heap_.BeginOnlineAppends(max_inserts));
  // The box mirror is indexed lock-free by readers just like the
  // directory, so it must never reallocate while they run.
  if (bbox_enabled_) bbox_cache_.reserve(heap_.online_capacity());
  published_box_slots_.store(bbox_cache_.size(), std::memory_order_release);
  return Status::OK();
}

size_t Relation::BoxSlotsPerPage() const {
  return (pager()->page_size() - kBoxHeaderSize) / kBoxRecordSize;
}

Result<PageRef> Relation::NewBoxPage() {
  Result<PageId> id = pager()->Allocate();
  if (!id.ok()) return id.status();
  Result<PageRef> ref = pager()->Fetch(id.value());
  if (!ref.ok()) return ref.status();
  WriteBoxHeader(ref.value().data(), {kInvalidPageId, 0, 0});
  ref.value().MarkDirty();
  bbox_pages_.push_back(id.value());
  return ref;
}

Status Relation::AppendBoxSlot(const GeneralizedTuple* tuple) {
  Rect box;
  const bool has_box = tuple != nullptr && tuple->GetBoundingRect(&box);
  if (!has_box) box = Rect();
  Result<PageRef> tail = pager()->Fetch(bbox_pages_.back());
  if (!tail.ok()) return tail.status();
  BoxPageHeader h;
  ReadBoxHeader(tail.value().data(), &h);
  if (h.count >= BoxSlotsPerPage()) {
    Result<PageRef> fresh = NewBoxPage();
    if (!fresh.ok()) return fresh.status();
    h.next = fresh.value().id();
    WriteBoxHeader(tail.value().data(), h);
    tail.value().MarkDirty();
    tail = std::move(fresh);
    h = {kInvalidPageId, 0, 0};
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
  Result<PageRef> ref = pager()->Fetch(bbox_pages_[id / per_page]);
  if (!ref.ok()) return ref.status();
  char* rec =
      ref.value().data() + kBoxHeaderSize + (id % per_page) * kBoxRecordSize;
  rec[0] = 0;
  ref.value().MarkDirty();
  return Status::OK();
}

Status Relation::EnableBoundingBoxCache() {
  if (bbox_enabled_) return Status::OK();
  if (pager()->concurrent_reads_active()) {
    // Readers index the mirror lock-free; building it under them would
    // race the backfill. Enable before serving starts.
    return Status::InvalidArgument(
        "EnableBoundingBoxCache during concurrent reads");
  }
  bbox_pages_.clear();
  Result<PageRef> root = NewBoxPage();
  if (!root.ok()) return root.status();
  bbox_root_ = root.value().id();
  root.value().Release();
  bbox_cache_.clear();
  // Cover a pending BeginOnlineAppends reservation too, so the mirror
  // never reallocates once single-writer serving starts.
  bbox_cache_.reserve(std::max(heap_.id_bound(), heap_.online_capacity()));
  bbox_enabled_ = true;
  // Backfill one slot per existing directory entry; dead ids get empty
  // slots so the id-positional mapping holds.
  for (TupleId id = 0; id < heap_.id_bound(); ++id) {
    GeneralizedTuple tuple;
    const bool live = heap_.Visible(id);
    if (live) CDB_RETURN_IF_ERROR(Get(id, &tuple));
    CDB_RETURN_IF_ERROR(AppendBoxSlot(live ? &tuple : nullptr));
  }
  return Status::OK();
}

Status Relation::ReadBoxChain(
    PageId root, std::vector<PageId>* pages, std::vector<BoxEntry>* slots,
    const std::function<void(const std::string&)>& on_violation) const {
  const size_t per_page = BoxSlotsPerPage();
  for (PageId page = root; page != kInvalidPageId;) {
    Result<PageRef> ref = pager()->Fetch(page);
    if (!ref.ok()) return ref.status();
    BoxPageHeader h;
    ReadBoxHeader(ref.value().data(), &h);
    if (h.count > per_page) {
      return Status::Corruption("bbox sidecar page " + std::to_string(page) +
                                " slot count exceeds capacity");
    }
    if (h.next != kInvalidPageId && h.count != per_page) {
      // Slots are id-positional, so only the tail page may be partial.
      on_violation("partial non-tail bbox sidecar page " +
                   std::to_string(page));
    }
    pages->push_back(page);
    for (uint16_t i = 0; i < h.count; ++i) {
      BoxEntry e;
      DeserializeBoxRecord(
          ref.value().data() + kBoxHeaderSize + i * kBoxRecordSize,
          &e.has_box, &e.box);
      slots->push_back(e);
    }
    page = h.next;
  }
  return Status::OK();
}

Status Relation::LoadBoundingBoxCache(PageId bbox_root) {
  if (bbox_enabled_) {
    return Status::InvalidArgument("bounding-box cache already enabled");
  }
  if (pager()->concurrent_reads_active()) {
    return Status::InvalidArgument(
        "LoadBoundingBoxCache during concurrent reads");
  }
  if (bbox_root == kInvalidPageId) {
    return Status::InvalidArgument("invalid bounding-box sidecar root");
  }
  const size_t per_page = BoxSlotsPerPage();
  bbox_pages_.clear();
  bbox_cache_.clear();
  bbox_cache_.reserve(std::max(heap_.id_bound(), heap_.online_capacity()));
  std::string damage;
  CDB_RETURN_IF_ERROR(ReadBoxChain(
      bbox_root, &bbox_pages_, &bbox_cache_,
      [&damage](const std::string& v) { damage = v; }));
  if (!damage.empty()) return Status::Corruption(damage);
  if (bbox_cache_.size() < heap_.id_bound()) {
    return Status::Corruption("bbox sidecar shorter than relation directory");
  }
  bbox_root_ = bbox_root;
  bbox_enabled_ = true;
  if (bbox_cache_.size() > heap_.id_bound()) {
    // Deletes freed whole trailing data pages before the last close, so the
    // directory shrank; truncate the sidecar so future appends land on the
    // right id-positional slot.
    const size_t keep = heap_.id_bound();
    const size_t keep_pages = keep == 0 ? 1 : (keep + per_page - 1) / per_page;
    for (size_t i = keep_pages; i < bbox_pages_.size(); ++i) {
      CDB_RETURN_IF_ERROR(pager()->Free(bbox_pages_[i]));
    }
    Result<PageRef> tail = pager()->Fetch(bbox_pages_[keep_pages - 1]);
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
  // Single-writer-mode readers never consult bbox_cache_.size(), which the
  // writer mutates mid-append: ids past the published bounds read as
  // "no box" and take the full refinement path.
  const uint64_t slots =
      pager()->InSwmrReadContext()
          ? published_box_slots_.load(std::memory_order_acquire)
          : bbox_cache_.size();
  if (id >= slots || !heap_.Visible(id)) return false;
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
  std::vector<PageId> pages;
  std::vector<BoxEntry> slots;
  Status read = ReadBoxChain(bbox_root_, &pages, &slots, on_violation);
  if (read.IsCorruption()) {
    on_violation(read.message());
    return Status::OK();
  }
  CDB_RETURN_IF_ERROR(read);
  for (size_t slot = 0; slot < slots.size(); ++slot) {
    const auto& [stored_has, stored] = slots[slot];
    if (slot >= heap_.id_bound()) {
      on_violation("bbox sidecar slot " + std::to_string(slot) +
                   " beyond relation directory");
      continue;
    }
    if (!heap_.Visible(static_cast<TupleId>(slot))) {
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
  if (slots.size() != bbox_cache_.size()) {
    on_violation("bbox sidecar slot count disagrees with loaded mirror");
  }
  return Status::OK();
}

}  // namespace cdb
