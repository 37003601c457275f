#include "constraint/tuple_heap.h"

#include <algorithm>
#include <cstring>

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

void ReadHeader(const char* page, PageHeader* h) {
  std::memcpy(h, page, sizeof(*h));
}
void WriteHeader(char* page, const PageHeader& h) {
  std::memcpy(page, &h, sizeof(h));
}

// The record prefix: id u32 | m u16 | flags u8.
void ReadPrefix(const char* rec, TupleId* id, uint16_t* m, uint8_t* flags) {
  std::memcpy(id, rec, 4);
  std::memcpy(m, rec + 4, 2);
  *flags = static_cast<uint8_t>(rec[6]);
}

}  // namespace

Status TupleHeap::Open(PageId root_page) {
  if (root_page != kInvalidPageId) {
    root_page_ = root_page;
    return RebuildDirectory();
  }
  Result<PageRef> root = NewPage(kInvalidPageId);
  if (!root.ok()) return root.status();
  root_page_ = tail_page_ = root.value().id();
  return Status::OK();
}

Result<PageRef> TupleHeap::NewPage(PageId prev) {
  Result<PageId> id = pager_->Allocate();
  if (!id.ok()) return id.status();
  Result<PageRef> ref = pager_->Fetch(id.value());
  if (!ref.ok()) return ref.status();
  WriteHeader(ref.value().data(),
              {kInvalidPageId, prev, static_cast<uint16_t>(kHeaderSize), 0});
  ref.value().MarkDirty();
  return ref;
}

template <typename Fn>
size_t TupleHeap::ScanRecords(const char* page, size_t used,
                              const Fn& fn) const {
  size_t off = kHeaderSize;
  while (off + kRecordFixed <= used) {
    TupleId id = 0;
    uint16_t m = 0;
    uint8_t flags = 0;
    ReadPrefix(page + off, &id, &m, &flags);
    if (off + RecordLength(m) > used) break;
    fn(off, id, (flags & kLiveFlag) != 0);
    off += RecordLength(m);
  }
  return off;
}

Status TupleHeap::RebuildDirectory() {
  PageId page = root_page_;
  while (page != kInvalidPageId) {
    Result<PageRef> ref = pager_->Fetch(page);
    if (!ref.ok()) return ref.status();
    PageHeader h{};
    ReadHeader(ref.value().data(), &h);
    ScanRecords(ref.value().data(), h.used,
                [&](size_t off, TupleId id, bool live) {
                  if (directory_.size() <= id) directory_.resize(id + 1);
                  directory_[id] = {page, static_cast<uint16_t>(off), live};
                  live_count_ += live;
                });
    tail_page_ = page;
    page = h.next;
  }
  return Status::OK();
}

Result<TupleId> TupleHeap::Append(size_t m, PageRef* page, char** body) {
  if (pager_->concurrent_reads_active() &&
      directory_.size() >= swmr_capacity_) {
    return Status::InvalidArgument(
        "online append capacity exhausted (BeginOnlineAppends reservation)");
  }
  const size_t len = RecordLength(m);
  if (len + kHeaderSize > pager_->page_size()) {
    return Status::InvalidArgument("tuple too large for a page");
  }
  const TupleId id = static_cast<TupleId>(directory_.size());

  Result<PageRef> tail = pager_->Fetch(tail_page_);
  if (!tail.ok()) return tail.status();
  PageHeader h{};
  ReadHeader(tail.value().data(), &h);
  // Only a sole root page can be fully dead (Delete frees any other); its
  // dead records are garbage, so start the page over.
  if (h.live_records == 0) h.used = static_cast<uint16_t>(kHeaderSize);
  if (h.used + len > pager_->page_size()) {
    Result<PageRef> fresh = NewPage(tail_page_);
    if (!fresh.ok()) return fresh.status();
    h.next = fresh.value().id();
    WriteHeader(tail.value().data(), h);
    tail.value().MarkDirty();
    tail_page_ = h.next;
    tail = std::move(fresh);
    ReadHeader(tail.value().data(), &h);
  }

  char* rec = tail.value().data() + h.used;
  const uint16_t m16 = static_cast<uint16_t>(m);
  std::memcpy(rec, &id, 4);
  std::memcpy(rec + 4, &m16, 2);
  rec[kFlagsOffset] = static_cast<char>(kLiveFlag);
  directory_.push_back({tail_page_, h.used, true});
  h.used = static_cast<uint16_t>(h.used + len);
  ++h.live_records;
  WriteHeader(tail.value().data(), h);
  tail.value().MarkDirty();
  ++live_count_;
  *body = rec + kRecordFixed;
  *page = std::move(tail.value());
  return id;
}

Status TupleHeap::LocateTuple(TupleId id, PageId* page) const {
  if (!Visible(id)) return Status::NotFound("tuple " + std::to_string(id));
  *page = directory_[id].page;
  return Status::OK();
}

Status TupleHeap::Delete(TupleId id) {
  if (pager_->concurrent_reads_active()) {
    return Status::InvalidArgument("Delete during online appends");
  }
  if (id >= directory_.size() || !directory_[id].live) {
    return Status::NotFound("tuple " + std::to_string(id));
  }
  Location& loc = directory_[id];
  Result<PageRef> ref = pager_->Fetch(loc.page);
  if (!ref.ok()) return ref.status();
  ref.value().data()[loc.offset + kFlagsOffset] = 0;  // Clear the live flag.
  PageHeader h{};
  ReadHeader(ref.value().data(), &h);
  --h.live_records;
  WriteHeader(ref.value().data(), h);
  ref.value().MarkDirty();
  loc.live = false;
  --live_count_;
  if (h.live_records != 0 ||
      (loc.page == root_page_ && h.next == kInvalidPageId)) {
    return Status::OK();
  }
  // Unlink the dead page from its neighbours and free it.
  ref.value().Release();
  auto relink = [this](PageId page, bool next_link, PageId to) -> Status {
    Result<PageRef> n = pager_->Fetch(page);
    if (!n.ok()) return n.status();
    PageHeader nh{};
    ReadHeader(n.value().data(), &nh);
    (next_link ? nh.next : nh.prev) = to;
    WriteHeader(n.value().data(), nh);
    n.value().MarkDirty();
    return Status::OK();
  };
  if (h.prev != kInvalidPageId) {
    CDB_RETURN_IF_ERROR(relink(h.prev, /*next_link=*/true, h.next));
  } else {
    root_page_ = h.next;
  }
  if (h.next != kInvalidPageId) {
    CDB_RETURN_IF_ERROR(relink(h.next, /*next_link=*/false, h.prev));
  } else {
    tail_page_ = h.prev;
  }
  return pager_->Free(loc.page);
}

Status TupleHeap::BeginOnlineAppends(size_t max_inserts) {
  if (pager_->concurrent_reads_active()) {
    return Status::InvalidArgument(
        "BeginOnlineAppends after BeginConcurrentReads");
  }
  swmr_capacity_ = directory_.size() + max_inserts;
  directory_.reserve(swmr_capacity_);
  PublishAppends();
  return Status::OK();
}

Status TupleHeap::Verify(
    const std::function<void(const std::string&)>& on_violation) const {
  auto report = [&](PageId page, const std::string& what) {
    on_violation("heap page " + std::to_string(page) + " " + what);
  };
  std::vector<bool> matched(directory_.size(), false);
  PageId page = root_page_;
  PageId prev = kInvalidPageId;
  for (uint64_t steps = 0; page != kInvalidPageId; ++steps) {
    if (steps == pager_->file_page_count()) {
      report(page, "is on a cycle in the chain");
      return Status::OK();
    }
    Result<PageRef> ref = pager_->Fetch(page);
    if (ref.status().IsCorruption()) {
      report(page, ref.status().ToString());
      return Status::OK();
    }
    if (!ref.ok()) return ref.status();
    PageHeader h{};
    ReadHeader(ref.value().data(), &h);
    if (h.prev != prev) {
      report(page, "prev " + std::to_string(h.prev) + " != " +
                       std::to_string(prev));
    }
    uint16_t live = 0;
    const size_t end = ScanRecords(
        ref.value().data(), std::min<size_t>(h.used, pager_->page_size()),
        [&](size_t off, TupleId id, bool is_live) {
          if (!is_live) return;
          ++live;
          if (id < directory_.size() && directory_[id].live &&
              directory_[id].page == page && directory_[id].offset == off) {
            matched[id] = true;
          } else {
            report(page, "live record " + std::to_string(id) +
                             " is not in the directory");
          }
        });
    if (end != h.used) {
      report(page, "used " + std::to_string(h.used) + " but records end at " +
                       std::to_string(end));
    }
    if (h.live_records != live) {
      report(page, "live_records " + std::to_string(h.live_records) +
                       " but " + std::to_string(live) + " live flags");
    }
    if (live == 0 && !(page == root_page_ && h.next == kInvalidPageId)) {
      report(page, "holds no live record but stays linked");
    }
    prev = page;
    page = h.next;
  }
  for (TupleId id = 0; id < directory_.size(); ++id) {
    if (directory_[id].live && !matched[id]) {
      on_violation("directory entry of tuple " + std::to_string(id) +
                   " does not point at its record");
    }
  }
  return Status::OK();
}

}  // namespace cdb
