#include "constraint/relation_d.h"

#include <cstring>

namespace cdb {

namespace {

struct PageHeader {
  PageId next;
  PageId prev;
  uint16_t used;
  uint16_t live_records;
};

constexpr size_t kHeaderSize = sizeof(PageHeader);
constexpr uint8_t kLiveFlag = 1;

// Record: id u32 | m u16 | flags u8 | per-constraint: dim*f64 + f64 + u8.
constexpr size_t kRecordFixed = 7;

size_t PerConstraint(size_t dim) { return dim * 8 + 8 + 1; }
size_t RecordLength(size_t dim, size_t m) {
  return kRecordFixed + m * PerConstraint(dim);
}

void ReadHeader(const char* p, PageHeader* h) { std::memcpy(h, p, sizeof(*h)); }
void WriteHeader(char* p, const PageHeader& h) {
  std::memcpy(p, &h, sizeof(h));
}

void SerializeRecord(char* dst, TupleId id, const GeneralizedTupleD& tuple,
                     uint8_t flags) {
  uint16_t m = static_cast<uint16_t>(tuple.constraints().size());
  std::memcpy(dst, &id, 4);
  std::memcpy(dst + 4, &m, 2);
  dst[6] = static_cast<char>(flags);
  char* p = dst + kRecordFixed;
  for (const ConstraintD& c : tuple.constraints()) {
    for (double coeff : c.a) {
      std::memcpy(p, &coeff, 8);
      p += 8;
    }
    std::memcpy(p, &c.c, 8);
    p += 8;
    *p++ = static_cast<char>(c.cmp == Cmp::kLE ? 0 : 1);
  }
}

void DeserializeRecord(const char* src, size_t dim, TupleId* id,
                       uint8_t* flags, GeneralizedTupleD* tuple) {
  uint16_t m;
  std::memcpy(id, src, 4);
  std::memcpy(&m, src + 4, 2);
  *flags = static_cast<uint8_t>(src[6]);
  std::vector<ConstraintD> cons;
  cons.reserve(m);
  const char* p = src + kRecordFixed;
  for (uint16_t i = 0; i < m; ++i) {
    ConstraintD c;
    c.a.resize(dim);
    for (size_t t = 0; t < dim; ++t) {
      std::memcpy(&c.a[t], p, 8);
      p += 8;
    }
    std::memcpy(&c.c, p, 8);
    p += 8;
    c.cmp = *p++ == 0 ? Cmp::kLE : Cmp::kGE;
    cons.push_back(std::move(c));
  }
  *tuple = GeneralizedTupleD(dim, std::move(cons));
}

}  // namespace

Status RelationD::Open(Pager* pager, size_t dim, PageId root_page,
                       std::unique_ptr<RelationD>* out) {
  if (dim < 2) return Status::InvalidArgument("dimension must be >= 2");
  std::unique_ptr<RelationD> rel(new RelationD(pager, dim));
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

Status RelationD::RebuildDirectory() {
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
      std::memcpy(&id, rec, 4);
      uint16_t m;
      std::memcpy(&m, rec + 4, 2);
      uint8_t flags = static_cast<uint8_t>(rec[6]);
      if (directory_.size() <= id) directory_.resize(id + 1);
      directory_[id] = {page, static_cast<uint16_t>(off),
                        (flags & kLiveFlag) != 0};
      if (flags & kLiveFlag) ++live_count_;
      off += RecordLength(dim_, m);
    }
    prev = page;
    page = h.next;
  }
  tail_page_ = prev == kInvalidPageId ? root_page_ : prev;
  return Status::OK();
}

Result<TupleId> RelationD::Insert(const GeneralizedTupleD& tuple) {
  if (tuple.dim() != dim_) {
    return Status::InvalidArgument("tuple dimension mismatch");
  }
  CDB_RETURN_IF_ERROR(ValidateTuple(tuple));
  size_t len = RecordLength(dim_, tuple.constraints().size());
  if (len + kHeaderSize > pager_->page_size()) {
    return Status::InvalidArgument("tuple too large for a page");
  }
  TupleId id = static_cast<TupleId>(directory_.size());

  Result<PageRef> tail = pager_->Fetch(tail_page_);
  if (!tail.ok()) return tail.status();
  PageHeader h;
  ReadHeader(tail.value().data(), &h);

  if (h.used + len > pager_->page_size()) {
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
  return id;
}

Status RelationD::Get(TupleId id, GeneralizedTupleD* out) const {
  if (id >= directory_.size() || !directory_[id].live) {
    return Status::NotFound("tuple " + std::to_string(id));
  }
  const Location& loc = directory_[id];
  Result<PageRef> ref = pager_->Fetch(loc.page);
  if (!ref.ok()) return ref.status();
  TupleId stored;
  uint8_t flags;
  DeserializeRecord(ref.value().data() + loc.offset, dim_, &stored, &flags,
                    out);
  if (stored != id || !(flags & kLiveFlag)) {
    return Status::Corruption("directory/page mismatch for tuple " +
                              std::to_string(id));
  }
  return Status::OK();
}

Status RelationD::LocateTuple(TupleId id, PageId* page) const {
  if (id >= directory_.size() || !directory_[id].live) {
    return Status::NotFound("tuple " + std::to_string(id));
  }
  *page = directory_[id].page;
  return Status::OK();
}

Status RelationD::GetFromPage(const PageRef& page, TupleId id,
                              GeneralizedTupleD* out) const {
  const Location& loc = directory_[id];
  TupleId stored;
  uint8_t flags;
  DeserializeRecord(page.data() + loc.offset, dim_, &stored, &flags, out);
  if (stored != id || !(flags & kLiveFlag)) {
    return Status::Corruption("directory/page mismatch for tuple " +
                              std::to_string(id));
  }
  return Status::OK();
}

Status RelationD::Delete(TupleId id) {
  if (id >= directory_.size() || !directory_[id].live) {
    return Status::NotFound("tuple " + std::to_string(id));
  }
  Location& loc = directory_[id];
  Result<PageRef> ref = pager_->Fetch(loc.page);
  if (!ref.ok()) return ref.status();
  ref.value().data()[loc.offset + 6] = 0;
  PageHeader h;
  ReadHeader(ref.value().data(), &h);
  --h.live_records;
  WriteHeader(ref.value().data(), h);
  ref.value().MarkDirty();
  loc.live = false;
  --live_count_;
  return Status::OK();
}

Status RelationD::ForEach(
    const std::function<Status(TupleId, const GeneralizedTupleD&)>& fn)
    const {
  for (TupleId id = 0; id < directory_.size(); ++id) {
    if (!directory_[id].live) continue;
    GeneralizedTupleD tuple;
    CDB_RETURN_IF_ERROR(Get(id, &tuple));
    CDB_RETURN_IF_ERROR(fn(id, tuple));
  }
  return Status::OK();
}

}  // namespace cdb
