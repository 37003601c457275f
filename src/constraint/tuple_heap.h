// Tuple heap: the paged record store under Relation and RelationD.
//
// One self-describing record layout for every dimension:
//   id u32 | m u16 | flags u8 | m x (dim x f64 coefficient, c f64, cmp u8)
// so a 2-D tuple is the dim = 2 record (25 bytes per constraint). Records
// are appended to a doubly-linked chain of data pages; an in-memory
// id -> location directory, rebuilt by scanning the chain on Open, makes a
// tuple read one page access (the refinement charge of Figures 8-9) and
// keeps directory pages out of the Figure 10 space count. A page whose
// records are all dead is unlinked and freed, unless it is the sole root
// page, which the next Insert clears. The constraint bytes belong to the
// inline codecs of constraint/heap_relation.h: no per-record indirect call.

#ifndef CDB_CONSTRAINT_TUPLE_HEAP_H_
#define CDB_CONSTRAINT_TUPLE_HEAP_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "constraint/generalized_tuple.h"
#include "storage/pager.h"

namespace cdb {

/// See file comment.
class TupleHeap {
 public:
  /// `pager` must outlive the heap. Call Open() before anything else.
  TupleHeap(Pager* pager, size_t dim) : pager_(pager), dim_(dim) {}

  /// Calls fn(id, body, m) with a live record's constraint bytes.
  using RecordVisitor =
      std::function<void(TupleId, const char* body, uint16_t m)>;

  /// Creates a fresh chain when `root_page` is kInvalidPageId; otherwise
  /// scans the chain rooted there and rebuilds the directory, handing each
  /// live record to `on_live` (if set) during that one scan.
  Status Open(PageId root_page, const RecordVisitor& on_live = nullptr);

  /// First data page. Delete() can free the root page, so re-read this
  /// before persisting it.
  PageId root_page() const { return root_page_; }
  Pager* pager() const { return pager_; }
  size_t dim() const { return dim_; }

  /// Number of live records.
  uint64_t size() const { return live_count_; }

  /// Appends a record of `m` constraints and returns its id; encode(body)
  /// writes the m * (dim * 8 + 9) constraint bytes on the pinned page.
  template <typename Encode>
  Result<TupleId> Insert(size_t m, const Encode& encode) {
    PageRef page;
    char* body = nullptr;
    Result<TupleId> id = Append(m, &page, &body);
    if (id.ok()) encode(body);
    return id;
  }

  /// Resolves `id` to its data page without I/O (bound and live checks).
  Status LocateTuple(TupleId id, PageId* page) const;

  /// Points `*body` at tuple `id`'s constraint bytes on `page`, the pinned
  /// page LocateTuple resolved; Corruption if the record there is not it.
  Status Record(const PageRef& page, TupleId id, const char** body,
                uint16_t* m) const {
    const char* rec = page.data() + directory_[id].offset;
    TupleId stored = 0;
    std::memcpy(&stored, rec, 4);
    std::memcpy(m, rec + 4, 2);
    if (stored != id || !(rec[kFlagsOffset] & kLiveFlag)) {
      return Status::Corruption("directory/page mismatch for tuple " +
                                std::to_string(id));
    }
    *body = rec + kRecordFixed;
    return Status::OK();
  }

  /// Tombstones record `id`, freeing its page with the last live record.
  /// Rejected during concurrent reads (readers use the directory lock-free).
  Status Delete(TupleId id);

  /// One past the highest id handed out (dead ids included).
  size_t id_bound() const { return directory_.size(); }

  /// True when `id` is below the caller's visible bound and live.
  bool Visible(TupleId id) const {
    // A single-writer-mode reader sees only published records: unpublished
    // ones reference pages the pager would refuse anyway.
    const uint64_t bound = pager_->InSwmrReadContext()
                               ? published_.load(std::memory_order_acquire)
                               : directory_.size();
    return id < bound && directory_[id].live;
  }

  /// See Relation::BeginOnlineAppends and Relation::PublishAppends.
  Status BeginOnlineAppends(size_t max_inserts);
  size_t online_capacity() const { return swmr_capacity_; }
  void PublishAppends() {
    published_.store(directory_.size(), std::memory_order_release);
  }

  /// Walks the chain once and reports every broken prev/next link, `used`
  /// that is not the end of the page's records, `live_records` that is not
  /// its live-flag count, dead page other than a sole root, and live
  /// directory entry not on its record. Non-OK only for I/O failures.
  Status Verify(
      const std::function<void(const std::string&)>& on_violation) const;

 private:
  static constexpr size_t kRecordFixed = 7;  // id u32 | m u16 | flags u8.
  static constexpr size_t kFlagsOffset = 6;
  static constexpr uint8_t kLiveFlag = 1;

  struct Location {
    PageId page = kInvalidPageId;
    uint16_t offset = 0;
    bool live = false;
  };

  /// Writes a live record's prefix at the tail, leaving the page pinned in
  /// `*page` and `*body` at its constraint bytes.
  Result<TupleId> Append(size_t m, PageRef* page, char** body);
  /// Allocates a data page with an empty header linked after `prev`.
  Result<PageRef> NewPage(PageId prev);
  Status RebuildDirectory(const RecordVisitor& on_live);
  /// fn(offset, id, live) for each whole record below `used`; returns where
  /// the records end (`used` on a sound page).
  template <typename Fn>
  size_t ScanRecords(const char* page, size_t used, const Fn& fn) const;
  size_t RecordLength(size_t m) const {
    return kRecordFixed + m * (dim_ * 8 + 9);
  }

  Pager* pager_;
  size_t dim_;
  PageId root_page_ = kInvalidPageId;
  PageId tail_page_ = kInvalidPageId;
  std::vector<Location> directory_;  // Indexed by TupleId.
  uint64_t live_count_ = 0;

  // Single-writer-mode readers bound-check ids against published_, never
  // directory_.size(), which the writer's push_back mutates.
  size_t swmr_capacity_ = 0;
  std::atomic<uint64_t> published_{0};
};

}  // namespace cdb

#endif  // CDB_CONSTRAINT_TUPLE_HEAP_H_
