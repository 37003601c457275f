// Generalized relation: a persistent, paged store of 2-D generalized tuples.
//
// Tuples live in a TupleHeap (constraint/tuple_heap.h) as dim = 2 records,
// read through HeapRelation. This class adds two things:
//  - the V-representation mirror (constraint/shape_mirror.h): every tuple's
//    Polyhedron2D, built at Insert and by the one chain scan of Open, so
//    keys, assignments and refinement decisions read TOP/BOT in O(v)
//    without decoding a tuple;
//  - the persisted bounding-box sidecar, whose boxes derive from the mirror.
// Every Get() costs one page fetch, which is how the benchmark harness
// charges the refinement step of the approximation techniques.

#ifndef CDB_CONSTRAINT_RELATION_H_
#define CDB_CONSTRAINT_RELATION_H_

#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "constraint/generalized_tuple.h"
#include "constraint/heap_relation.h"
#include "constraint/shape_mirror.h"
#include "geometry/polyhedron2d.h"
#include "geometry/rect.h"
#include "storage/pager.h"

namespace cdb {

/// See file comment.
class Relation : public HeapRelation<GeneralizedTuple> {
 public:
  /// Opens a relation stored in `pager` (which the caller owns and must keep
  /// alive). `root_page` is the first data page of an existing relation, or
  /// kInvalidPageId to create a new one. Opening an existing relation builds
  /// the V-representation mirror during the directory scan.
  static Status Open(Pager* pager, PageId root_page,
                     std::unique_ptr<Relation>* out);

  /// Appends a tuple and returns its id. The tuple must have at least one
  /// constraint and fit a page (constraint count is bounded by the page
  /// size; ~40 constraints at 1 KiB pages — generalized tuples in the paper
  /// have 3-6).
  Result<TupleId> Insert(const GeneralizedTuple& tuple);

  /// The V-representation of tuple `id` from the in-memory mirror: true
  /// when `id` is visible and live. Never touches the pager. Views stay
  /// valid until the relation is destroyed.
  bool Shape(TupleId id, Polyhedron2DView* out) const;

  /// Calls fn(id, shape) for every live tuple in id order, without I/O.
  /// Stops and propagates the first non-OK status returned by fn.
  Status ForEachShape(
      const std::function<Status(TupleId, const Polyhedron2DView&)>& fn)
      const;

  // --- Bounding-box sidecar (ISSUE 8c) ---------------------------------
  //
  // A per-relation page chain caching each tuple's AABB (or "unbounded")
  // so refinement can decide box-provable candidates without fetching the
  // tuple at all. Slots are id-positional; records are written at Insert
  // and tombstoned at Delete. The per-candidate lookup derives the box from
  // the V-representation mirror, free of I/O; the persisted chain keeps its
  // format so existing databases reopen unchanged, and tools/cdb_check
  // verifies it against the boxes the mirror derives.

  /// Creates the sidecar for this relation and backfills one slot per
  /// existing directory entry. Idempotent once enabled.
  Status EnableBoundingBoxCache();

  /// Attaches an existing sidecar rooted at `bbox_root`. The
  /// persisted slot count must cover every directory entry (shorter =
  /// Corruption); trailing slots beyond the directory — left behind when
  /// deletes freed whole trailing data pages before a reopen — are
  /// truncated so the id-positional mapping survives future appends.
  Status LoadBoundingBoxCache(PageId bbox_root);

  /// First sidecar page; persist it (catalog) to reload the cache later.
  PageId bbox_root() const { return bbox_root_; }

  bool bbox_cache_enabled() const { return bbox_enabled_; }

  /// True when the sidecar is enabled and tuple `id` is visible, live, and
  /// bounded; its box, derived from the mirror, is copied to `out`. Pure
  /// in-memory lookup — never touches the pager. Unbounded tuples (no finite
  /// AABB) return false and take the full refinement path.
  bool CachedBoundingBox(TupleId id, Rect* out) const;

  /// Re-reads the persisted sidecar and checks, for every live tuple, that
  /// the stored slot matches the box derived from the mirror (exact bit
  /// equality — both sides run the same support arithmetic).
  /// Every mismatch is reported through `on_violation`; the return status
  /// is non-OK only for I/O failures.
  Status VerifyBoundingBoxCache(
      const std::function<void(const std::string&)>& on_violation) const;

  /// Tombstones tuple `id` and clears its mirror entry; its page is freed
  /// with its last live record.
  Status Delete(TupleId id);

  /// Prepares insert-only online appends under the pager's single-writer
  /// mode: reserves directory capacity for `max_inserts` new tuples (readers
  /// index it lock-free, so it must never reallocate) and publishes the
  /// current count. Call before Pager::BeginConcurrentReads(true); in that
  /// mode Insert fails once the reservation is spent and Delete is rejected.
  Status BeginOnlineAppends(size_t max_inserts);

  /// Makes every tuple appended so far, and its mirror entry, visible to
  /// single-writer-mode readers. Call after the pager's Flush() published
  /// their pages. The mirror bound is published first, so an id a reader
  /// finds in the heap always has its shape.
  void PublishAppends() {
    published_shapes_.store(mirror_.size(), std::memory_order_release);
    heap_.PublishAppends();
  }

 private:
  /// One persisted sidecar slot.
  struct BoxEntry {
    bool has_box = false;
    Rect box;
  };

  explicit Relation(Pager* pager) : HeapRelation(pager, 2) {}

  /// Allocates an empty sidecar page and appends it to bbox_pages_.
  Result<PageRef> NewBoxPage();
  /// Appends one persisted sidecar slot for the tuple whose id equals the
  /// current slot count: its mirror box, or "no box" when it has none.
  Status AppendBoxSlot(TupleId id);
  /// Tombstones the persisted sidecar slot for `id`.
  Status ClearBoxSlot(TupleId id);
  size_t BoxSlotsPerPage() const;
  /// Reads the sidecar chain from `root` into `pages` and `slots`. A
  /// partial non-tail page goes to `on_violation`; an over-full page is
  /// Corruption.
  Status ReadBoxChain(
      PageId root, std::vector<PageId>* pages, std::vector<BoxEntry>* slots,
      const std::function<void(const std::string&)>& on_violation) const;

  ShapeMirror mirror_;  // Indexed by TupleId.

  // Published bound on mirror_ — single-writer-mode readers bound-check
  // shape lookups against this (acquire) instead of mirror_.size(), whose
  // vector bookkeeping the writer's appends mutate.
  std::atomic<uint64_t> published_shapes_{0};

  // Bounding-box sidecar state (all empty until Enable/Load).
  bool bbox_enabled_ = false;
  PageId bbox_root_ = kInvalidPageId;
  std::vector<PageId> bbox_pages_;  // Chain in order, for O(1) id -> page.
  size_t box_slots_ = 0;            // Persisted slot count.
};

}  // namespace cdb

#endif  // CDB_CONSTRAINT_RELATION_H_
