// Generalized relation: a persistent, paged store of 2-D generalized tuples.
//
// Tuples live in a TupleHeap (constraint/tuple_heap.h) as dim = 2 records,
// read through HeapRelation. This class adds the V-representation mirror
// (constraint/shape_mirror.h): every tuple's Polyhedron2D, built at Insert
// and by the one chain scan of Open, so keys, assignments, bounding boxes
// and refinement decisions read TOP/BOT in O(v) without decoding a tuple.
// Every Get() costs one page fetch, which is how the benchmark harness
// charges the refinement step of the approximation techniques.

#ifndef CDB_CONSTRAINT_RELATION_H_
#define CDB_CONSTRAINT_RELATION_H_

#include <functional>
#include <memory>

#include "common/result.h"
#include "common/status.h"
#include "constraint/generalized_tuple.h"
#include "constraint/heap_relation.h"
#include "constraint/shape_mirror.h"
#include "geometry/polyhedron2d.h"
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

  /// No-op. Refinement derives every tuple's bounding box from the mirror,
  /// so there is no longer a persisted box sidecar to enable. The last
  /// caller is perfbench's fixture; remove both together.
  Status EnableBoundingBoxCache() { return Status::OK(); }

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
  /// their pages. Insert stores each mirror entry before this release
  /// store, so an id a reader finds in the heap always has its shape.
  void PublishAppends() { heap_.PublishAppends(); }

 private:
  explicit Relation(Pager* pager) : HeapRelation(pager, 2) {}

  ShapeMirror mirror_;  // Indexed by TupleId.
};

}  // namespace cdb

#endif  // CDB_CONSTRAINT_RELATION_H_
