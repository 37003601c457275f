#include "constraint/relation.h"

#include <functional>

namespace cdb {

Status Relation::Open(Pager* pager, PageId root_page,
                      std::unique_ptr<Relation>* out) {
  std::unique_ptr<Relation> rel(new Relation(pager));
  ShapeMirror* mirror = &rel->mirror_;
  CDB_RETURN_IF_ERROR(rel->heap_.Open(
      root_page, [mirror](TupleId id, const char* body, uint16_t m) {
        GeneralizedTuple tuple;
        DecodeTuple(body, m, 2, &tuple);
        mirror->Put(id, tuple.Polyhedron());
      }));
  rel->mirror_.Resize(rel->heap_.id_bound());
  *out = std::move(rel);
  return Status::OK();
}

Result<TupleId> Relation::Insert(const GeneralizedTuple& tuple) {
  CDB_RETURN_IF_ERROR(ValidateTuple(tuple));
  const Polyhedron2D shape = tuple.Polyhedron();
  Result<TupleId> id = Append(tuple);
  if (!id.ok()) return id;
  mirror_.Put(id.value(), shape);
  return id;
}

bool Relation::Shape(TupleId id, Polyhedron2DView* out) const {
  // Single-writer-mode readers never consult mirror_.size(), which the
  // writer mutates mid-append: ids past the published bound read as absent.
  // Visibility is checked first: PublishAppends stores the mirror bound
  // before the heap's, so an id the heap shows is below the mirror bound.
  if (!heap_.Visible(id)) return false;
  const uint64_t bound =
      pager()->InSwmrReadContext()
          ? published_shapes_.load(std::memory_order_acquire)
          : mirror_.size();
  return id < bound && mirror_.Get(id, out);
}

Status Relation::ForEachShape(
    const std::function<Status(TupleId, const Polyhedron2DView&)>& fn)
    const {
  for (TupleId id = 0; id < heap_.id_bound(); ++id) {
    Polyhedron2DView shape;
    if (!Shape(id, &shape)) continue;
    CDB_RETURN_IF_ERROR(fn(id, shape));
  }
  return Status::OK();
}

Status Relation::Delete(TupleId id) {
  CDB_RETURN_IF_ERROR(heap_.Delete(id));
  mirror_.Clear(id);
  return Status::OK();
}

Status Relation::BeginOnlineAppends(size_t max_inserts) {
  CDB_RETURN_IF_ERROR(heap_.BeginOnlineAppends(max_inserts));
  // The mirror is indexed lock-free by readers just like the directory, so
  // it must never reallocate while they run.
  mirror_.Reserve(max_inserts);
  published_shapes_.store(mirror_.size(), std::memory_order_release);
  return Status::OK();
}

}  // namespace cdb
