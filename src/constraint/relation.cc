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
  // A visible id is below the mirror's size: Insert stores the mirror entry
  // before a single-writer-mode publish makes the id visible to readers.
  return heap_.Visible(id) && mirror_.Get(id, out);
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
  return Status::OK();
}

}  // namespace cdb
