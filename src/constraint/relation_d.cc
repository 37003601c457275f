#include "constraint/relation_d.h"

namespace cdb {

Status RelationD::Open(Pager* pager, size_t dim, PageId root_page,
                       std::unique_ptr<RelationD>* out) {
  if (dim < 2) return Status::InvalidArgument("dimension must be >= 2");
  std::unique_ptr<RelationD> rel(new RelationD(pager, dim));
  CDB_RETURN_IF_ERROR(rel->heap_.Open(root_page));
  *out = std::move(rel);
  return Status::OK();
}

Result<TupleId> RelationD::Insert(const GeneralizedTupleD& tuple) {
  if (tuple.dim() != dim()) {
    return Status::InvalidArgument("tuple dimension mismatch");
  }
  CDB_RETURN_IF_ERROR(ValidateTuple(tuple));
  return Append(tuple);
}

}  // namespace cdb
