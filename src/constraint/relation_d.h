// d-dimensional generalized relation: the paged store for GeneralizedTupleD
// (Section 4.4 workloads). Tuples live in a TupleHeap
// (constraint/tuple_heap.h) of `dim`-dimensional records, read through
// HeapRelation; one page access per Get, as for Relation.

#ifndef CDB_CONSTRAINT_RELATION_D_H_
#define CDB_CONSTRAINT_RELATION_D_H_

#include <memory>

#include "common/result.h"
#include "common/status.h"
#include "constraint/generalized_tuple.h"
#include "constraint/heap_relation.h"
#include "storage/pager.h"

namespace cdb {

/// See file comment.
class RelationD : public HeapRelation<GeneralizedTupleD> {
 public:
  /// Opens a d-dimensional relation in `pager`; kInvalidPageId creates a
  /// fresh one. All tuples of one relation share the dimension `dim`.
  static Status Open(Pager* pager, size_t dim, PageId root_page,
                     std::unique_ptr<RelationD>* out);

  size_t dim() const { return heap_.dim(); }

  Result<TupleId> Insert(const GeneralizedTupleD& tuple);

  /// Tombstones tuple `id`; its page is freed with its last live record.
  Status Delete(TupleId id) { return heap_.Delete(id); }

 private:
  RelationD(Pager* pager, size_t dim) : HeapRelation(pager, dim) {}
};

}  // namespace cdb

#endif  // CDB_CONSTRAINT_RELATION_D_H_
