// What Relation and RelationD share: a TupleHeap read and written through
// an inline codec for their tuple type. A record body holds, per
// constraint, the coefficients and c as f64 and then the cmp byte (0 for
// <=, 1 for >=); a 2-D constraint's (a, b) are the dim = 2 coefficients, so
// both relation types write the same bytes for the same constraints.

#ifndef CDB_CONSTRAINT_HEAP_RELATION_H_
#define CDB_CONSTRAINT_HEAP_RELATION_H_

#include <cstring>
#include <functional>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "constraint/generalized_tuple.h"
#include "constraint/tuple_heap.h"
#include "storage/pager.h"

namespace cdb {

inline char* EncodeConstraint(const double* a, size_t dim, double c, Cmp cmp,
                              char* p) {
  std::memcpy(p, a, dim * 8);
  std::memcpy(p + dim * 8, &c, 8);
  p[dim * 8 + 8] = static_cast<char>(cmp == Cmp::kLE ? 0 : 1);
  return p + dim * 8 + 9;
}

inline const char* DecodeConstraint(const char* p, double* a, size_t dim,
                                    double* c, Cmp* cmp) {
  std::memcpy(a, p, dim * 8);
  std::memcpy(c, p + dim * 8, 8);
  *cmp = p[dim * 8 + 8] == 0 ? Cmp::kLE : Cmp::kGE;
  return p + dim * 8 + 9;
}

inline void EncodeTuple(const GeneralizedTuple& tuple, char* p) {
  for (const Constraint2D& c : tuple.constraints()) {
    const double a[2] = {c.a, c.b};
    p = EncodeConstraint(a, 2, c.c, c.cmp, p);
  }
}

inline void DecodeTuple(const char* p, uint16_t m, size_t /*dim*/,
                        GeneralizedTuple* tuple) {
  std::vector<Constraint2D> cons(m);
  for (Constraint2D& c : cons) {
    double a[2];
    p = DecodeConstraint(p, a, 2, &c.c, &c.cmp);
    c.a = a[0];
    c.b = a[1];
  }
  *tuple = GeneralizedTuple(std::move(cons));
}

inline void EncodeTuple(const GeneralizedTupleD& tuple, char* p) {
  for (const ConstraintD& c : tuple.constraints()) {
    p = EncodeConstraint(c.a.data(), c.a.size(), c.c, c.cmp, p);
  }
}

inline void DecodeTuple(const char* p, uint16_t m, size_t dim,
                        GeneralizedTupleD* tuple) {
  std::vector<ConstraintD> cons(m);
  for (ConstraintD& c : cons) {
    c.a.resize(dim);
    p = DecodeConstraint(p, c.a.data(), dim, &c.c, &c.cmp);
  }
  *tuple = GeneralizedTupleD(dim, std::move(cons));
}

/// The read side of a relation of `Tuple`s, one page access per Get.
template <typename Tuple>
class HeapRelation {
 public:
  /// First data page; persist it to reopen the relation later. A Delete
  /// that empties the root page frees it when other pages follow, so the
  /// root can move: re-read it after deleting.
  PageId root_page() const { return heap_.root_page(); }

  /// The backing pager (for I/O accounting by callers).
  Pager* pager() const { return heap_.pager(); }

  /// The page chain underneath (for integrity checks).
  const TupleHeap& heap() const { return heap_; }

  /// Number of live tuples.
  uint64_t size() const { return heap_.size(); }

  /// Fetches tuple `id`. Costs one page access.
  Status Get(TupleId id, Tuple* out) const {
    PageId page = kInvalidPageId;
    CDB_RETURN_IF_ERROR(LocateTuple(id, &page));
    Result<PageRef> ref = pager()->Fetch(page);
    if (!ref.ok()) return ref.status();
    return GetFromPage(ref.value(), id, out);
  }

  /// Get() split in two for the page-clustered batch refiner: resolve the
  /// data page without I/O (the visibility checks of Get()), then decode
  /// any number of this page's tuples while the caller keeps it pinned.
  Status LocateTuple(TupleId id, PageId* page) const {
    return heap_.LocateTuple(id, page);
  }
  Status GetFromPage(const PageRef& page, TupleId id, Tuple* out) const {
    const char* body = nullptr;
    uint16_t m = 0;
    CDB_RETURN_IF_ERROR(heap_.Record(page, id, &body, &m));
    DecodeTuple(body, m, heap_.dim(), out);
    return Status::OK();
  }

  /// Calls fn(id, tuple) for every live tuple in id order. Stops and
  /// propagates the first non-OK status returned by fn.
  Status ForEach(
      const std::function<Status(TupleId, const Tuple&)>& fn) const {
    for (TupleId id = 0; id < heap_.id_bound(); ++id) {
      if (!heap_.Visible(id)) continue;
      Tuple tuple;
      CDB_RETURN_IF_ERROR(Get(id, &tuple));
      CDB_RETURN_IF_ERROR(fn(id, tuple));
    }
    return Status::OK();
  }

 protected:
  HeapRelation(Pager* pager, size_t dim) : heap_(pager, dim) {}

  /// Appends an already validated tuple.
  Result<TupleId> Append(const Tuple& tuple) {
    return heap_.Insert(tuple.constraints().size(),
                        [&tuple](char* body) { EncodeTuple(tuple, body); });
  }

  TupleHeap heap_;
};

}  // namespace cdb

#endif  // CDB_CONSTRAINT_HEAP_RELATION_H_
