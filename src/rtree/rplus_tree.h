// R+-tree baseline (Sellis, Roussopoulos, Faloutsos, VLDB 1987) — the
// structure the paper compares against in Section 5.
//
// The R+-tree partitions space into non-overlapping regions; an object
// whose bounding rectangle crosses a region boundary is *clipped* and
// referenced from every overlapping leaf. Point/region search therefore
// never follows overlapping siblings (unlike the R-tree) but may report the
// same object several times — the duplication cost the paper contrasts with
// technique T2.
//
// Construction follows the original paper's Pack/Partition idea: a
// sweep-based sequential cut (x or y, whichever crosses fewer rectangles)
// carves the entry set into disjoint leaf regions, splitting crossing
// rectangles; upper levels group the disjoint child regions
// center-sorted (STR-style; internal MBRs may then overlap slightly, which
// affects only I/O, never correctness — searches visit every intersecting
// child). Dynamic inserts clip the incoming rectangle against the existing
// leaf regions, extending the best-fitting leaf for uncovered parts;
// overflows split leaves with the same sweep cut.
//
// The R+-tree can only store *bounded* objects — the limitation that
// motivates the dual representation (Figure 1 of the paper).

#ifndef CDB_RTREE_RPLUS_TREE_H_
#define CDB_RTREE_RPLUS_TREE_H_

#include <memory>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "constraint/generalized_tuple.h"
#include "geometry/rect.h"
#include "storage/pager.h"

namespace cdb {

/// Search-time statistics.
struct RTreeStats {
  uint64_t duplicates = 0;  // Clipped copies of already-reported objects.
};

/// See file comment. Does not own the pager.
class RPlusTree {
 public:
  /// Creates an empty tree.
  static Status Create(Pager* pager, std::unique_ptr<RPlusTree>* out);

  /// Builds a packed tree from (bounding rect, tuple id) pairs.
  static Status BulkBuild(Pager* pager,
                          std::vector<std::pair<Rect, TupleId>> entries,
                          std::unique_ptr<RPlusTree>* out);

  /// Inserts one object. O(log n) expected page accesses.
  Status Insert(const Rect& rect, TupleId id);

  /// Removes every clipped fragment of object `id` overlapping `rect` (pass
  /// the object's full bounding rect). NotFound when nothing was removed.
  Status Delete(const Rect& rect, TupleId id);

  /// Ids of objects whose rectangle intersects the half-plane, deduplicated
  /// and sorted. A failed node read aborts the search with no pinned pages.
  Result<std::vector<TupleId>> SearchHalfPlane(const HalfPlaneQuery& q,
                                               RTreeStats* stats = nullptr);

  /// Ids of objects whose rectangle intersects `window`.
  Result<std::vector<TupleId>> SearchRect(const Rect& window,
                                          RTreeStats* stats = nullptr);

  uint64_t entry_count() const { return count_; }
  uint32_t height() const { return height_; }
  uint64_t live_page_count() const { return pager_->live_page_count(); }

  /// The backing pager (for I/O accounting by callers).
  Pager* pager() const { return pager_; }

  /// Structural checks: entry rects lie within their node's region, leaf
  /// regions are mutually disjoint (up to epsilon at shared boundaries),
  /// all leaves at the same depth.
  Status CheckInvariants() const;

 private:
  struct Entry {
    Rect rect;
    uint32_t id;  // Tuple id at leaves; child page id internally.
  };

  explicit RPlusTree(Pager* pager) : pager_(pager) {}

  Status WriteNode(PageId page, bool leaf, const std::vector<Entry>& entries);
  Status ReadNode(PageId page, bool* leaf, std::vector<Entry>* entries) const;

  /// Ids of objects whose rectangle satisfies `pred`, deduplicated and
  /// sorted; the copies dropped add to stats->duplicates.
  template <typename Pred>
  Result<std::vector<TupleId>> Search(const Pred& pred, RTreeStats* stats);
  template <typename Pred>
  Status SearchRec(PageId page, const Pred& pred,
                   std::vector<TupleId>* out) const;

  Status InsertRec(PageId page, uint32_t depth, const Rect& rect, TupleId id,
                   std::vector<Entry>* split_out);
  Status DeleteRec(PageId page, const Rect& rect, TupleId id,
                   uint64_t* removed);

  Status CheckRec(PageId page, uint32_t depth, const Rect& region,
                  std::vector<Rect>* leaf_regions) const;

  Pager* pager_;
  PageId root_ = kInvalidPageId;
  uint32_t height_ = 1;
  uint64_t count_ = 0;  // Distinct object insertions (not clipped copies).
};

}  // namespace cdb

#endif  // CDB_RTREE_RPLUS_TREE_H_
