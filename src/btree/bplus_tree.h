// Disk-based B+-tree over (double key -> uint32 value) pairs.
//
// This is the indexing substrate of the paper (Section 3): for every slope
// in the predefined set S the dual index keeps two of these trees, storing
// TOP^P / BOT^P surface values. Design points driven by the paper:
//
//  * Duplicate keys are first-class (many tuples share a surface value);
//    entries are ordered by the composite (key, value).
//  * Leaves are chained in both directions so ALL/EXIST selections can
//    sweep upward or downward from the seek position (Section 3).
//  * Every leaf carries four "handicap" slots (Section 4.2) that technique
//    T2 reads during its first sweep. Slots 0 and 1 combine by minimum
//    ("low" handicaps), slots 2 and 3 by maximum ("high"). The tree keeps
//    them conservatively correct across splits (copy), merges and
//    redistributions (combine); exact recomputation is the index's job
//    (DualIndex::RebuildHandicaps). `handicap_staleness()` counts the
//    events that degraded them since the last reset.
//  * Trees made by CreateAugmented, or by BulkLoad with `augmented`, keep
//    the slots *incrementally* instead (DESIGN.md section 2d): each leaf
//    slot folds the assignment values of its own entries, with the reverse
//    polarity (low slots by maximum, high slots by minimum), and mutations
//    keep it exact via an assignment callback. Their internal nodes have
//    the ordinary layout plus one 32-byte aggregate per child, the fold of
//    the child subtree's slots, read and written by the same internal-node
//    codec — so SecondSweepBound() answers T2's second-sweep bound by one
//    root-to-leaf descent and no rebuild is ever required for correctness
//    or tightness. The slot rules of both kinds are exported below
//    (kHandicapSlots, FoldHandicap, ...) for the index and its health
//    inspector.
//  * Keys may be ±infinity (dual values of unbounded polyhedra); NaN is
//    rejected.
//
// Complexity matches Theorem 3.1: search/insert/delete O(log_B n), range
// reporting O(log_B n + t/B) page accesses.

#ifndef CDB_BTREE_BPLUS_TREE_H_
#define CDB_BTREE_BPLUS_TREE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/pager.h"

namespace cdb {

class BPlusTree;

/// Leaf-granular iterator. T2 reads whole leaves: the handicap slots plus
/// the qualifying entries. A seek costs the tree's height in page fetches
/// (the descent hands its leaf over) and each move exactly one more.
/// Cursors are invalidated by any tree mutation.
class LeafCursor {
 public:
  LeafCursor() = default;

  bool valid() const { return leaf_ != kInvalidPageId; }

  /// Number of entries in the current leaf.
  int entry_count() const { return count_; }
  double key(int i) const;
  uint32_t value(int i) const;

  /// Position of the first entry >= the seek composite within this leaf
  /// (only meaningful on the leaf returned by SeekLeaf; may equal
  /// entry_count()).
  int seek_pos() const { return seek_pos_; }

  /// Handicap slot of the current leaf (see bplus_tree.h file comment).
  double handicap(int slot) const;

  /// Page id of the current leaf (kInvalidPageId when !valid()).
  PageId page() const { return leaf_; }

  /// Moves to the next/previous leaf in key order; the cursor becomes
  /// invalid past either end.
  Status NextLeaf();
  Status PrevLeaf();

 private:
  friend class BPlusTree;
  // Copies the leaf `ref` of `tree` (checked by BPlusTree::LoadLeaf or the
  // descent) into the cursor; the caller's pin ends with `ref`.
  void Take(const BPlusTree* tree, const PageRef& ref);
  // Moves to the chained leaf `id`, or past the end when it is invalid.
  Status Step(PageId id);

  const BPlusTree* tree_ = nullptr;
  PageId leaf_ = kInvalidPageId;
  int count_ = 0;
  int seek_pos_ = 0;
  // Materialized copy of the leaf content; keeps the page unpinned between
  // moves and the read path simple.
  std::vector<char> data_;
};

/// See file comment.
class BPlusTree {
 public:
  /// Handicap slots per leaf: the "low" pair 0 and 1 and the "high" pair 2
  /// and 3; `second` picks the member of a pair.
  static constexpr int kHandicapSlots = 4;
  static constexpr int LowSlot(bool second) { return second ? 1 : 0; }
  static constexpr int HighSlot(bool second) { return second ? 3 : 2; }

  /// Whether `slot` folds by minimum in a tree of this kind: the low slots
  /// of an ordinary tree, the high slots of an augmented one.
  static constexpr bool FoldsByMin(bool augmented, int slot) {
    return (slot < 2) != augmented;
  }
  /// The fold's identity, a freshly reset slot: +inf for a slot folding by
  /// minimum, -inf for one folding by maximum.
  static constexpr double NeutralHandicap(bool augmented, int slot) {
    return FoldsByMin(augmented, slot)
               ? std::numeric_limits<double>::infinity()
               : -std::numeric_limits<double>::infinity();
  }
  /// Folds `v` into the slot value `cur`.
  static constexpr double FoldHandicap(bool augmented, int slot, double cur,
                                       double v) {
    return FoldsByMin(augmented, slot) ? (v < cur ? v : cur)
                                       : (v > cur ? v : cur);
  }

  /// Entries per leaf at a pager payload size (the same for both kinds).
  static size_t LeafCapacity(size_t page_size);

  /// Resolves a stored value to its four assignment values m_0..m_3 (one
  /// per handicap slot). Augmented trees call this to recompute leaf slots
  /// on splits, deletes and rebalances; the callee typically refetches the
  /// tuple from the relation, so the value must still be resolvable when a
  /// Delete runs. Must not return NaN.
  using AssignmentFn = std::function<Status(uint32_t value, double* m)>;

  /// Bulk-load input: an entry plus its four assignment values, one per
  /// handicap slot (read only when building an augmented tree).
  struct AugEntry {
    double key;
    uint32_t value;
    double m[4];
  };

  /// Creates an empty tree in `pager` (caller owns the pager). The tree's
  /// identity is its meta page id.
  static Status Create(Pager* pager, std::unique_ptr<BPlusTree>* out);

  /// Creates an empty *augmented* tree (incremental handicaps; see file
  /// comment). Mutations require SetAssignmentFn() first.
  static Status CreateAugmented(Pager* pager, std::unique_ptr<BPlusTree>* out);

  /// Opens an existing tree rooted at `meta_page`. Whether the tree is
  /// augmented is read back from its meta page.
  static Status Open(Pager* pager, PageId meta_page,
                     std::unique_ptr<BPlusTree>* out);

  /// Builds a tree from entries in one pass. `entries` are sorted
  /// internally by the composite (key, value) order and must contain no
  /// exact duplicates and no NaN keys. Leaves are packed at `fill` of
  /// capacity (0 < fill <= 1), leaving split slack for later inserts.
  /// Far cheaper than repeated Insert() and yields denser pages. An
  /// `augmented` tree computes its leaf slots and internal aggregates from
  /// the entries' assignment values during the build, so it is exact
  /// without any rebuild pass; an ordinary one ignores them. Both layouts
  /// get the same leaf packing.
  static Status BulkLoad(Pager* pager, std::vector<AugEntry> entries,
                         double fill, bool augmented,
                         std::unique_ptr<BPlusTree>* out);

  /// BulkLoad of an ordinary tree from plain (key, value) pairs.
  static Status BulkLoad(Pager* pager,
                         std::vector<std::pair<double, uint32_t>> entries,
                         double fill, std::unique_ptr<BPlusTree>* out);

  /// Meta page id; persist to reopen the tree.
  PageId meta_page() const { return meta_page_; }

  /// True when this tree maintains handicaps incrementally.
  bool augmented() const { return augmented_; }

  /// Registers the assignment callback an augmented tree uses to recompute
  /// leaf slots. Required before Insert/Delete on augmented trees.
  void SetAssignmentFn(AssignmentFn fn) { assignment_fn_ = std::move(fn); }

  /// Inserts (key, value). Duplicate keys are allowed; the exact (key,
  /// value) pair must be unique. NaN keys are rejected. Augmented trees
  /// must use InsertWithAssignment instead.
  Status Insert(double key, uint32_t value);

  /// Augmented insert: folds the entry's assignment values `m[4]` into its
  /// leaf's slots and maintains the aggregate path to the root.
  Status InsertWithAssignment(double key, uint32_t value, const double* m);

  /// Removes the exact (key, value) pair; NotFound when absent. On an
  /// augmented tree the assignment callback resolves the removed entry's
  /// contributions, so the value must still be resolvable at call time.
  Status Delete(double key, uint32_t value);

  /// True when the exact pair is present.
  Result<bool> Contains(double key, uint32_t value) const;

  /// Number of entries.
  uint64_t size() const { return count_; }

  /// Tree height (1 = root is a leaf).
  uint32_t height() const { return height_; }

  /// Positions `out` at the leaf whose key range contains `key`, with
  /// seek_pos() at the first entry >= (key, min value). Valid even when the
  /// leaf holds no qualifying entry — T2 needs the leaf's handicaps
  /// regardless.
  Status SeekLeaf(double key, LeafCursor* out) const;

  /// Like SeekLeaf, but past every entry with key `key`: positions `out`
  /// at the leaf whose range contains (key, max value), with seek_pos() at
  /// the first entry whose key exceeds `key` — however many leaves the
  /// entries equal to `key` fill.
  Status SeekLeafPast(double key, LeafCursor* out) const;

  /// Positions `out` at the first leaf.
  Status SeekFirstLeaf(LeafCursor* out) const;

  /// Folds `v` into handicap `slot` of the leaf whose range contains `at`
  /// (min for slots 0-1, max for 2-3). Ordinary trees only.
  Status MergeHandicap(double at, int slot, double v);

  /// The leaf MergeHandicap(at, ...) would fold into — same descent, no
  /// mutation. Lets the health inspector replay the fold against a
  /// side table keyed by leaf page (obs/health.h tightness gaps).
  Status HandicapLeaf(double at, PageId* leaf) const;

  /// Resets every leaf's handicaps to the neutral values and zeroes the
  /// staleness counter. Ordinary trees only.
  Status ResetHandicaps();

  /// T2 second-sweep bound for an augmented tree: one root-to-leaf descent
  /// through the aggregates. For low slots (0, 1) finds the leftmost leaf
  /// whose subtree holds an entry with m_slot >= b and returns that leaf's
  /// first key; for high slots (2, 3) the rightmost leaf with an entry of
  /// m_slot <= b and its last key. `*have` is false when no entry
  /// qualifies (the second sweep can be skipped entirely).
  Status SecondSweepBound(int slot, double b, bool* have, double* bound) const;

  /// Exact recomputation of every leaf slot and internal aggregate via the
  /// assignment callback; the augmented counterpart of the index's
  /// RebuildHandicaps pass (a compaction, not a correctness requirement —
  /// incremental maintenance already keeps the values exact).
  Status RecomputeAugmented();

  /// Number of handicap-degrading events (leaf split/borrow/merge, any
  /// delete) since open or the last ResetHandicaps(). Always 0 on an
  /// augmented tree. In-memory only; not persisted.
  uint64_t handicap_staleness() const { return handicap_staleness_; }

  /// Internal consistency check (ordering, separators, chain links, counts);
  /// used by tests.
  Status CheckInvariants() const;

 private:
  struct SplitResult {
    bool split = false;
    double sep_key = 0.0;
    uint32_t sep_value = 0;
    PageId right = kInvalidPageId;
  };

  BPlusTree(Pager* pager, PageId meta_page)
      : pager_(pager), meta_page_(meta_page) {}

  Status LoadMeta();
  Status StoreMeta();

  // Root and height as the calling thread should see them: the in-memory
  // members normally, but the *committed* meta page when the calling
  // thread is a single-writer-mode reader (the writer mutates the members
  // concurrently; readers must descend from the published root).
  Status ReadView(PageId* root, uint32_t* height) const;

  static Status CreateImpl(Pager* pager, bool augmented,
                           std::unique_ptr<BPlusTree>* out);
  Status InsertImpl(double key, uint32_t value, const double* m);
  // `m` carries the new entry's assignments on augmented trees (else null).
  Status InsertRec(PageId page, double key, uint32_t value, const double* m,
                   SplitResult* out);
  // Returns (via *underflow) whether `page` dropped below minimum
  // occupancy. `removed_m` carries the removed entry's assignments on
  // augmented trees (else null).
  Status DeleteRec(PageId page, double key, uint32_t value,
                   const double* removed_m, bool* underflow);
  // Fixes an underflowing child i of internal node `parent`.
  Status FixUnderflow(char* parent, size_t child_idx);
  // Merges node `r` into its left sibling `l` under `parent`'s separator
  // `sep_idx`, removes that separator and frees `r`.
  Status MergeNodes(char* parent, size_t sep_idx, PageRef* l, PageRef* r);

  // Augmented helpers: fold of a node's subtree (leaf slots, or the fold
  // of an internal node's stored child aggregates) ...
  Status NodeAggregate(PageId page, double* out) const;
  // ... refresh of `parent`'s stored aggregates for children lo..hi, which
  // changed (a no-op on ordinary trees, which store none) ...
  Status RefreshAggs(PageRef* parent, size_t lo, size_t hi);
  // ... exact recomputation of one leaf's slots via the callback ...
  Status RecomputeLeafLocal(char* p);
  // ... and the post-order walk behind RecomputeAugmented().
  Status RecomputeAggRec(PageId page, double* out);

  friend class LeafCursor;

  // Fetches an existing node, rejecting a count past its page's room.
  Result<PageRef> LoadNode(PageId page) const;
  // LoadNode for a page a leaf chain links to, which must be a leaf.
  Result<PageRef> LoadLeaf(PageId page) const;
  // Fetches the root-to-leaf path of (key, value) once per level and
  // returns the leaf, pinned: a search costs height() fetches.
  Result<PageRef> DescendToLeaf(double key, uint32_t value) const;
  Status CheckNode(PageId page, bool has_lo, double lo_key, uint32_t lo_val,
                   bool has_hi, double hi_key, uint32_t hi_val,
                   uint32_t depth, uint64_t* entries, double* agg_out) const;

  Pager* pager_;
  PageId meta_page_;
  PageId root_ = kInvalidPageId;
  uint64_t count_ = 0;
  uint32_t height_ = 1;
  bool augmented_ = false;
  AssignmentFn assignment_fn_;
  uint64_t handicap_staleness_ = 0;
};

}  // namespace cdb

#endif  // CDB_BTREE_BPLUS_TREE_H_
