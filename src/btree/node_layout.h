// On-page layout of B+-tree nodes (internal header; not part of the public
// API).
//
// All multi-byte fields are accessed through memcpy to keep the layout
// alignment-free. Entries are ordered by the composite key (key double,
// value u32) — making every entry unique even when many tuples share a
// TOP/BOT value, which keeps insert/delete/split logic a textbook total
// order.
//
// Every node starts with
//   u8 type (0 leaf, 1 internal)   u8 stamp (1 in augmented trees)   u16 count
//
// Leaf page (both tree kinds):
//   u32 next_leaf   u32 prev_leaf
//   f64 handicap[4]     (fold rules per kind: BPlusTree::FoldHandicap)
//   entries: count * { f64 key, u32 value }
//
// Internal page, one layout of aggregate width A — 0 in ordinary trees, 32
// in augmented ones (incremental handicaps, DESIGN.md section 2d):
//   u32 child0   [A: agg0]
//   entries: count * { f64 key, u32 value, u32 child, [A: agg] }
//     child(i+1) holds composites >= (key_i, value_i); child0 the rest.
// So the header is 8 + A bytes and an entry 16 + A: child i >= 1 sits at
// +12 of entry i-1 and its aggregate at +16; agg0 at byte 8. An aggregate
// is f64[4], the augmented fold of its child subtree's leaf slots. A child
// always moves as one unit — page id and aggregate — so the structural code
// never picks an offset or moves an aggregate by itself.
//
// The fatter augmented entries cost internal fanout only (19 separators
// instead of 61 at 1 KiB pages); leaf density — and thus every sweep's page
// count — is the same for both kinds, which is what keeps the serial figures
// byte-identical while augmented trees exist beside them.

#ifndef CDB_BTREE_NODE_LAYOUT_H_
#define CDB_BTREE_NODE_LAYOUT_H_

#include <cstdint>
#include <cstring>

#include "btree/bplus_tree.h"
#include "storage/pager.h"

namespace cdb {
namespace btree_node {

/// Composite key: (key, value) pairs are totally ordered and unique.
struct CKey {
  double key;
  uint32_t value;
};

inline bool CKeyLess(const CKey& a, const CKey& b) {
  if (a.key != b.key) return a.key < b.key;
  return a.value < b.value;
}
inline bool CKeyEq(const CKey& a, const CKey& b) {
  return a.key == b.key && a.value == b.value;
}

inline constexpr int kHandicapSlots = BPlusTree::kHandicapSlots;
inline constexpr size_t kLeafHeader = 4 + 8 + 32;       // 44 bytes.
inline constexpr size_t kLeafEntry = 12;                // f64 + u32.
inline constexpr size_t kAggBytes = 8 * kHandicapSlots;  // Augmented A.

inline size_t LeafCapacity(size_t page_size) {
  return (page_size - kLeafHeader) / kLeafEntry;
}

// --- Common header -----------------------------------------------------

inline bool IsLeaf(const char* p) { return p[0] == 0; }

inline uint16_t Count(const char* p) {
  uint16_t c;
  std::memcpy(&c, p + 2, 2);
  return c;
}
inline void SetCount(char* p, uint16_t c) { std::memcpy(p + 2, &c, 2); }

// --- Leaf accessors ----------------------------------------------------

inline PageId NextLeaf(const char* p) {
  PageId id;
  std::memcpy(&id, p + 4, 4);
  return id;
}
inline void SetNextLeaf(char* p, PageId id) { std::memcpy(p + 4, &id, 4); }

inline PageId PrevLeaf(const char* p) {
  PageId id;
  std::memcpy(&id, p + 8, 4);
  return id;
}
inline void SetPrevLeaf(char* p, PageId id) { std::memcpy(p + 8, &id, 4); }

inline double Handicap(const char* p, int slot) {
  double v;
  std::memcpy(&v, p + 12 + 8 * slot, 8);
  return v;
}
inline void SetHandicap(char* p, int slot, double v) {
  std::memcpy(p + 12 + 8 * slot, &v, 8);
}

inline CKey LeafEntry(const char* p, size_t i) {
  CKey e;
  std::memcpy(&e.key, p + kLeafHeader + i * kLeafEntry, 8);
  std::memcpy(&e.value, p + kLeafHeader + i * kLeafEntry + 8, 4);
  return e;
}
inline void SetLeafEntry(char* p, size_t i, const CKey& e) {
  std::memcpy(p + kLeafHeader + i * kLeafEntry, &e.key, 8);
  std::memcpy(p + kLeafHeader + i * kLeafEntry + 8, &e.value, 4);
}
inline void InsertLeafEntry(char* p, size_t i, const CKey& e) {
  uint16_t n = Count(p);
  char* base = p + kLeafHeader;
  std::memmove(base + (i + 1) * kLeafEntry, base + i * kLeafEntry,
               (n - i) * kLeafEntry);
  SetLeafEntry(p, i, e);
  SetCount(p, static_cast<uint16_t>(n + 1));
}
inline void RemoveLeafEntry(char* p, size_t i) {
  uint16_t n = Count(p);
  char* base = p + kLeafHeader;
  std::memmove(base + i * kLeafEntry, base + (i + 1) * kLeafEntry,
               (n - i - 1) * kLeafEntry);
  SetCount(p, static_cast<uint16_t>(n - 1));
}

/// First entry index in a leaf with entry >= c (may be count).
inline size_t LeafLowerBound(const char* p, const CKey& c) {
  uint16_t n = Count(p);
  size_t lo = 0, hi = n;
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (CKeyLess(LeafEntry(p, mid), c)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// --- The node codec of one tree kind -------------------------------------

/// One child of an internal node: its page id and, when the layout has
/// aggregates, the child subtree's aggregate.
struct ChildSlot {
  PageId page = kInvalidPageId;
  double agg[kHandicapSlots] = {};
};

/// Reads and writes the nodes of one tree: the shared leaf slots under the
/// kind's fold rules, and the internal layout of aggregate width A.
class NodeCodec {
 public:
  explicit NodeCodec(bool augmented)
      : augmented_(augmented), agg_(augmented ? kAggBytes : 0) {}

  /// Initialises a freshly allocated (zeroed) page as an empty node. A leaf
  /// gets no neighbours and neutral slots.
  void Init(char* p, bool leaf) const {
    p[0] = leaf ? 0 : 1;
    p[1] = augmented_ ? 1 : 0;
    SetCount(p, 0);
    if (!leaf) return;
    SetNextLeaf(p, kInvalidPageId);
    SetPrevLeaf(p, kInvalidPageId);
    ResetSlots(p);
  }
  /// Whether the node carries the augmented stamp.
  bool Stamped(const char* p) const { return p[1] == 1; }

  /// Separators an internal node holds before it must split; one more
  /// entry fits transiently, so a node may hold Capacity(false, ..) + 1.
  /// For a leaf, the entries it holds.
  size_t Capacity(bool leaf, size_t page_size) const {
    return leaf ? LeafCapacity(page_size)
                : (page_size - Header(false) - 4) / Stride(false) - 1;
  }
  /// The largest count the node's page has room for; a larger one read
  /// from disk is corruption.
  size_t Room(const char* p, size_t page_size) const {
    const bool leaf = IsLeaf(p);
    return Capacity(leaf, page_size) + (leaf ? 0 : 1);
  }

  /// Appends entries [from, to) of `src` to `dst`, a node of the same type.
  void AppendEntries(char* dst, const char* src, size_t from,
                     size_t to) const {
    const bool leaf = IsLeaf(src);
    const size_t h = Header(leaf), w = Stride(leaf);
    const uint16_t n = Count(dst);
    std::memcpy(dst + h + n * w, src + h + from * w, (to - from) * w);
    SetCount(dst, static_cast<uint16_t>(n + (to - from)));
  }

  // --- Leaf slots under the kind's fold rules.
  void ResetSlots(char* p) const {
    for (int s = 0; s < kHandicapSlots; ++s) {
      SetHandicap(p, s, BPlusTree::NeutralHandicap(augmented_, s));
    }
  }
  /// Folds `v` into leaf `slot`.
  void FoldSlot(char* p, int slot, double v) const {
    const double cur = Handicap(p, slot);
    SetHandicap(p, slot, BPlusTree::FoldHandicap(augmented_, slot, cur, v));
  }
  /// Folds the slot array `m` into the aggregate `acc` (augmented rules).
  static void FoldAgg(double* acc, const double* m) {
    for (int s = 0; s < kHandicapSlots; ++s) {
      acc[s] = BPlusTree::FoldHandicap(true, s, acc[s], m[s]);
    }
  }
  static void NeutralAgg(double* acc) {
    for (int s = 0; s < kHandicapSlots; ++s) {
      acc[s] = BPlusTree::NeutralHandicap(true, s);
    }
  }

  // --- Internal nodes.
  PageId ChildPage(const char* p, size_t i) const {
    PageId id;
    std::memcpy(&id, p + ChildAt(i), 4);
    return id;
  }
  ChildSlot Child(const char* p, size_t i) const {
    ChildSlot c;
    c.page = ChildPage(p, i);
    std::memcpy(c.agg, p + AggAt(i), agg_);
    return c;
  }
  void SetChild(char* p, size_t i, const ChildSlot& c) const {
    std::memcpy(p + ChildAt(i), &c.page, 4);
    std::memcpy(p + AggAt(i), c.agg, agg_);
  }

  CKey Key(const char* p, size_t i) const {
    CKey e;
    std::memcpy(&e.key, p + Header(false) + i * Stride(false), 8);
    std::memcpy(&e.value, p + Header(false) + i * Stride(false) + 8, 4);
    return e;
  }
  void SetKey(char* p, size_t i, const CKey& e) const {
    std::memcpy(p + Header(false) + i * Stride(false), &e.key, 8);
    std::memcpy(p + Header(false) + i * Stride(false) + 8, &e.value, 4);
  }

  /// Inserts separator `e` at key position i with `right` as child i+1.
  void InsertEntry(char* p, size_t i, const CKey& e,
                   const ChildSlot& right) const {
    const uint16_t n = Count(p);
    char* base = p + Header(false);
    const size_t w = Stride(false);
    std::memmove(base + (i + 1) * w, base + i * w, (n - i) * w);
    SetCount(p, static_cast<uint16_t>(n + 1));
    SetKey(p, i, e);
    SetChild(p, i + 1, right);
  }
  /// Removes separator i together with child i+1.
  void RemoveEntry(char* p, size_t i) const {
    const uint16_t n = Count(p);
    char* base = p + Header(false);
    const size_t w = Stride(false);
    std::memmove(base + i * w, base + (i + 1) * w, (n - i - 1) * w);
    SetCount(p, static_cast<uint16_t>(n - 1));
  }

  /// Index of the child to descend into for composite `c`: the first i with
  /// c < key_i, else count (child(i) convention in the file comment).
  size_t Descend(const char* p, const CKey& c) const {
    size_t lo = 0, hi = Count(p);
    while (lo < hi) {
      size_t mid = (lo + hi) / 2;
      if (CKeyLess(c, Key(p, mid))) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    return lo;
  }

 private:
  size_t Header(bool leaf) const { return leaf ? kLeafHeader : 8 + agg_; }
  size_t Stride(bool leaf) const { return leaf ? kLeafEntry : 16 + agg_; }
  size_t ChildAt(size_t i) const {
    return i == 0 ? 4 : Header(false) + (i - 1) * Stride(false) + 12;
  }
  size_t AggAt(size_t i) const {
    return i == 0 ? 8 : Header(false) + (i - 1) * Stride(false) + 16;
  }

  bool augmented_;
  size_t agg_;  // A: aggregate bytes per child.
};

}  // namespace btree_node
}  // namespace cdb

#endif  // CDB_BTREE_NODE_LAYOUT_H_
