#include "rtree/rplus_tree.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace cdb {

namespace {

constexpr size_t kHeader = 8;      // type u8, pad u8, count u16, pad u32.
constexpr size_t kEntrySize = 36;  // 4 * f64 + u32.

size_t NodeCapacity(size_t page_size) { return (page_size - kHeader) / kEntrySize; }

// When the cheapest sweep cut would clip more than this fraction of the
// entries, fall back to a non-clipping center split (hybrid R/R+ behaviour;
// keeps the structure from exploding on large objects — the regime where
// the original R+-tree is known to degenerate, cf. Section 5's medium
// objects).
constexpr double kMaxClipFraction = 0.25;

}  // namespace

// --- Page I/O ------------------------------------------------------------

Status RPlusTree::WriteNode(PageId page, bool leaf,
                            const std::vector<Entry>& entries) {
  Result<PageRef> ref = pager_->Fetch(page);
  if (!ref.ok()) return ref.status();
  char* p = ref.value().data();
  p[0] = leaf ? 0 : 1;
  p[1] = 0;
  uint16_t n = static_cast<uint16_t>(entries.size());
  std::memcpy(p + 2, &n, 2);
  std::memset(p + 4, 0, 4);
  char* e = p + kHeader;
  for (const Entry& entry : entries) {
    std::memcpy(e, &entry.rect.xlo, 8);
    std::memcpy(e + 8, &entry.rect.ylo, 8);
    std::memcpy(e + 16, &entry.rect.xhi, 8);
    std::memcpy(e + 24, &entry.rect.yhi, 8);
    std::memcpy(e + 32, &entry.id, 4);
    e += kEntrySize;
  }
  ref.value().MarkDirty();
  return Status::OK();
}

Status RPlusTree::ReadNode(PageId page, bool* leaf,
                           std::vector<Entry>* entries) const {
  Result<PageRef> ref = pager_->Fetch(page);
  if (!ref.ok()) return ref.status();
  const char* p = ref.value().data();
  *leaf = p[0] == 0;
  uint16_t n;
  std::memcpy(&n, p + 2, 2);
  entries->clear();
  entries->reserve(n);
  const char* e = p + kHeader;
  for (uint16_t i = 0; i < n; ++i) {
    Entry entry;
    std::memcpy(&entry.rect.xlo, e, 8);
    std::memcpy(&entry.rect.ylo, e + 8, 8);
    std::memcpy(&entry.rect.xhi, e + 16, 8);
    std::memcpy(&entry.rect.yhi, e + 24, 8);
    std::memcpy(&entry.id, e + 32, 4);
    entries->push_back(entry);
    e += kEntrySize;
  }
  return Status::OK();
}

// --- Construction ----------------------------------------------------------

Status RPlusTree::Create(Pager* pager, std::unique_ptr<RPlusTree>* out) {
  std::unique_ptr<RPlusTree> tree(new RPlusTree(pager));
  Result<PageId> root = pager->Allocate();
  if (!root.ok()) return root.status();
  tree->root_ = root.value();
  CDB_RETURN_IF_ERROR(tree->WriteNode(tree->root_, /*leaf=*/true, {}));
  *out = std::move(tree);
  return Status::OK();
}

namespace {

// Sweep-based sequential partition (the R+ paper's Partition): recursively
// carves a set into groups of <= cap entries with axis-parallel cuts,
// clipping rectangles that cross a cut. The helpers work on a plain
// (rect, id) pair mirroring RPlusTree::Entry.
struct E {
  Rect rect;
  uint32_t id;
};

// Returns the cheapest cut along one axis: position after roughly `cap`
// entries when sorted by the low coordinate. Cost = number of crossings.
struct CutChoice {
  bool valid = false;
  bool x_axis = true;
  double at = 0;
  size_t crossings = 0;
};

CutChoice ChooseCut(const std::vector<E>& set, size_t cap, bool x_axis) {
  (void)cap;
  std::vector<double> lows;
  lows.reserve(set.size());
  for (const E& e : set) lows.push_back(x_axis ? e.rect.xlo : e.rect.ylo);
  std::sort(lows.begin(), lows.end());
  double min_low = lows.front();
  // Candidate cut: the median low coordinate (balanced, tile-like regions;
  // a sequential fill-factor cut would carve ultra-thin slabs that fragment
  // every object crossing them), advanced past ties with the minimum so
  // both sides are non-empty.
  size_t idx = lows.size() / 2;
  double at = lows[idx];
  if (at <= min_low) {
    auto it = std::upper_bound(lows.begin(), lows.end(), min_low);
    if (it == lows.end()) return {};  // All lows identical: no valid cut.
    at = *it;
  }
  CutChoice choice;
  choice.valid = true;
  choice.x_axis = x_axis;
  choice.at = at;
  for (const E& e : set) {
    double lo = x_axis ? e.rect.xlo : e.rect.ylo;
    double hi = x_axis ? e.rect.xhi : e.rect.yhi;
    if (lo < at && hi > at) ++choice.crossings;
  }
  return choice;
}

void PartitionRec(std::vector<E> set, size_t cap,
                  std::vector<std::vector<E>>* out) {
  if (set.size() <= cap) {
    if (!set.empty()) out->push_back(std::move(set));
    return;
  }
  CutChoice cx = ChooseCut(set, cap, /*x_axis=*/true);
  CutChoice cy = ChooseCut(set, cap, /*x_axis=*/false);
  CutChoice best;
  if (cx.valid && (!cy.valid || cx.crossings <= cy.crossings)) {
    best = cx;
  } else {
    best = cy;
  }

  if (!best.valid ||
      best.crossings >
          static_cast<size_t>(kMaxClipFraction *
                              static_cast<double>(set.size()))) {
    // Degenerate or clip-heavy: split by center without clipping (regions
    // may overlap; search correctness is unaffected).
    bool x_axis = !best.valid || (cx.valid && cy.valid &&
                                  cx.crossings <= cy.crossings) ||
                  (cx.valid && !cy.valid);
    std::sort(set.begin(), set.end(), [&](const E& a, const E& b) {
      double ca = x_axis ? a.rect.xlo + a.rect.xhi : a.rect.ylo + a.rect.yhi;
      double cb = x_axis ? b.rect.xlo + b.rect.xhi : b.rect.ylo + b.rect.yhi;
      return ca < cb;
    });
    size_t half = set.size() / 2;
    std::vector<E> left(set.begin(), set.begin() + static_cast<long>(half));
    std::vector<E> right(set.begin() + static_cast<long>(half), set.end());
    PartitionRec(std::move(left), cap, out);
    PartitionRec(std::move(right), cap, out);
    return;
  }

  std::vector<E> left, right;
  for (const E& e : set) {
    double lo = best.x_axis ? e.rect.xlo : e.rect.ylo;
    double hi = best.x_axis ? e.rect.xhi : e.rect.yhi;
    if (hi <= best.at) {
      left.push_back(e);
    } else if (lo >= best.at) {
      right.push_back(e);
    } else {
      // Clip into both sides (the R+-tree's signature move).
      E l = e, r = e;
      if (best.x_axis) {
        l.rect.xhi = best.at;
        r.rect.xlo = best.at;
      } else {
        l.rect.yhi = best.at;
        r.rect.ylo = best.at;
      }
      left.push_back(l);
      right.push_back(r);
    }
  }
  PartitionRec(std::move(left), cap, out);
  PartitionRec(std::move(right), cap, out);
}

Rect MbrOf(const std::vector<E>& entries) {
  Rect r = Rect::Empty();
  for (const E& e : entries) r = r.Enclose(e.rect);
  return r;
}

}  // namespace

Status RPlusTree::BulkBuild(Pager* pager,
                            std::vector<std::pair<Rect, TupleId>> entries,
                            std::unique_ptr<RPlusTree>* out) {
  std::unique_ptr<RPlusTree> tree(new RPlusTree(pager));
  const size_t cap = NodeCapacity(pager->page_size());
  tree->count_ = entries.size();

  if (entries.empty()) {
    Result<PageId> root = pager->Allocate();
    if (!root.ok()) return root.status();
    tree->root_ = root.value();
    CDB_RETURN_IF_ERROR(tree->WriteNode(tree->root_, true, {}));
    *out = std::move(tree);
    return Status::OK();
  }

  std::vector<E> all;
  all.reserve(entries.size());
  for (const auto& [rect, id] : entries) {
    if (rect.IsEmpty()) {
      return Status::InvalidArgument("R+-tree entries must be bounded");
    }
    all.push_back({rect, id});
  }

  // Leaf level: sweep partition with clipping.
  std::vector<std::vector<E>> groups;
  PartitionRec(std::move(all), std::max<size_t>(1, cap * 7 / 10), &groups);

  // Write leaves; build the next level from their MBRs, grouped
  // center-sorted (STR-style) without clipping.
  std::vector<E> level;
  for (auto& g : groups) {
    Result<PageId> page = pager->Allocate();
    if (!page.ok()) return page.status();
    std::vector<Entry> node;
    node.reserve(g.size());
    for (const E& e : g) node.push_back({e.rect, e.id});
    CDB_RETURN_IF_ERROR(tree->WriteNode(page.value(), true, node));
    level.push_back({MbrOf(g), page.value()});
  }
  uint32_t height = 1;
  while (level.size() > 1) {
    std::sort(level.begin(), level.end(), [](const E& a, const E& b) {
      if (a.rect.xlo + a.rect.xhi != b.rect.xlo + b.rect.xhi) {
        return a.rect.xlo + a.rect.xhi < b.rect.xlo + b.rect.xhi;
      }
      return a.rect.ylo + a.rect.yhi < b.rect.ylo + b.rect.yhi;
    });
    std::vector<E> next;
    for (size_t i = 0; i < level.size(); i += cap) {
      size_t end = std::min(level.size(), i + cap);
      std::vector<E> group(level.begin() + static_cast<long>(i),
                           level.begin() + static_cast<long>(end));
      Result<PageId> page = pager->Allocate();
      if (!page.ok()) return page.status();
      std::vector<Entry> node;
      for (const E& e : group) node.push_back({e.rect, e.id});
      CDB_RETURN_IF_ERROR(tree->WriteNode(page.value(), false, node));
      next.push_back({MbrOf(group), page.value()});
    }
    level = std::move(next);
    ++height;
  }
  tree->root_ = level.front().id;
  tree->height_ = height;
  *out = std::move(tree);
  return Status::OK();
}

// --- Search -----------------------------------------------------------------

template <typename Pred>
Status RPlusTree::SearchRec(PageId page, const Pred& pred,
                            std::vector<TupleId>* out) const {
  // ReadNode materializes the node and leaves nothing pinned, so a failed
  // read between nodes is pin-clean.
  bool leaf;
  std::vector<Entry> entries;
  CDB_RETURN_IF_ERROR(ReadNode(page, &leaf, &entries));
  for (const Entry& e : entries) {
    if (!pred(e.rect)) continue;
    if (leaf) {
      out->push_back(e.id);
    } else {
      CDB_RETURN_IF_ERROR(SearchRec(e.id, pred, out));
    }
  }
  return Status::OK();
}

template <typename Pred>
Result<std::vector<TupleId>> RPlusTree::Search(const Pred& pred,
                                               RTreeStats* stats) {
  std::vector<TupleId> out;
  CDB_RETURN_IF_ERROR(SearchRec(root_, pred, &out));
  std::sort(out.begin(), out.end());
  size_t before = out.size();
  out.erase(std::unique(out.begin(), out.end()), out.end());
  if (stats != nullptr) stats->duplicates += before - out.size();
  return out;
}

Result<std::vector<TupleId>> RPlusTree::SearchHalfPlane(
    const HalfPlaneQuery& q, RTreeStats* stats) {
  return Search([&](const Rect& r) { return r.IntersectsHalfPlane(q); },
                stats);
}

Result<std::vector<TupleId>> RPlusTree::SearchRect(const Rect& window,
                                                   RTreeStats* stats) {
  return Search([&](const Rect& r) { return r.Intersects(window); }, stats);
}

// --- Dynamic insert -----------------------------------------------------------

namespace {

// rect minus cover, decomposed into at most four rectangles.
void SubtractRect(const Rect& rect, const Rect& cover,
                  std::vector<Rect>* out) {
  Rect overlap = rect.Intersection(cover);
  if (overlap.IsEmpty()) {
    out->push_back(rect);
    return;
  }
  if (rect.ylo < overlap.ylo) {
    out->push_back(Rect(rect.xlo, rect.ylo, rect.xhi, overlap.ylo));
  }
  if (overlap.yhi < rect.yhi) {
    out->push_back(Rect(rect.xlo, overlap.yhi, rect.xhi, rect.yhi));
  }
  if (rect.xlo < overlap.xlo) {
    out->push_back(Rect(rect.xlo, overlap.ylo, overlap.xlo, overlap.yhi));
  }
  if (overlap.xhi < rect.xhi) {
    out->push_back(Rect(overlap.xhi, overlap.ylo, rect.xhi, overlap.yhi));
  }
}

}  // namespace

Status RPlusTree::InsertRec(PageId page, uint32_t depth, const Rect& rect,
                            TupleId id, std::vector<Entry>* split_out) {
  bool leaf;
  std::vector<Entry> entries;
  CDB_RETURN_IF_ERROR(ReadNode(page, &leaf, &entries));
  const size_t cap = NodeCapacity(pager_->page_size());

  if (leaf) {
    entries.push_back({rect, id});
    if (entries.size() <= cap) {
      return WriteNode(page, true, entries);
    }
    // Overflow: sweep-partition the leaf into groups; keep the first in
    // place, surface the rest to the parent.
    std::vector<E> set;
    for (const Entry& e : entries) set.push_back({e.rect, e.id});
    std::vector<std::vector<E>> groups;
    PartitionRec(std::move(set), std::max<size_t>(1, cap * 7 / 10), &groups);
    for (size_t g = 0; g < groups.size(); ++g) {
      std::vector<Entry> node;
      for (const E& e : groups[g]) node.push_back({e.rect, e.id});
      PageId target = page;
      if (g > 0) {
        Result<PageId> fresh = pager_->Allocate();
        if (!fresh.ok()) return fresh.status();
        target = fresh.value();
        split_out->push_back({MbrOf(groups[g]), target});
      }
      CDB_RETURN_IF_ERROR(WriteNode(target, true, node));
    }
    return Status::OK();
  }

  // Internal node: distribute *disjoint* clipped pieces among the children.
  // Each child receives the parts of the still-uncovered remainder that its
  // region covers; the remainder then shrinks. (Clipping against every
  // overlapping child independently would insert overlapping areas into
  // several children — a duplication feedback loop once child regions
  // overlap, which blows the tree up super-linearly.) Whatever stays
  // uncovered goes to the child needing the least enlargement.
  std::vector<Rect> uncovered{rect};
  std::vector<Entry> pending_splits;
  bool dirty = false;
  for (Entry& child : entries) {
    if (uncovered.empty()) break;
    std::vector<Rect> next;
    for (const Rect& u : uncovered) {
      Rect piece = u.Intersection(child.rect);
      if (!piece.IsEmpty() && piece.Area() > 0.0) {
        CDB_RETURN_IF_ERROR(
            InsertRec(child.id, depth + 1, piece, id, &pending_splits));
      }
      SubtractRect(u, child.rect, &next);
    }
    uncovered = std::move(next);
  }
  for (const Rect& piece : uncovered) {
    if (piece.IsEmpty() || piece.Area() == 0.0) continue;
    if (entries.empty()) {
      // Internal node with no children cannot happen (tree grows from a
      // leaf root); guard anyway.
      return Status::Corruption("internal R+-tree node without children");
    }
    size_t best = 0;
    double best_growth = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < entries.size(); ++i) {
      double growth =
          entries[i].rect.Enclose(piece).Area() - entries[i].rect.Area();
      if (growth < best_growth) {
        best_growth = growth;
        best = i;
      }
    }
    entries[best].rect = entries[best].rect.Enclose(piece);
    dirty = true;
    CDB_RETURN_IF_ERROR(
        InsertRec(entries[best].id, depth + 1, piece, id, &pending_splits));
  }
  if (!pending_splits.empty()) {
    for (const Entry& e : pending_splits) entries.push_back(e);
    dirty = true;
  }
  if (entries.size() > cap) {
    // Center-sorted split without downward propagation (overlap allowed).
    std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
      return a.rect.xlo + a.rect.xhi < b.rect.xlo + b.rect.xhi;
    });
    size_t half = entries.size() / 2;
    std::vector<Entry> right(entries.begin() + static_cast<long>(half),
                             entries.end());
    entries.resize(half);
    Result<PageId> fresh = pager_->Allocate();
    if (!fresh.ok()) return fresh.status();
    CDB_RETURN_IF_ERROR(WriteNode(fresh.value(), false, right));
    Rect mbr = Rect::Empty();
    for (const Entry& e : right) mbr = mbr.Enclose(e.rect);
    split_out->push_back({mbr, fresh.value()});
    dirty = true;
  }
  if (dirty) return WriteNode(page, false, entries);
  return Status::OK();
}

Status RPlusTree::Insert(const Rect& rect, TupleId id) {
  if (rect.IsEmpty()) {
    return Status::InvalidArgument("R+-tree entries must be bounded");
  }
  std::vector<Entry> splits;
  CDB_RETURN_IF_ERROR(InsertRec(root_, 0, rect, id, &splits));
  if (!splits.empty()) {
    // Grow a new root above the old one.
    bool leaf;
    std::vector<Entry> old_entries;
    CDB_RETURN_IF_ERROR(ReadNode(root_, &leaf, &old_entries));
    Rect mbr = Rect::Empty();
    for (const Entry& e : old_entries) mbr = mbr.Enclose(e.rect);
    std::vector<Entry> new_root{{mbr, root_}};
    for (const Entry& e : splits) new_root.push_back(e);
    Result<PageId> fresh = pager_->Allocate();
    if (!fresh.ok()) return fresh.status();
    CDB_RETURN_IF_ERROR(WriteNode(fresh.value(), false, new_root));
    root_ = fresh.value();
    ++height_;
  }
  ++count_;
  return Status::OK();
}

// --- Delete -----------------------------------------------------------------

Status RPlusTree::DeleteRec(PageId page, const Rect& rect, TupleId id,
                            uint64_t* removed) {
  bool leaf;
  std::vector<Entry> entries;
  CDB_RETURN_IF_ERROR(ReadNode(page, &leaf, &entries));
  if (leaf) {
    size_t before = entries.size();
    entries.erase(std::remove_if(entries.begin(), entries.end(),
                                 [&](const Entry& e) {
                                   return e.id == id &&
                                          e.rect.Intersects(rect);
                                 }),
                  entries.end());
    if (entries.size() != before) {
      *removed += before - entries.size();
      return WriteNode(page, true, entries);
    }
    return Status::OK();
  }
  for (const Entry& child : entries) {
    if (child.rect.Intersects(rect)) {
      CDB_RETURN_IF_ERROR(DeleteRec(child.id, rect, id, removed));
    }
  }
  return Status::OK();
}

Status RPlusTree::Delete(const Rect& rect, TupleId id) {
  uint64_t removed = 0;
  CDB_RETURN_IF_ERROR(DeleteRec(root_, rect, id, &removed));
  if (removed == 0) return Status::NotFound("object not in tree");
  --count_;
  return Status::OK();
}

// --- Invariants ----------------------------------------------------------------

Status RPlusTree::CheckRec(PageId page, uint32_t depth, const Rect& region,
                           std::vector<Rect>* leaf_regions) const {
  bool leaf;
  std::vector<Entry> entries;
  CDB_RETURN_IF_ERROR(ReadNode(page, &leaf, &entries));
  for (const Entry& e : entries) {
    Rect grown(region.xlo - 1e-9, region.ylo - 1e-9, region.xhi + 1e-9,
               region.yhi + 1e-9);
    if (!grown.Contains(e.rect)) {
      return Status::Corruption("entry escapes its node region");
    }
  }
  if (leaf) {
    if (depth + 1 != height_) return Status::Corruption("leaf at wrong depth");
    Rect mbr = Rect::Empty();
    for (const Entry& e : entries) mbr = mbr.Enclose(e.rect);
    if (!mbr.IsEmpty()) leaf_regions->push_back(mbr);
    return Status::OK();
  }
  if (depth + 1 >= height_) return Status::Corruption("internal too deep");
  for (const Entry& e : entries) {
    CDB_RETURN_IF_ERROR(CheckRec(e.id, depth + 1, e.rect, leaf_regions));
  }
  return Status::OK();
}

Status RPlusTree::CheckInvariants() const {
  std::vector<Rect> leaf_regions;
  Rect everything(-1e300, -1e300, 1e300, 1e300);
  return CheckRec(root_, 0, everything, &leaf_regions);
}

}  // namespace cdb
