#include "btree/bplus_tree.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "btree/node_layout.h"

namespace cdb {

namespace nb = btree_node;

namespace {

constexpr uint64_t kTreeMagic = 0xB7EE1DEA00000001ull;
constexpr uint32_t kTreeFlagAugmented = 1;

// `flags` trails the original fields so pre-augmented meta pages (whose
// bytes there are zero) read back as flags == 0: not augmented.
struct TreeMeta {
  uint64_t magic;
  PageId root;
  uint32_t height;
  uint64_t count;
  uint32_t flags;
};

// Split `total` items into chunk sizes of ~per, keeping every chunk (and
// especially the last) at or above `min`: an underfull tail merges into
// its predecessor when the pair fits one node of capacity `cap`, and is
// rebalanced evenly otherwise (pool > cap >= 2*min guarantees both
// halves reach the minimum).
std::vector<size_t> ChunkSizes(size_t total, size_t per, size_t min,
                               size_t cap) {
  std::vector<size_t> sizes;
  size_t left = total;
  while (left > 0) {
    size_t take = std::min(per, left);
    sizes.push_back(take);
    left -= take;
  }
  if (sizes.size() >= 2 && sizes.back() < min) {
    size_t pool = sizes.back() + sizes[sizes.size() - 2];
    if (pool <= cap) {
      sizes.pop_back();
      sizes.back() = pool;
    } else {
      sizes[sizes.size() - 2] = pool - pool / 2;
      sizes.back() = pool / 2;
    }
  }
  return sizes;
}

}  // namespace

// --- LeafCursor ----------------------------------------------------------

void LeafCursor::Take(const BPlusTree* tree, const PageRef& ref) {
  tree_ = tree;
  data_.assign(ref.data(), ref.data() + tree->pager_->page_size());
  leaf_ = ref.id();
  count_ = nb::Count(data_.data());
  seek_pos_ = 0;
}

Status LeafCursor::Step(PageId id) {
  if (id == kInvalidPageId) {
    leaf_ = kInvalidPageId;
    return Status::OK();
  }
  Result<PageRef> ref = tree_->LoadLeaf(id);
  if (!ref.ok()) return ref.status();
  Take(tree_, ref.value());
  return Status::OK();
}

double LeafCursor::key(int i) const {
  return nb::LeafEntry(data_.data(), static_cast<size_t>(i)).key;
}

uint32_t LeafCursor::value(int i) const {
  return nb::LeafEntry(data_.data(), static_cast<size_t>(i)).value;
}

double LeafCursor::handicap(int slot) const {
  return nb::Handicap(data_.data(), slot);
}

Status LeafCursor::NextLeaf() { return Step(nb::NextLeaf(data_.data())); }

Status LeafCursor::PrevLeaf() { return Step(nb::PrevLeaf(data_.data())); }

// --- Construction --------------------------------------------------------

size_t BPlusTree::LeafCapacity(size_t page_size) {
  return nb::LeafCapacity(page_size);
}

Status BPlusTree::Create(Pager* pager, std::unique_ptr<BPlusTree>* out) {
  return CreateImpl(pager, /*augmented=*/false, out);
}

Status BPlusTree::CreateAugmented(Pager* pager,
                                  std::unique_ptr<BPlusTree>* out) {
  return CreateImpl(pager, /*augmented=*/true, out);
}

Status BPlusTree::CreateImpl(Pager* pager, bool augmented,
                             std::unique_ptr<BPlusTree>* out) {
  Result<PageId> meta = pager->Allocate();
  if (!meta.ok()) return meta.status();
  Result<PageId> root = pager->Allocate();
  if (!root.ok()) return root.status();

  std::unique_ptr<BPlusTree> tree(new BPlusTree(pager, meta.value()));
  tree->root_ = root.value();
  tree->count_ = 0;
  tree->height_ = 1;
  tree->augmented_ = augmented;

  Result<PageRef> ref = pager->Fetch(root.value());
  if (!ref.ok()) return ref.status();
  nb::NodeCodec(augmented).Init(ref.value().data(), /*leaf=*/true);
  ref.value().MarkDirty();

  CDB_RETURN_IF_ERROR(tree->StoreMeta());
  *out = std::move(tree);
  return Status::OK();
}

Status BPlusTree::Open(Pager* pager, PageId meta_page,
                       std::unique_ptr<BPlusTree>* out) {
  std::unique_ptr<BPlusTree> tree(new BPlusTree(pager, meta_page));
  CDB_RETURN_IF_ERROR(tree->LoadMeta());
  *out = std::move(tree);
  return Status::OK();
}

Status BPlusTree::BulkLoad(Pager* pager,
                           std::vector<std::pair<double, uint32_t>> entries,
                           double fill, std::unique_ptr<BPlusTree>* out) {
  std::vector<AugEntry> plain;
  plain.reserve(entries.size());
  for (const auto& [key, value] : entries) plain.push_back({key, value, {}});
  return BulkLoad(pager, std::move(plain), fill, /*augmented=*/false, out);
}

Status BPlusTree::BulkLoad(Pager* pager, std::vector<AugEntry> entries,
                           double fill, bool augmented,
                           std::unique_ptr<BPlusTree>* out) {
  if (!(fill > 0.0 && fill <= 1.0)) {
    return Status::InvalidArgument("fill factor must be in (0, 1]");
  }
  for (const AugEntry& e : entries) {
    if (std::isnan(e.key)) return Status::InvalidArgument("NaN key");
    for (int s = 0; augmented && s < nb::kHandicapSlots; ++s) {
      if (std::isnan(e.m[s])) {
        return Status::InvalidArgument("NaN assignment value");
      }
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const AugEntry& a, const AugEntry& b) {
              return nb::CKeyLess({a.key, a.value}, {b.key, b.value});
            });
  for (size_t i = 1; i < entries.size(); ++i) {
    if (entries[i].key == entries[i - 1].key &&
        entries[i].value == entries[i - 1].value) {
      return Status::InvalidArgument("duplicate (key, value) pair");
    }
  }

  Result<PageId> meta = pager->Allocate();
  if (!meta.ok()) return meta.status();
  std::unique_ptr<BPlusTree> tree(new BPlusTree(pager, meta.value()));
  tree->count_ = entries.size();
  tree->augmented_ = augmented;

  const nb::NodeCodec nc(augmented);
  const size_t page_size = pager->page_size();
  const size_t leaf_cap = nc.Capacity(/*leaf=*/true, page_size);
  const size_t leaf_min = leaf_cap / 2;

  // --- Leaves (one packing for both layouts, so an augmented build has
  // the leaf structure — and every sweep the page count — of an ordinary
  // one). A node's child slot carries its slot fold as the aggregate,
  // which only the augmented layout stores.
  struct ChildRef {
    nb::CKey first;
    nb::ChildSlot child;
  };
  std::vector<ChildRef> level;
  size_t per_leaf = std::max<size_t>(
      1, static_cast<size_t>(static_cast<double>(leaf_cap) * fill));
  per_leaf = std::max(per_leaf, std::min(leaf_min, entries.size()));
  std::vector<size_t> sizes =
      entries.empty()
          ? std::vector<size_t>{0}
          : ChunkSizes(entries.size(), per_leaf, leaf_min, leaf_cap);
  size_t pos = 0;
  PageId prev_leaf = kInvalidPageId;
  for (size_t si = 0; si < sizes.size(); ++si) {
    Result<PageId> page = pager->Allocate();
    if (!page.ok()) return page.status();
    Result<PageRef> ref = pager->Fetch(page.value());
    if (!ref.ok()) return ref.status();
    char* p = ref.value().data();
    nc.Init(p, /*leaf=*/true);
    nb::SetCount(p, static_cast<uint16_t>(sizes[si]));
    nb::SetPrevLeaf(p, prev_leaf);
    for (size_t i = 0; i < sizes[si]; ++i, ++pos) {
      nb::SetLeafEntry(p, i, {entries[pos].key, entries[pos].value});
      for (int s = 0; augmented && s < nb::kHandicapSlots; ++s) {
        nc.FoldSlot(p, s, entries[pos].m[s]);
      }
    }
    if (prev_leaf != kInvalidPageId) {
      Result<PageRef> pref = pager->Fetch(prev_leaf);
      if (!pref.ok()) return pref.status();
      nb::SetNextLeaf(pref.value().data(), page.value());
      pref.value().MarkDirty();
    }
    ref.value().MarkDirty();
    ChildRef cr;
    cr.first = sizes[si] > 0 ? nb::LeafEntry(p, 0) : nb::CKey{0.0, 0};
    cr.child.page = page.value();
    for (int s = 0; s < nb::kHandicapSlots; ++s) {
      cr.child.agg[s] = nb::Handicap(p, s);
    }
    level.push_back(cr);
    prev_leaf = page.value();
  }

  // --- Internal levels.
  const size_t icap = nc.Capacity(/*leaf=*/false, page_size);
  const size_t max_children = icap + 1;
  const size_t min_children = icap / 2 + 1;
  uint32_t height = 1;
  while (level.size() > 1) {
    size_t per = std::max<size_t>(
        2, static_cast<size_t>(static_cast<double>(max_children) * fill));
    std::vector<size_t> group =
        ChunkSizes(level.size(), per, min_children, max_children);
    std::vector<ChildRef> next;
    size_t at = 0;
    for (size_t gi = 0; gi < group.size(); ++gi) {
      Result<PageId> page = pager->Allocate();
      if (!page.ok()) return page.status();
      Result<PageRef> ref = pager->Fetch(page.value());
      if (!ref.ok()) return ref.status();
      char* p = ref.value().data();
      nc.Init(p, /*leaf=*/false);
      ChildRef cr;
      cr.first = level[at].first;
      cr.child.page = page.value();
      nb::NodeCodec::NeutralAgg(cr.child.agg);
      for (size_t i = 0; i < group[gi]; ++i) {
        const ChildRef& child = level[at + i];
        if (i == 0) {
          nc.SetChild(p, 0, child.child);
        } else {
          nc.InsertEntry(p, i - 1, child.first, child.child);
        }
        nb::NodeCodec::FoldAgg(cr.child.agg, child.child.agg);
      }
      ref.value().MarkDirty();
      next.push_back(cr);
      at += group[gi];
    }
    level = std::move(next);
    ++height;
  }
  tree->root_ = level.front().child.page;
  tree->height_ = height;
  CDB_RETURN_IF_ERROR(tree->StoreMeta());
  *out = std::move(tree);
  return Status::OK();
}

Status BPlusTree::LoadMeta() {
  Result<PageRef> ref = pager_->Fetch(meta_page_);
  if (!ref.ok()) return ref.status();
  TreeMeta meta;
  std::memcpy(&meta, ref.value().data(), sizeof(meta));
  if (meta.magic != kTreeMagic) {
    return Status::Corruption("bad B+-tree meta magic");
  }
  root_ = meta.root;
  height_ = meta.height;
  count_ = meta.count;
  augmented_ = (meta.flags & kTreeFlagAugmented) != 0;
  return Status::OK();
}

Status BPlusTree::StoreMeta() {
  Result<PageRef> ref = pager_->Fetch(meta_page_);
  if (!ref.ok()) return ref.status();
  TreeMeta meta{};  // Zero padding too: the page bytes are checksummed.
  meta.magic = kTreeMagic;
  meta.root = root_;
  meta.height = height_;
  meta.count = count_;
  meta.flags = augmented_ ? kTreeFlagAugmented : 0;
  std::memcpy(ref.value().data(), &meta, sizeof(meta));
  ref.value().MarkDirty();
  return Status::OK();
}

Status BPlusTree::ReadView(PageId* root, uint32_t* height) const {
  if (pager_->InSwmrReadContext()) {
    // Single-writer mode, reader thread: the members are the writer's live
    // state. Descend from the last committed meta instead (one extra
    // logical fetch, paid only in this mode).
    Result<PageRef> ref = pager_->Fetch(meta_page_);
    if (!ref.ok()) return ref.status();
    TreeMeta meta;
    std::memcpy(&meta, ref.value().data(), sizeof(meta));
    if (meta.magic != kTreeMagic) {
      return Status::Corruption("bad B+-tree meta magic");
    }
    *root = meta.root;
    *height = meta.height;
    return Status::OK();
  }
  *root = root_;
  *height = height_;
  return Status::OK();
}

// --- Insert ---------------------------------------------------------------

Status BPlusTree::Insert(double key, uint32_t value) {
  if (augmented_) {
    return Status::InvalidArgument(
        "augmented tree requires InsertWithAssignment");
  }
  return InsertImpl(key, value, nullptr);
}

Status BPlusTree::InsertWithAssignment(double key, uint32_t value,
                                       const double* m) {
  if (!augmented_) {
    return Status::InvalidArgument(
        "InsertWithAssignment requires an augmented tree");
  }
  for (int s = 0; s < nb::kHandicapSlots; ++s) {
    if (std::isnan(m[s])) {
      return Status::InvalidArgument("NaN assignment value");
    }
  }
  return InsertImpl(key, value, m);
}

Status BPlusTree::InsertImpl(double key, uint32_t value, const double* m) {
  if (std::isnan(key)) return Status::InvalidArgument("NaN key");
  SplitResult split;
  CDB_RETURN_IF_ERROR(InsertRec(root_, key, value, m, &split));
  if (split.split) {
    Result<PageId> new_root = pager_->Allocate();
    if (!new_root.ok()) return new_root.status();
    Result<PageRef> ref = pager_->Fetch(new_root.value());
    if (!ref.ok()) return ref.status();
    const nb::NodeCodec nc(augmented_);
    char* p = ref.value().data();
    nc.Init(p, /*leaf=*/false);
    nc.SetChild(p, 0, {root_, {}});
    nc.InsertEntry(p, 0, {split.sep_key, split.sep_value}, {split.right, {}});
    CDB_RETURN_IF_ERROR(RefreshAggs(&ref.value(), 0, 1));
    ref.value().MarkDirty();
    root_ = new_root.value();
    ++height_;
  }
  ++count_;
  return StoreMeta();
}

Status BPlusTree::InsertRec(PageId page, double key, uint32_t value,
                            const double* m, SplitResult* out) {
  out->split = false;
  Result<PageRef> ref = LoadNode(page);
  if (!ref.ok()) return ref.status();
  const nb::NodeCodec nc(augmented_);
  char* p = ref.value().data();
  const nb::CKey ckey{key, value};

  if (nb::IsLeaf(p)) {
    size_t pos = nb::LeafLowerBound(p, ckey);
    uint16_t n = nb::Count(p);
    if (pos < n && nb::CKeyEq(nb::LeafEntry(p, pos), ckey)) {
      return Status::InvalidArgument("duplicate (key, value) pair");
    }
    if (n < nc.Capacity(/*leaf=*/true, pager_->page_size())) {
      nb::InsertLeafEntry(p, pos, ckey);
      if (augmented_) {
        // Local slots: folding the new entry's assignments is exact.
        for (int s = 0; s < nb::kHandicapSlots; ++s) nc.FoldSlot(p, s, m[s]);
      }
      ref.value().MarkDirty();
      return Status::OK();
    }
    // Split: upper half moves to a fresh right sibling.
    Result<PageId> right_id = pager_->Allocate();
    if (!right_id.ok()) return right_id.status();
    Result<PageRef> rref = pager_->Fetch(right_id.value());
    if (!rref.ok()) return rref.status();
    char* r = rref.value().data();
    nc.Init(r, /*leaf=*/true);
    size_t half = n / 2;
    nc.AppendEntries(r, p, half, n);
    nb::SetCount(p, static_cast<uint16_t>(half));
    // Chain links.
    PageId old_next = nb::NextLeaf(p);
    nb::SetNextLeaf(r, old_next);
    nb::SetPrevLeaf(r, page);
    nb::SetNextLeaf(p, right_id.value());
    if (old_next != kInvalidPageId) {
      Result<PageRef> nref = LoadNode(old_next);
      if (!nref.ok()) return nref.status();
      nb::SetPrevLeaf(nref.value().data(), right_id.value());
      nref.value().MarkDirty();
    }
    // Place the new entry.
    nb::CKey sep = nb::LeafEntry(r, 0);
    if (nb::CKeyLess(ckey, sep)) {
      nb::InsertLeafEntry(p, nb::LeafLowerBound(p, ckey), ckey);
    } else {
      nb::InsertLeafEntry(r, nb::LeafLowerBound(r, ckey), ckey);
    }
    if (augmented_) {
      // Local slots are recomputed exactly for both halves (the entries
      // moved, so each half's fold changed); the callback resolves every
      // entry's assignments, including the one just placed.
      CDB_RETURN_IF_ERROR(RecomputeLeafLocal(p));
      CDB_RETURN_IF_ERROR(RecomputeLeafLocal(r));
    } else {
      // Handicaps: both halves inherit the original slots (conservative —
      // never loses a qualifying tuple; see DESIGN.md). This is the event
      // that smears near-global bounds across leaves, so count it.
      for (int s = 0; s < nb::kHandicapSlots; ++s) {
        nb::SetHandicap(r, s, nb::Handicap(p, s));
      }
      ++handicap_staleness_;
    }
    ref.value().MarkDirty();
    rref.value().MarkDirty();
    out->split = true;
    sep = nb::LeafEntry(r, 0);
    out->sep_key = sep.key;
    out->sep_value = sep.value;
    out->right = right_id.value();
    return Status::OK();
  }

  // Internal node.
  size_t idx = nc.Descend(p, ckey);
  SplitResult child_split;
  CDB_RETURN_IF_ERROR(
      InsertRec(nc.ChildPage(p, idx), key, value, m, &child_split));
  if (!child_split.split) return RefreshAggs(&ref.value(), idx, idx);

  nc.InsertEntry(p, idx, {child_split.sep_key, child_split.sep_value},
                 {child_split.right, {}});
  CDB_RETURN_IF_ERROR(RefreshAggs(&ref.value(), idx, idx + 1));
  ref.value().MarkDirty();
  uint16_t n = nb::Count(p);
  if (n <= nc.Capacity(/*leaf=*/false, pager_->page_size())) {
    return Status::OK();
  }

  // Split the internal node; the middle key is promoted (not kept).
  Result<PageId> right_id = pager_->Allocate();
  if (!right_id.ok()) return right_id.status();
  Result<PageRef> rref = pager_->Fetch(right_id.value());
  if (!rref.ok()) return rref.status();
  char* r = rref.value().data();
  nc.Init(r, /*leaf=*/false);
  size_t mid = n / 2;
  nb::CKey promoted = nc.Key(p, mid);
  nc.SetChild(r, 0, nc.Child(p, mid + 1));
  nc.AppendEntries(r, p, mid + 1, n);
  nb::SetCount(p, static_cast<uint16_t>(mid));
  rref.value().MarkDirty();
  out->split = true;
  out->sep_key = promoted.key;
  out->sep_value = promoted.value;
  out->right = right_id.value();
  return Status::OK();
}

// --- Delete ---------------------------------------------------------------

Status BPlusTree::Delete(double key, uint32_t value) {
  if (std::isnan(key)) return Status::InvalidArgument("NaN key");
  double m[nb::kHandicapSlots];
  const double* removed_m = nullptr;
  if (augmented_) {
    if (!assignment_fn_) {
      return Status::InvalidArgument(
          "augmented tree mutation without an assignment callback");
    }
    CDB_RETURN_IF_ERROR(assignment_fn_(value, m));
    removed_m = m;
  }
  bool underflow = false;
  CDB_RETURN_IF_ERROR(DeleteRec(root_, key, value, removed_m, &underflow));
  if (!augmented_) {
    // The removed tuple's folded contributions stay behind in the slots.
    ++handicap_staleness_;
  }
  // Shrink the root when an internal root has a single child.
  Result<PageRef> ref = LoadNode(root_);
  if (!ref.ok()) return ref.status();
  char* p = ref.value().data();
  if (!nb::IsLeaf(p) && nb::Count(p) == 0) {
    PageId only_child = nb::NodeCodec(augmented_).ChildPage(p, 0);
    PageId old_root = root_;
    ref.value().Release();
    CDB_RETURN_IF_ERROR(pager_->Free(old_root));
    root_ = only_child;
    --height_;
  }
  --count_;
  return StoreMeta();
}

Status BPlusTree::DeleteRec(PageId page, double key, uint32_t value,
                            const double* removed_m, bool* underflow) {
  *underflow = false;
  Result<PageRef> ref = LoadNode(page);
  if (!ref.ok()) return ref.status();
  const nb::NodeCodec nc(augmented_);
  char* p = ref.value().data();
  const nb::CKey ckey{key, value};

  if (nb::IsLeaf(p)) {
    size_t pos = nb::LeafLowerBound(p, ckey);
    if (pos >= nb::Count(p) || !nb::CKeyEq(nb::LeafEntry(p, pos), ckey)) {
      return Status::NotFound("(key, value) pair not in tree");
    }
    nb::RemoveLeafEntry(p, pos);
    if (augmented_) {
      // Only an extremal contributor can change a slot's fold; recompute
      // the leaf when the removed assignments touch any slot value.
      bool extremal = false;
      for (int s = 0; s < nb::kHandicapSlots; ++s) {
        if (removed_m[s] == nb::Handicap(p, s)) extremal = true;
      }
      if (extremal) CDB_RETURN_IF_ERROR(RecomputeLeafLocal(p));
    }
    ref.value().MarkDirty();
    *underflow =
        nb::Count(p) < nc.Capacity(/*leaf=*/true, pager_->page_size()) / 2;
    return Status::OK();
  }

  size_t idx = nc.Descend(p, ckey);
  bool child_underflow = false;
  CDB_RETURN_IF_ERROR(DeleteRec(nc.ChildPage(p, idx), key, value, removed_m,
                                &child_underflow));
  if (child_underflow) {
    CDB_RETURN_IF_ERROR(FixUnderflow(p, idx));
    ref.value().MarkDirty();
    // The fix touched child idx and at most one neighbor (and may have
    // removed one): the surviving children in that window changed.
    CDB_RETURN_IF_ERROR(RefreshAggs(&ref.value(), idx > 0 ? idx - 1 : 0,
                                    std::min<size_t>(idx + 1, nb::Count(p))));
  } else {
    CDB_RETURN_IF_ERROR(RefreshAggs(&ref.value(), idx, idx));
  }
  *underflow =
      nb::Count(p) < nc.Capacity(/*leaf=*/false, pager_->page_size()) / 2;
  return Status::OK();
}

Status BPlusTree::FixUnderflow(char* parent, size_t child_idx) {
  const nb::NodeCodec nc(augmented_);
  uint16_t pcount = nb::Count(parent);
  PageId child_id = nc.ChildPage(parent, child_idx);
  Result<PageRef> cref = LoadNode(child_id);
  if (!cref.ok()) return cref.status();
  char* c = cref.value().data();
  const bool leaves = nb::IsLeaf(c);
  const size_t min_count = nc.Capacity(leaves, pager_->page_size()) / 2;

  PageId left_id =
      child_idx > 0 ? nc.ChildPage(parent, child_idx - 1) : kInvalidPageId;
  PageId right_id = child_idx < pcount ? nc.ChildPage(parent, child_idx + 1)
                                       : kInvalidPageId;

  // A leaf borrow moved an entry between `sibling` and the child, so both
  // leaves' key ranges shifted.
  auto borrowed_slots = [&](char* sibling) -> Status {
    if (augmented_) {
      // Both local folds changed; recompute them exactly.
      CDB_RETURN_IF_ERROR(RecomputeLeafLocal(sibling));
      return RecomputeLeafLocal(c);
    }
    // Conservatively combine the slots into both.
    for (int s = 0; s < nb::kHandicapSlots; ++s) {
      nc.FoldSlot(sibling, s, nb::Handicap(c, s));
      nb::SetHandicap(c, s, nb::Handicap(sibling, s));
    }
    ++handicap_staleness_;
    return Status::OK();
  };

  // --- Try borrowing from the left sibling.
  if (left_id != kInvalidPageId) {
    Result<PageRef> lref = LoadNode(left_id);
    if (!lref.ok()) return lref.status();
    char* l = lref.value().data();
    if (nb::Count(l) > min_count) {
      const size_t last = nb::Count(l) - 1;
      if (leaves) {
        nb::CKey moved = nb::LeafEntry(l, last);
        nb::RemoveLeafEntry(l, last);
        nb::InsertLeafEntry(c, 0, moved);
        nc.SetKey(parent, child_idx - 1, moved);
        CDB_RETURN_IF_ERROR(borrowed_slots(l));
      } else {
        // Rotate through the parent separator: l's last child becomes the
        // child's first.
        nc.InsertEntry(c, 0, nc.Key(parent, child_idx - 1), nc.Child(c, 0));
        nc.SetChild(c, 0, nc.Child(l, last + 1));
        nc.SetKey(parent, child_idx - 1, nc.Key(l, last));
        nc.RemoveEntry(l, last);
      }
      lref.value().MarkDirty();
      cref.value().MarkDirty();
      return Status::OK();
    }
  }

  // --- Try borrowing from the right sibling.
  if (right_id != kInvalidPageId) {
    Result<PageRef> rref = LoadNode(right_id);
    if (!rref.ok()) return rref.status();
    char* r = rref.value().data();
    if (nb::Count(r) > min_count) {
      if (leaves) {
        nb::CKey moved = nb::LeafEntry(r, 0);
        nb::RemoveLeafEntry(r, 0);
        nb::InsertLeafEntry(c, nb::Count(c), moved);
        nc.SetKey(parent, child_idx, nb::LeafEntry(r, 0));
        CDB_RETURN_IF_ERROR(borrowed_slots(r));
      } else {
        // Rotate through the parent separator: r's first child becomes the
        // child's last.
        nc.InsertEntry(c, nb::Count(c), nc.Key(parent, child_idx),
                       nc.Child(r, 0));
        nc.SetKey(parent, child_idx, nc.Key(r, 0));
        nc.SetChild(r, 0, nc.Child(r, 1));
        nc.RemoveEntry(r, 0);
      }
      rref.value().MarkDirty();
      cref.value().MarkDirty();
      return Status::OK();
    }
  }

  // --- Merge. Prefer merging `child` into the left sibling; otherwise pull
  // the right sibling into `child`.
  if (left_id != kInvalidPageId) {
    Result<PageRef> lref = LoadNode(left_id);
    if (!lref.ok()) return lref.status();
    return MergeNodes(parent, child_idx - 1, &lref.value(), &cref.value());
  }
  if (right_id != kInvalidPageId) {
    Result<PageRef> rref = LoadNode(right_id);
    if (!rref.ok()) return rref.status();
    return MergeNodes(parent, child_idx, &cref.value(), &rref.value());
  }

  // No siblings: only possible at the root, which has no minimum.
  return Status::OK();
}

Status BPlusTree::MergeNodes(char* parent, size_t sep_idx, PageRef* lref,
                             PageRef* rref) {
  const nb::NodeCodec nc(augmented_);
  char* l = lref->data();
  const char* r = rref->data();
  if (nb::IsLeaf(l)) {
    nc.AppendEntries(l, r, 0, nb::Count(r));
    PageId next = nb::NextLeaf(r);
    nb::SetNextLeaf(l, next);
    if (next != kInvalidPageId) {
      Result<PageRef> nref = LoadNode(next);
      if (!nref.ok()) return nref.status();
      nb::SetPrevLeaf(nref.value().data(), lref->id());
      nref.value().MarkDirty();
    }
    // The fold of two local folds is their union's (exact); ordinary slots
    // combine conservatively.
    for (int s = 0; s < nb::kHandicapSlots; ++s) {
      nc.FoldSlot(l, s, nb::Handicap(r, s));
    }
    if (!augmented_) ++handicap_staleness_;
  } else {
    nc.InsertEntry(l, nb::Count(l), nc.Key(parent, sep_idx), nc.Child(r, 0));
    nc.AppendEntries(l, r, 0, nb::Count(r));
  }
  lref->MarkDirty();
  nc.RemoveEntry(parent, sep_idx);
  const PageId r_id = rref->id();
  rref->Release();
  return pager_->Free(r_id);
}

// --- Lookup / cursors ------------------------------------------------------

Result<PageRef> BPlusTree::LoadNode(PageId page) const {
  Result<PageRef> ref = pager_->Fetch(page);
  if (!ref.ok()) return ref;
  const char* p = ref.value().data();
  if (nb::Count(p) > nb::NodeCodec(augmented_).Room(p, pager_->page_size())) {
    return Status::Corruption("B+-tree page " + std::to_string(page) +
                              " count exceeds its capacity");
  }
  return ref;
}

Result<PageRef> BPlusTree::LoadLeaf(PageId page) const {
  Result<PageRef> ref = LoadNode(page);
  if (ref.ok() && !nb::IsLeaf(ref.value().data())) {
    return Status::Corruption("leaf chain reached a non-leaf page");
  }
  return ref;
}

Result<PageRef> BPlusTree::DescendToLeaf(double key, uint32_t value) const {
  PageId page;
  uint32_t height;
  CDB_RETURN_IF_ERROR(ReadView(&page, &height));
  const nb::NodeCodec nc(augmented_);
  const nb::CKey ckey{key, value};
  for (uint32_t level = 0; level < height + 2; ++level) {
    Result<PageRef> ref = LoadNode(page);
    if (!ref.ok() || nb::IsLeaf(ref.value().data())) return ref;
    const char* p = ref.value().data();
    page = nc.ChildPage(p, nc.Descend(p, ckey));
  }
  return Status::Corruption("B+-tree deeper than recorded height");
}

Result<bool> BPlusTree::Contains(double key, uint32_t value) const {
  if (std::isnan(key)) return Status::InvalidArgument("NaN key");
  Result<PageRef> ref = DescendToLeaf(key, value);
  if (!ref.ok()) return ref.status();
  const char* p = ref.value().data();
  const nb::CKey ckey{key, value};
  size_t pos = nb::LeafLowerBound(p, ckey);
  return pos < nb::Count(p) && nb::CKeyEq(nb::LeafEntry(p, pos), ckey);
}

Status BPlusTree::SeekLeaf(double key, LeafCursor* out) const {
  if (std::isnan(key)) return Status::InvalidArgument("NaN key");
  Result<PageRef> ref = DescendToLeaf(key, 0);
  if (!ref.ok()) return ref.status();
  out->Take(this, ref.value());
  out->seek_pos_ = static_cast<int>(
      nb::LeafLowerBound(out->data_.data(), nb::CKey{key, 0}));
  return Status::OK();
}

Status BPlusTree::SeekLeafPast(double key, LeafCursor* out) const {
  if (std::isnan(key)) return Status::InvalidArgument("NaN key");
  const nb::CKey past{key, std::numeric_limits<uint32_t>::max()};
  Result<PageRef> ref = DescendToLeaf(past.key, past.value);
  if (!ref.ok()) return ref.status();
  out->Take(this, ref.value());
  int pos = static_cast<int>(nb::LeafLowerBound(out->data_.data(), past));
  if (pos < out->count_ && out->key(pos) == key) ++pos;  // (key, max value).
  out->seek_pos_ = pos;
  return Status::OK();
}

Status BPlusTree::SeekFirstLeaf(LeafCursor* out) const {
  return SeekLeaf(-std::numeric_limits<double>::infinity(), out);
}

// --- Handicaps --------------------------------------------------------------

Status BPlusTree::MergeHandicap(double at, int slot, double v) {
  if (augmented_) {
    return Status::InvalidArgument(
        "MergeHandicap on an augmented tree (slots are maintained "
        "incrementally)");
  }
  if (std::isnan(at) || std::isnan(v)) {
    return Status::InvalidArgument("NaN handicap");
  }
  if (slot < 0 || slot >= nb::kHandicapSlots) {
    return Status::InvalidArgument("handicap slot out of range");
  }
  Result<PageRef> ref = DescendToLeaf(at, 0);
  if (!ref.ok()) return ref.status();
  nb::NodeCodec(augmented_).FoldSlot(ref.value().data(), slot, v);
  ref.value().MarkDirty();
  return Status::OK();
}

Status BPlusTree::HandicapLeaf(double at, PageId* leaf) const {
  if (std::isnan(at)) return Status::InvalidArgument("NaN handicap key");
  Result<PageRef> ref = DescendToLeaf(at, 0);
  if (!ref.ok()) return ref.status();
  *leaf = ref.value().id();
  return Status::OK();
}

Status BPlusTree::ResetHandicaps() {
  if (augmented_) {
    return Status::InvalidArgument(
        "ResetHandicaps on an augmented tree (use RecomputeAugmented)");
  }
  const nb::NodeCodec nc(augmented_);
  Result<PageRef> ref =
      DescendToLeaf(-std::numeric_limits<double>::infinity(), 0);
  while (ref.ok()) {
    char* p = ref.value().data();
    nc.ResetSlots(p);
    ref.value().MarkDirty();
    const PageId next = nb::NextLeaf(p);
    if (next == kInvalidPageId) break;
    ref.value().Release();
    ref = LoadLeaf(next);
  }
  if (!ref.ok()) return ref.status();
  handicap_staleness_ = 0;
  return Status::OK();
}

// --- Augmented maintenance --------------------------------------------------

Status BPlusTree::NodeAggregate(PageId page, double* out) const {
  Result<PageRef> ref = LoadNode(page);
  if (!ref.ok()) return ref.status();
  const char* p = ref.value().data();
  if (nb::IsLeaf(p)) {
    for (int s = 0; s < nb::kHandicapSlots; ++s) {
      out[s] = nb::Handicap(p, s);
    }
    return Status::OK();
  }
  const nb::NodeCodec nc(augmented_);
  nb::NodeCodec::NeutralAgg(out);
  uint16_t n = nb::Count(p);
  for (size_t i = 0; i <= n; ++i) {
    nb::NodeCodec::FoldAgg(out, nc.Child(p, i).agg);
  }
  return Status::OK();
}

Status BPlusTree::RefreshAggs(PageRef* parent, size_t lo, size_t hi) {
  if (!augmented_) return Status::OK();
  const nb::NodeCodec nc(augmented_);
  for (size_t i = lo; i <= hi; ++i) {
    nb::ChildSlot c{nc.ChildPage(parent->data(), i), {}};
    CDB_RETURN_IF_ERROR(NodeAggregate(c.page, c.agg));
    nc.SetChild(parent->data(), i, c);
  }
  parent->MarkDirty();
  return Status::OK();
}

Status BPlusTree::RecomputeLeafLocal(char* p) {
  if (!assignment_fn_) {
    return Status::InvalidArgument(
        "augmented tree mutation without an assignment callback");
  }
  const nb::NodeCodec nc(augmented_);
  nc.ResetSlots(p);
  uint16_t n = nb::Count(p);
  for (size_t i = 0; i < n; ++i) {
    double m[nb::kHandicapSlots];
    CDB_RETURN_IF_ERROR(assignment_fn_(nb::LeafEntry(p, i).value, m));
    for (int s = 0; s < nb::kHandicapSlots; ++s) nc.FoldSlot(p, s, m[s]);
  }
  return Status::OK();
}

Status BPlusTree::RecomputeAggRec(PageId page, double* out) {
  Result<PageRef> ref = LoadNode(page);
  if (!ref.ok()) return ref.status();
  char* p = ref.value().data();
  if (nb::IsLeaf(p)) {
    CDB_RETURN_IF_ERROR(RecomputeLeafLocal(p));
    ref.value().MarkDirty();
    for (int s = 0; s < nb::kHandicapSlots; ++s) {
      out[s] = nb::Handicap(p, s);
    }
    return Status::OK();
  }
  const nb::NodeCodec nc(augmented_);
  nb::NodeCodec::NeutralAgg(out);
  uint16_t n = nb::Count(p);
  // Copy the children and release the pin before recursing (pool hygiene),
  // then re-fetch to store the recomputed aggregates.
  std::vector<nb::ChildSlot> children(n + 1);
  for (size_t i = 0; i <= n; ++i) children[i].page = nc.ChildPage(p, i);
  ref.value().Release();
  for (nb::ChildSlot& c : children) {
    CDB_RETURN_IF_ERROR(RecomputeAggRec(c.page, c.agg));
    nb::NodeCodec::FoldAgg(out, c.agg);
  }
  Result<PageRef> wref = pager_->Fetch(page);
  if (!wref.ok()) return wref.status();
  for (size_t i = 0; i <= n; ++i) {
    nc.SetChild(wref.value().data(), i, children[i]);
  }
  wref.value().MarkDirty();
  return Status::OK();
}

Status BPlusTree::RecomputeAugmented() {
  if (!augmented_) {
    return Status::InvalidArgument(
        "RecomputeAugmented on an ordinary tree (use ResetHandicaps + "
        "MergeHandicap)");
  }
  double root_agg[nb::kHandicapSlots];
  return RecomputeAggRec(root_, root_agg);
}

Status BPlusTree::SecondSweepBound(int slot, double b, bool* have,
                                   double* bound) const {
  if (!augmented_) {
    return Status::InvalidArgument("SecondSweepBound on an ordinary tree");
  }
  if (slot < 0 || slot >= nb::kHandicapSlots) {
    return Status::InvalidArgument("handicap slot out of range");
  }
  if (std::isnan(b)) return Status::InvalidArgument("NaN bound");
  *have = false;
  const nb::NodeCodec nc(augmented_);
  const bool low = slot < 2;  // Low slots fold by max, qualify by m >= b.
  PageId page;
  uint32_t height;
  CDB_RETURN_IF_ERROR(ReadView(&page, &height));
  for (uint32_t level = 0; level < height + 2; ++level) {
    Result<PageRef> ref = LoadNode(page);
    if (!ref.ok()) return ref.status();
    const char* p = ref.value().data();
    if (nb::IsLeaf(p)) {
      uint16_t n = nb::Count(p);
      double h = nb::Handicap(p, slot);
      if (n == 0 || (low ? h < b : h > b)) return Status::OK();
      // Conservative by at most this one leaf: the qualifying entry is in
      // here somewhere, so its first (low) / last (high) key bounds it.
      *have = true;
      *bound = nb::LeafEntry(p, low ? 0 : n - 1).key;
      return Status::OK();
    }
    uint16_t n = nb::Count(p);
    bool found = false;
    if (low) {
      // Leftmost child whose subtree holds an entry with m_slot >= b.
      for (size_t i = 0; i <= n && !found; ++i) {
        const nb::ChildSlot c = nc.Child(p, i);
        if (c.agg[slot] >= b) {
          page = c.page;
          found = true;
        }
      }
    } else {
      // Rightmost child whose subtree holds an entry with m_slot <= b.
      for (size_t i = n + 1; i-- > 0 && !found;) {
        const nb::ChildSlot c = nc.Child(p, i);
        if (c.agg[slot] <= b) {
          page = c.page;
          found = true;
        }
      }
    }
    if (!found) return Status::OK();  // No entry qualifies: skip the sweep.
  }
  return Status::Corruption("B+-tree deeper than recorded height");
}

// --- Invariant checking -------------------------------------------------------

Status BPlusTree::CheckNode(PageId page, bool has_lo, double lo_key,
                            uint32_t lo_val, bool has_hi, double hi_key,
                            uint32_t hi_val, uint32_t depth,
                            uint64_t* entries, double* agg_out) const {
  const nb::NodeCodec nc(augmented_);
  Result<PageRef> ref = LoadNode(page);
  if (!ref.ok()) return ref.status();
  const char* p = ref.value().data();
  const nb::CKey lo{lo_key, lo_val}, hi{hi_key, hi_val};
  if (augmented_ && !nc.Stamped(p)) {
    return Status::Corruption("augmented tree node missing layout stamp");
  }

  if (nb::IsLeaf(p)) {
    if (depth + 1 != height_) {
      return Status::Corruption("leaf at wrong depth");
    }
    uint16_t n = nb::Count(p);
    if (page != root_ &&
        n < nc.Capacity(/*leaf=*/true, pager_->page_size()) / 2) {
      return Status::Corruption("leaf under minimum occupancy");
    }
    for (size_t i = 0; i < n; ++i) {
      nb::CKey e = nb::LeafEntry(p, i);
      if (std::isnan(e.key)) return Status::Corruption("NaN key in leaf");
      if (i > 0 && !nb::CKeyLess(nb::LeafEntry(p, i - 1), e)) {
        return Status::Corruption("leaf entries out of order");
      }
      if (has_lo && nb::CKeyLess(e, lo)) {
        return Status::Corruption("leaf entry below separator bound");
      }
      if (has_hi && !nb::CKeyLess(e, hi)) {
        return Status::Corruption("leaf entry above separator bound");
      }
    }
    *entries += n;
    if (agg_out != nullptr) {
      for (int s = 0; s < nb::kHandicapSlots; ++s) {
        agg_out[s] = nb::Handicap(p, s);
      }
    }
    return Status::OK();
  }

  if (depth + 1 >= height_) return Status::Corruption("internal too deep");
  uint16_t n = nb::Count(p);
  if (page != root_ &&
      n < nc.Capacity(/*leaf=*/false, pager_->page_size()) / 2) {
    return Status::Corruption("internal node under minimum occupancy");
  }
  if (page == root_ && n == 0 && height_ > 1) {
    return Status::Corruption("internal root with single child not shrunk");
  }
  for (size_t i = 0; i < n; ++i) {
    nb::CKey k = nc.Key(p, i);
    if (i > 0 && !nb::CKeyLess(nc.Key(p, i - 1), k)) {
      return Status::Corruption("internal keys out of order");
    }
    if (has_lo && nb::CKeyLess(k, lo)) {
      return Status::Corruption("internal key below bound");
    }
    if (has_hi && !nb::CKeyLess(k, hi)) {
      return Status::Corruption("internal key above bound");
    }
  }
  // Recurse with refined bounds. Copy what we need, then release the pin so
  // deep trees do not exhaust the buffer pool. `agg_out` is set only on
  // augmented trees, whose stored aggregates are checked against the fold
  // of each child subtree.
  std::vector<nb::CKey> keys(n);
  std::vector<nb::ChildSlot> children(n + 1);
  for (size_t i = 0; i < n; ++i) keys[i] = nc.Key(p, i);
  for (size_t i = 0; i <= n; ++i) children[i] = nc.Child(p, i);
  ref.value().Release();
  if (agg_out != nullptr) nb::NodeCodec::NeutralAgg(agg_out);
  for (size_t i = 0; i <= n; ++i) {
    bool clo = i > 0 || has_lo;
    nb::CKey blo = i > 0 ? keys[i - 1] : lo;
    bool chi = i < n || has_hi;
    nb::CKey bhi = i < n ? keys[i] : hi;
    double child_agg[nb::kHandicapSlots];
    CDB_RETURN_IF_ERROR(CheckNode(
        children[i].page, clo, blo.key, blo.value, chi, bhi.key, bhi.value,
        depth + 1, entries, agg_out != nullptr ? child_agg : nullptr));
    if (agg_out != nullptr) {
      // The stored per-child aggregate must equal the child subtree's fold
      // bit-for-bit: incremental maintenance is exact, not conservative.
      for (int s = 0; s < nb::kHandicapSlots; ++s) {
        if (children[i].agg[s] != child_agg[s]) {
          return Status::Corruption("stale child aggregate in internal node");
        }
      }
      nb::NodeCodec::FoldAgg(agg_out, child_agg);
    }
  }
  return Status::OK();
}

Status BPlusTree::CheckInvariants() const {
  uint64_t entries = 0;
  double root_agg[nb::kHandicapSlots];
  CDB_RETURN_IF_ERROR(CheckNode(root_, false, 0, 0, false, 0, 0, /*depth=*/0,
                                &entries,
                                augmented_ ? root_agg : nullptr));
  if (entries != count_) {
    return Status::Corruption("entry count mismatch: tree says " +
                              std::to_string(count_) + ", found " +
                              std::to_string(entries));
  }
  // Leaf chain must visit every entry in order.
  LeafCursor cur;
  CDB_RETURN_IF_ERROR(SeekFirstLeaf(&cur));
  uint64_t chain_entries = 0;
  bool have_prev = false;
  nb::CKey prev{0, 0};
  while (cur.valid()) {
    for (int i = 0; i < cur.entry_count(); ++i) {
      nb::CKey e{cur.key(i), cur.value(i)};
      if (have_prev && !nb::CKeyLess(prev, e)) {
        return Status::Corruption("leaf chain out of order");
      }
      prev = e;
      have_prev = true;
      ++chain_entries;
    }
    CDB_RETURN_IF_ERROR(cur.NextLeaf());
  }
  if (chain_entries != count_) {
    return Status::Corruption("leaf chain count mismatch");
  }
  return Status::OK();
}

}  // namespace cdb
