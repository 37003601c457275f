// DualIndex::CollectHealth (ISSUE 6): structure, occupancy, staleness and
// handicap-tightness measurement for the health report (obs/health.h).
//
// Tightness is measured by replaying the exact handicap computation:
//  - ordinary trees: every live tuple's contributions (the same
//    FoldHandicaps enumeration the write path merges through) are folded
//    into an in-memory side table keyed by the leaf page HandicapLeaf()
//    resolves — exactly what RebuildHandicaps() would store — and
//    compared slot by slot against the stored values;
//  - augmented trees: each leaf's slots are refolded from its own entries'
//    assignment values (the incremental-maintenance definition), which
//    must match the stored slots exactly.
// Stored values may only be conservative; a violation counts as `unsound`.

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <vector>

#include "btree/bplus_tree.h"
#include "dualindex/dual_index.h"

namespace cdb {

namespace {

constexpr int kSlots = BPlusTree::kHandicapSlots;

// Tallies one (leaf, slot) stored-vs-exact pair. `stored_leq` gives the
// sound direction: true when a conservative stored value sits at or below
// the exact one. Neutral-vs-neutral pairs are exact (gap 0); a finite
// stored value against a neutral exact one is sound but has no finite gap
// (gap_unbounded); the reverse direction is unsound.
void TallyGap(double stored, double exact, bool stored_leq,
              obs::TreeHealth* t) {
  const double gap = stored_leq ? exact - stored : stored - exact;
  if (std::isnan(gap)) {  // inf - inf: both slots neutral.
    ++t->gap_samples;
    ++t->gap_zero;
    return;
  }
  if (gap < 0) {
    ++t->unsound;
    return;
  }
  if (std::isinf(gap)) {
    ++t->gap_unbounded;
    return;
  }
  ++t->gap_samples;
  if (gap == 0) ++t->gap_zero;
  t->gap_sum += gap;
  t->gap_max = std::max(t->gap_max, gap);
}

// Per-tree scan state: the stored slots of every leaf plus the exact
// replay accumulator, addressable by leaf page for the ordinary fold.
struct TreeScan {
  BPlusTree* tree = nullptr;
  obs::TreeHealth health;
  std::map<PageId, size_t> leaf_index;
  std::vector<std::array<double, kSlots>> stored;
  std::vector<std::array<double, kSlots>> exact;
};

}  // namespace

Status DualIndex::CollectHealth(obs::HealthReport* out) const {
  *out = obs::HealthReport();
  const size_t k = slopes_.size();
  const double leaf_capacity =
      static_cast<double>(BPlusTree::LeafCapacity(pager_->page_size()));
  const bool ordinary = !options_.incremental_handicaps;

  // Scan index for slope tree (i, is_up): B_i^up or B_i^down.
  auto scan_of = [](size_t i, bool is_up) { return 2 * i + (is_up ? 0 : 1); };

  std::vector<TreeScan> scans(2 * k);
  for (size_t i = 0; i < k; ++i) {
    scans[scan_of(i, true)].tree = up_[i].get();
    scans[scan_of(i, true)].health.name = "up[" + std::to_string(i) + "]";
    scans[scan_of(i, false)].tree = down_[i].get();
    scans[scan_of(i, false)].health.name = "down[" + std::to_string(i) + "]";
    scans[scan_of(i, true)].health.slope = slopes_.slope(i);
    scans[scan_of(i, false)].health.slope = slopes_.slope(i);
  }

  // Pass 1: leaf chains — structure, stored slots, and (augmented) the
  // exact per-leaf refold from the leaf's own entries.
  for (size_t si = 0; si < scans.size(); ++si) {
    TreeScan& s = scans[si];
    const size_t i = si / 2;
    const bool is_up = si % 2 == 0;
    s.health.entries = s.tree->size();
    s.health.height = s.tree->height();
    s.health.augmented = s.tree->augmented();
    s.health.staleness = s.tree->handicap_staleness();
    LeafCursor cur;
    CDB_RETURN_IF_ERROR(s.tree->SeekFirstLeaf(&cur));
    while (cur.valid()) {
      std::array<double, kSlots> sv, ev;
      for (int slot = 0; slot < kSlots; ++slot) {
        sv[static_cast<size_t>(slot)] = cur.handicap(slot);
        ev[static_cast<size_t>(slot)] =
            BPlusTree::NeutralHandicap(s.health.augmented, slot);
      }
      if (s.health.augmented) {
        for (int j = 0; j < cur.entry_count(); ++j) {
          Polyhedron2DView shape;
          if (!relation_->Shape(cur.value(j), &shape)) {
            return Status::NotFound("tuple " + std::to_string(cur.value(j)));
          }
          double m[kSlots];
          CDB_RETURN_IF_ERROR(TreeAssignments(i, is_up, shape, m));
          for (int slot = 0; slot < kSlots; ++slot) {
            double& e = ev[static_cast<size_t>(slot)];
            e = BPlusTree::FoldHandicap(/*augmented=*/true, slot, e, m[slot]);
          }
        }
      }
      s.leaf_index[cur.page()] = s.stored.size();
      s.stored.push_back(sv);
      s.exact.push_back(ev);
      ++s.health.leaves;
      CDB_RETURN_IF_ERROR(cur.NextLeaf());
    }
    s.health.occupancy =
        s.health.leaves == 0
            ? 0
            : static_cast<double>(s.health.entries) /
                  (static_cast<double>(s.health.leaves) * leaf_capacity);
  }

  // Pass 2: the relation — tuple count, and for ordinary trees the exact
  // fold replay through the write path's FoldHandicaps.
  CDB_RETURN_IF_ERROR(relation_->ForEachShape(
      [&](TupleId, const Polyhedron2DView& shape) -> Status {
        ++out->tuples;
        if (!ordinary || !shape.feasible) return Status::OK();  // Not indexed.
        for (size_t i = 0; i < k; ++i) {
          const double top = TopValue(shape, slopes_.slope(i));
          const double bot = BotValue(shape, slopes_.slope(i));
          CDB_RETURN_IF_ERROR(FoldHandicaps(
              i, shape, top, bot,
              [&](BPlusTree* tree, int slot, double at, double v) -> Status {
                TreeScan& s = scans[scan_of(i, tree == up_[i].get())];
                PageId leaf;
                CDB_RETURN_IF_ERROR(s.tree->HandicapLeaf(at, &leaf));
                auto it = s.leaf_index.find(leaf);
                if (it == s.leaf_index.end()) return Status::OK();
                double& e = s.exact[it->second][static_cast<size_t>(slot)];
                e = BPlusTree::FoldHandicap(/*augmented=*/false, slot, e, v);
                return Status::OK();
              }));
        }
        return Status::OK();
      }));

  // Pass 3: compare. Sound direction per slot: a slot folding by minimum
  // may only sit at or below the exact value, one folding by maximum at or
  // above.
  for (TreeScan& s : scans) {
    for (size_t leaf = 0; leaf < s.stored.size(); ++leaf) {
      for (int slot = 0; slot < kSlots; ++slot) {
        const bool stored_leq =
            BPlusTree::FoldsByMin(s.health.augmented, slot);
        TallyGap(s.stored[leaf][static_cast<size_t>(slot)],
                 s.exact[leaf][static_cast<size_t>(slot)], stored_leq,
                 &s.health);
      }
    }
    out->staleness_total += s.health.staleness;
    out->unsound_total += s.health.unsound;
    out->trees.push_back(std::move(s.health));
  }

  // Vertical support trees: structure only (their handicaps are unused).
  for (BPlusTree* tree : {xmax_.get(), xmin_.get()}) {
    if (tree == nullptr) continue;
    obs::TreeHealth h;
    h.name = tree == xmax_.get() ? "xmax" : "xmin";
    h.augmented = tree->augmented();
    h.entries = tree->size();
    h.height = tree->height();
    h.staleness = tree->handicap_staleness();
    LeafCursor cur;
    CDB_RETURN_IF_ERROR(tree->SeekFirstLeaf(&cur));
    while (cur.valid()) {
      ++h.leaves;
      CDB_RETURN_IF_ERROR(cur.NextLeaf());
    }
    h.occupancy = h.leaves == 0 ? 0
                                : static_cast<double>(h.entries) /
                                      (static_cast<double>(h.leaves) *
                                       leaf_capacity);
    out->staleness_total += h.staleness;
    out->trees.push_back(std::move(h));
  }

  // Slope-set angular coverage (atan is monotone, so the angles inherit
  // the slope order) vs the observed query-slope histogram.
  for (size_t i = 0; i < k; ++i) {
    out->coverage.slope_angles.push_back(std::atan(slopes_.slope(i)));
  }
  for (size_t i = 1; i < out->coverage.slope_angles.size(); ++i) {
    out->coverage.max_adjacent_gap =
        std::max(out->coverage.max_adjacent_gap,
                 out->coverage.slope_angles[i] -
                     out->coverage.slope_angles[i - 1]);
  }
  if (slope_observer_ != nullptr && k > 0) {
    const double lo = out->coverage.slope_angles.front();
    const double hi = out->coverage.slope_angles.back();
    const int buckets = slope_observer_->buckets();
    for (int i = 0; i <= buckets; ++i) {
      out->coverage.observed_bounds.push_back(
          i < buckets ? slope_observer_->bucket_lo(i)
                      : slope_observer_->bucket_hi(buckets - 1));
    }
    for (int i = 0; i < buckets; ++i) {
      const uint64_t c = slope_observer_->count(i);
      out->coverage.observed_counts.push_back(c);
      out->coverage.observed_total += c;
      // Outside-S accounting at bucket-midpoint resolution: these queries
      // sit in the wrap-around region where T2 must fall back to T1.
      const double mid =
          (slope_observer_->bucket_lo(i) + slope_observer_->bucket_hi(i)) / 2;
      if (mid < lo || mid > hi) out->coverage.observed_outside += c;
    }
  }
  return Status::OK();
}

}  // namespace cdb
