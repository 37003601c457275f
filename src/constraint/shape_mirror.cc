#include "constraint/shape_mirror.h"

#include <algorithm>

namespace cdb {

void ShapeMirror::Put(TupleId id, const Polyhedron2D& poly) {
  const Polyhedron2DView view = poly.view();
  const size_t n = view.points.size() + view.rays.size();
  Entry e;
  if (n > 0) {
    if (chunk_used_ + n > chunk_size_) {
      // Start a fresh chunk; the tail of the current one stays unused. A
      // shape larger than a chunk gets a chunk of its own size.
      chunk_size_ = std::max(kChunk, n);
      chunk_used_ = 0;
      chunks_.push_back(std::make_unique<Vec2[]>(chunk_size_));
    }
    Vec2* dst = chunks_.back().get() + chunk_used_;
    std::copy(view.points.begin(), view.points.end(), dst);
    std::copy(view.rays.begin(), view.rays.end(), dst + view.points.size());
    chunk_used_ += n;
    e.base = dst;
  }
  e.points = static_cast<uint32_t>(view.points.size());
  e.rays = static_cast<uint16_t>(view.rays.size());
  e.flags = kStored | (view.feasible ? kFeasible : 0) |
            (view.bounded ? kBounded : 0) | (view.pointed ? kPointed : 0);
  if (entries_.size() <= id) entries_.resize(id + 1);
  entries_[id] = e;
}

void ShapeMirror::Clear(TupleId id) {
  if (id < entries_.size()) entries_[id] = Entry();
}

void ShapeMirror::Reserve(size_t more) {
  entries_.reserve(entries_.size() + more);
  // Each Put opens at most one chunk.
  chunks_.reserve(chunks_.size() + more + 1);
}

bool ShapeMirror::Get(TupleId id, Polyhedron2DView* out) const {
  const Entry& e = entries_[id];
  if ((e.flags & kStored) == 0) return false;
  out->feasible = (e.flags & kFeasible) != 0;
  out->bounded = (e.flags & kBounded) != 0;
  out->pointed = (e.flags & kPointed) != 0;
  out->points = {e.base, e.points};
  out->rays = {e.base == nullptr ? nullptr : e.base + e.points, e.rays};
  return true;
}

}  // namespace cdb
