// In-memory V-representation mirror of a relation's 2-D tuples.
//
// One Polyhedron2D per tuple id, stored flat: every vertex, anchor and ray
// goes into one append-only pool of Vec2, and a 16-byte entry per id holds
// where its points start, the point and ray counts, and the classification
// flags. The pool is chunked so that appending never moves stored points;
// with the entry table and the chunk list reserved ahead (Reserve),
// single-writer-mode readers can read both lock-free while the writer
// appends past their published bound. Cleared ids keep their pool space
// until the relation is reopened.

#ifndef CDB_CONSTRAINT_SHAPE_MIRROR_H_
#define CDB_CONSTRAINT_SHAPE_MIRROR_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "constraint/generalized_tuple.h"
#include "geometry/polyhedron2d.h"

namespace cdb {

/// See file comment.
class ShapeMirror {
 public:
  /// Number of id slots (live or not).
  size_t size() const { return entries_.size(); }

  /// Stores `poly` for `id`, growing the table with empty slots as needed.
  void Put(TupleId id, const Polyhedron2D& poly);

  /// Grows the table to `n` slots; new slots are empty.
  void Resize(size_t n) { entries_.resize(std::max(n, entries_.size())); }

  /// Empties slot `id` (its tuple was deleted).
  void Clear(TupleId id);

  /// Reserves room for `more` Put calls past the current size, so neither
  /// the entry table nor the chunk directory reallocates under readers.
  void Reserve(size_t more);

  /// The stored shape of `id` (which must be below size(), checked by the
  /// caller against its own published bound); false for an empty slot.
  /// Reads neither size() nor anything an append moves, so it is safe for a
  /// reader while the single writer appends past the reader's bound.
  bool Get(TupleId id, Polyhedron2DView* out) const;

 private:
  struct Entry {
    const Vec2* base = nullptr;  // Points, then rays; null when both empty.
    uint32_t points = 0;
    uint16_t rays = 0;
    uint8_t flags = 0;  // kStored | kFeasible | kBounded | kPointed.
  };
  static constexpr uint8_t kStored = 1;
  static constexpr uint8_t kFeasible = 2;
  static constexpr uint8_t kBounded = 4;
  static constexpr uint8_t kPointed = 8;
  // Pool elements per regular chunk. A tuple's points and rays never span
  // chunks; a bench-size tuple has a handful of each.
  static constexpr size_t kChunk = 4096;

  std::vector<Entry> entries_;
  std::vector<std::unique_ptr<Vec2[]>> chunks_;
  size_t chunk_used_ = 0;  // Elements handed out of chunks_.back().
  size_t chunk_size_ = 0;  // Capacity of chunks_.back().
};

}  // namespace cdb

#endif  // CDB_CONSTRAINT_SHAPE_MIRROR_H_
