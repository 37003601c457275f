// The predefined slope set S (Section 3): the angular coefficients for
// which the dual index maintains B+-tree pairs.

#ifndef CDB_DUALINDEX_SLOPE_SET_H_
#define CDB_DUALINDEX_SLOPE_SET_H_

#include <cstddef>
#include <vector>

namespace cdb {

/// Where a query slope falls relative to S.
struct SlopeLocation {
  enum class Kind {
    kExact,       // slope == slopes[index]
    kBetween,     // slopes[index] < slope < slopes[index + 1]
    kBelowMin,    // slope < slopes.front() (wrap-around region)
    kAboveMax,    // slope > slopes.back()  (wrap-around region)
  };
  Kind kind;
  size_t index = 0;  // Meaning depends on kind (kBetween: left neighbour).
};

/// Immutable, sorted set of angular coefficients.
class SlopeSet {
 public:
  /// `slopes` must be non-empty; duplicates are removed and order enforced.
  explicit SlopeSet(std::vector<double> slopes);

  /// k slopes whose *angles* are evenly spaced over (angle_lo, angle_hi),
  /// mirroring the paper's workload, whose constraint angles span
  /// (0, pi) \ {pi/2}. Angles are measured against the x-axis; slopes are
  /// their tangents.
  ///
  /// Precondition (asserted in debug builds): k >= 1 and the closed hull
  /// [min, max] of the angle range contains no odd multiple of pi/2 —
  /// tan() is undefined there, and because the spacing is
  /// endpoint-inclusive a boundary angle of pi/2 *is* evaluated.
  static SlopeSet UniformInAngle(size_t k, double angle_lo, double angle_hi);

  size_t size() const { return slopes_.size(); }
  double slope(size_t i) const { return slopes_[i]; }
  const std::vector<double>& slopes() const { return slopes_; }

  /// Classifies `a` against the set. kExact is decided by the geometry
  /// tolerance (common/float_cmp.h), not bit equality: a slope
  /// reconstructed from its angle (tan of a stored angle) must still hit
  /// the exact-query path. The B+-tree keys themselves remain exactly
  /// compared — the tolerance only selects the tree.
  SlopeLocation Locate(double a) const;

  /// Index of the slope nearest to `a` in slope distance.
  size_t Nearest(double a) const;

  /// Midpoint between consecutive slopes i and i+1 — the worst-case
  /// approximation boundary of Section 4.2.
  double Midpoint(size_t i) const {
    return (slopes_[i] + slopes_[i + 1]) / 2.0;
  }

 private:
  std::vector<double> slopes_;
};

}  // namespace cdb

#endif  // CDB_DUALINDEX_SLOPE_SET_H_
