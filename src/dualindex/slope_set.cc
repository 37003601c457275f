#include "dualindex/slope_set.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/float_cmp.h"

namespace cdb {

namespace {

// True when the closed hull [min, max] of the angle range avoids every odd
// multiple of pi/2 (where tan is undefined). Endpoint-inclusive on purpose:
// UniformInAngle evaluates tan at both boundary angles. Only its debug
// assert calls it.
[[maybe_unused]] bool AngleRangeValid(double angle_lo, double angle_hi) {
  if (!std::isfinite(angle_lo) || !std::isfinite(angle_hi)) return false;
  const double lo = std::min(angle_lo, angle_hi);
  const double hi = std::max(angle_lo, angle_hi);
  const double half_pi = std::asin(1.0);
  const double pi = 2.0 * half_pi;
  // Smallest n with half_pi + n*pi >= lo; the range is valid iff that
  // multiple already overshoots hi.
  const double n = std::ceil((lo - half_pi) / pi);
  return half_pi + n * pi > hi;
}

}  // namespace

SlopeSet::SlopeSet(std::vector<double> slopes) : slopes_(std::move(slopes)) {
  assert(!slopes_.empty());
  std::sort(slopes_.begin(), slopes_.end());
  slopes_.erase(std::unique(slopes_.begin(), slopes_.end()), slopes_.end());
}

SlopeSet SlopeSet::UniformInAngle(size_t k, double angle_lo, double angle_hi) {
  assert(k >= 1);
  assert(AngleRangeValid(angle_lo, angle_hi));  // Precondition: see header.
  std::vector<double> slopes;
  slopes.reserve(k);
  for (size_t i = 0; i < k; ++i) {
    // Endpoint-inclusive spacing: the extreme slopes of S bracket the whole
    // angle range, so queries drawn from it never fall in the wrap-around
    // region (k = 1 degenerates to the range midpoint).
    double t = k == 1 ? 0.5
                      : static_cast<double>(i) / static_cast<double>(k - 1);
    double angle = angle_lo + t * (angle_hi - angle_lo);
    slopes.push_back(std::tan(angle));
  }
  return SlopeSet(std::move(slopes));
}

SlopeLocation SlopeSet::Locate(double a) const {
  // Tolerance check first (both lower_bound neighbours), so a slope that
  // drifted a few ulps — e.g. reconstructed via tan(atan(s)) — classifies
  // as kExact instead of leaking into kBetween or the wrap-around kinds.
  auto it = std::lower_bound(slopes_.begin(), slopes_.end(), a);
  size_t i = static_cast<size_t>(it - slopes_.begin());
  if (it != slopes_.end() && ApproxEq(*it, a)) {
    return {SlopeLocation::Kind::kExact, i};
  }
  if (it != slopes_.begin() && ApproxEq(*(it - 1), a)) {
    return {SlopeLocation::Kind::kExact, i - 1};
  }
  if (a < slopes_.front()) {
    return {SlopeLocation::Kind::kBelowMin, 0};
  }
  if (a > slopes_.back()) {
    return {SlopeLocation::Kind::kAboveMax, slopes_.size() - 1};
  }
  // slopes_[i-1] < a < slopes_[i]; report the left neighbour.
  return {SlopeLocation::Kind::kBetween, i - 1};
}

size_t SlopeSet::Nearest(double a) const {
  SlopeLocation loc = Locate(a);
  switch (loc.kind) {
    case SlopeLocation::Kind::kExact:
    case SlopeLocation::Kind::kBelowMin:
      return loc.index;
    case SlopeLocation::Kind::kAboveMax:
      return slopes_.size() - 1;
    case SlopeLocation::Kind::kBetween:
      return a - slopes_[loc.index] <= slopes_[loc.index + 1] - a
                 ? loc.index
                 : loc.index + 1;
  }
  return 0;
}

}  // namespace cdb
