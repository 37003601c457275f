#include "geometry/polyhedron2d.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace cdb {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// The one angular tolerance of the classification: two boundary lines are
// parallel, a direction lies in a constraint's recession half-plane, and a
// ray is perpendicular to an objective, all within 1e-12 rad. Rounding
// noise in those tests is ~1e-16 relative; anything above the tolerance is
// a genuine angle, so a needle-thin bounded region stays bounded.
constexpr double kAngleTol = 1e-12;

// The objective arithmetic of every support value and box edge. Keep the
// expression as is: the paper tables are checked byte for byte.
inline double Dot(double cx, double cy, const Vec2& p) {
  return cx * p.x + cy * p.y;
}

// Normalized constraint nx*x + ny*y <= rhs (kLE: {a, b, -c}; kGE:
// {-a, -b, c}) and the length of its normal.
struct Line {
  double nx, ny, rhs, len;
};
using Lines = std::span<const Line>;

std::vector<Line> Normalize(const std::vector<Constraint2D>& constraints) {
  std::vector<Line> lines;
  lines.reserve(constraints.size());
  for (const Constraint2D& c : constraints) {
    Line l = c.cmp == Cmp::kLE ? Line{c.a, c.b, -c.c, 0.0}
                               : Line{-c.a, -c.b, c.c, 0.0};
    l.len = std::hypot(l.nx, l.ny);
    lines.push_back(l);
  }
  return lines;
}

// Feasibility of p with relative tolerance kEps.
bool Satisfies(const Line& c, const Vec2& p) {
  double lhs = c.nx * p.x + c.ny * p.y;
  double scale = std::max({1.0, std::fabs(lhs), std::fabs(c.rhs)});
  return !(lhs - c.rhs > kEps * scale);
}

bool SatisfiesAll(Lines lines, const Vec2& p) {
  for (const Line& c : lines) {
    if (!Satisfies(c, p)) return false;
  }
  return true;
}

// Intersection of two boundary lines; false when they are parallel.
bool Crosses(const Line& i, const Line& j, Vec2* p) {
  double det = i.nx * j.ny - i.ny * j.nx;
  double det_scale = std::max(1e-30, i.len * j.len);
  if (std::fabs(det) < kAngleTol * det_scale) return false;
  *p = {(i.rhs * j.ny - i.ny * j.rhs) / det,
        (i.nx * j.rhs - i.rhs * j.nx) / det};
  return true;
}

// True when the unit direction d satisfies every n·d <= 0.
bool InCone(Lines lines, const Vec2& d) {
  for (const Line& c : lines) {
    if (c.nx * d.x + c.ny * d.y > kAngleTol * c.len) return false;
  }
  return true;
}

// A point on the boundary line of c, on the axis it crosses more steeply.
Vec2 Anchor(const Line& c) {
  return std::fabs(c.ny) >= std::fabs(c.nx) ? Vec2{0.0, c.rhs / c.ny}
                                            : Vec2{c.rhs / c.nx, 0.0};
}

// Extreme recession rays of a pointed region: every one lies on the
// boundary direction of some constraint.
std::vector<Vec2> PointedRays(Lines lines) {
  std::vector<Vec2> rays;
  for (const Line& c : lines) {
    if (c.len < 1e-30) continue;
    for (double sign : {1.0, -1.0}) {
      Vec2 d{sign * c.ny / c.len, -sign * c.nx / c.len};
      if (!InCone(lines, d)) continue;
      bool dup = false;
      for (const Vec2& r : rays) {
        dup = dup || (ApproxEq(r.x, d.x) && ApproxEq(r.y, d.y));
      }
      if (!dup) rays.push_back(d);
    }
  }
  return rays;
}

// All effective normals are parallel: the region is the interval
// lo <= u·p <= hi along the unit normal u of `lines[first]`, swept along
// the lineality direction.
void BuildNonPointed(Lines lines, size_t first, Polyhedron2D* poly) {
  const Line& f = lines[first];
  const Vec2 u{f.nx / f.len, f.ny / f.len};
  const Line* hi = nullptr;
  const Line* lo = nullptr;
  double hi_t = kInf, lo_t = -kInf;
  for (const Line& c : lines) {
    if (c.len < 1e-30) continue;
    const double sigma = c.nx * u.x + c.ny * u.y;
    const double t = c.rhs / sigma;  // sigma > 0: u·p <= t, else u·p >= t.
    if (sigma > 0 && t < hi_t) {
      hi_t = t;
      hi = &c;
    } else if (sigma < 0 && t > lo_t) {
      lo_t = t;
      lo = &c;
    }
  }
  for (const Line* side : {hi, lo}) {
    if (side != nullptr) poly->anchors.push_back(Anchor(*side));
  }
  if (!SatisfiesAll(lines, poly->anchors.front())) {
    poly->anchors.clear();
    return;  // lo > hi: empty.
  }
  poly->feasible = true;
  poly->rays = {{-u.y, u.x}, {u.y, -u.x}};
  if (hi == nullptr) poly->rays.push_back(u);
  if (lo == nullptr) poly->rays.push_back({-u.x, -u.y});
}

}  // namespace

double Polyhedron2DView::Maximize(double cx, double cy, Vec2* arg) const {
  if (!feasible) return std::numeric_limits<double>::quiet_NaN();
  const double c_scale = std::max({1.0, std::fabs(cx), std::fabs(cy)});
  for (const Vec2& r : rays) {
    const double reach = std::max(std::fabs(r.x), std::fabs(r.y));
    if ((cx * r.x + cy * r.y) / reach > kAngleTol * c_scale) return kInf;
  }
  // The first maximum wins ties, which fixes the sign of a zero maximum.
  double best = Dot(cx, cy, points[0]);
  size_t at = 0;
  for (size_t k = 1; k < points.size(); ++k) {
    const double v = Dot(cx, cy, points[k]);
    if (v > best) {
      best = v;
      at = k;
    }
  }
  if (arg != nullptr) *arg = points[at];
  return best;
}

bool Polyhedron2DView::BoundingRect(Rect* out) const {
  if (!feasible || !bounded) return false;
  // The four axis maxima of Maximize in one pass (std::max keeps the first
  // of equal values, as Maximize does).
  double e[4] = {Dot(1.0, 0.0, points[0]), Dot(-1.0, 0.0, points[0]),
                 Dot(0.0, 1.0, points[0]), Dot(0.0, -1.0, points[0])};
  for (const Vec2& p : points.subspan(1)) {
    e[0] = std::max(e[0], Dot(1.0, 0.0, p));
    e[1] = std::max(e[1], Dot(-1.0, 0.0, p));
    e[2] = std::max(e[2], Dot(0.0, 1.0, p));
    e[3] = std::max(e[3], Dot(0.0, -1.0, p));
  }
  *out = Rect(-e[1], -e[3], e[0], e[2]);
  return true;
}

Polyhedron2D Polyhedron2D::FromConstraints(
    const std::vector<Constraint2D>& constraints) {
  Polyhedron2D poly;
  const std::vector<Line> lines = Normalize(constraints);
  poly.vertices.reserve(lines.size());

  // 0x + 0y <= rhs rows are tautologies or contradictions.
  size_t first = lines.size();
  for (size_t k = 0; k < lines.size(); ++k) {
    if (lines[k].len >= 1e-30) {
      first = std::min(first, k);
    } else if (!Satisfies(lines[k], Vec2())) {
      return poly;
    }
  }
  if (first == lines.size()) {
    // The whole plane: every direction is unbounded.
    poly.feasible = true;
    poly.anchors = {Vec2()};
    poly.rays = {{1, 0}, {-1, 0}, {0, 1}, {0, -1}};
    return poly;
  }

  bool crossing = false;
  for (size_t i = 0; i < lines.size(); ++i) {
    for (size_t j = i + 1; j < lines.size(); ++j) {
      Vec2 p;
      if (!Crosses(lines[i], lines[j], &p)) continue;
      crossing = true;
      if (!std::isfinite(p.x) || !std::isfinite(p.y)) continue;
      if (SatisfiesAll(lines, p)) poly.vertices.push_back(p);
    }
  }
  if (!crossing) {
    BuildNonPointed(lines, first, &poly);
    return poly;
  }
  if (poly.vertices.empty()) return poly;  // Pointed and empty.
  poly.feasible = true;
  poly.pointed = true;
  poly.rays = PointedRays(lines);
  poly.bounded = poly.rays.empty();
  return poly;
}

bool BoundingRect(const std::vector<Constraint2D>& constraints, Rect* out) {
  return Polyhedron2D::FromConstraints(constraints).view().BoundingRect(out);
}

bool ContainsPoint(const std::vector<Constraint2D>& constraints,
                   const Vec2& p) {
  for (const Constraint2D& c : constraints) {
    if (!c.Satisfies(p)) return false;
  }
  return true;
}

}  // namespace cdb
