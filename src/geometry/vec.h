// Small vector types for the geometry layer.

#ifndef CDB_GEOMETRY_VEC_H_
#define CDB_GEOMETRY_VEC_H_

namespace cdb {

/// Point or direction in the plane.
struct Vec2 {
  double x = 0.0;
  double y = 0.0;

  Vec2() = default;
  Vec2(double xx, double yy) : x(xx), y(yy) {}

  Vec2 operator+(const Vec2& o) const { return {x + o.x, y + o.y}; }
  Vec2 operator-(const Vec2& o) const { return {x - o.x, y - o.y}; }
  Vec2 operator*(double s) const { return {x * s, y * s}; }

  double Dot(const Vec2& o) const { return x * o.x + y * o.y; }
  /// z-component of the 3-D cross product; >0 when `o` is counter-clockwise
  /// from *this.
  double Cross(const Vec2& o) const { return x * o.y - y * o.x; }
};

}  // namespace cdb

#endif  // CDB_GEOMETRY_VEC_H_
