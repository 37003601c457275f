// An oracle for the 2-D geometry that shares no code with Polyhedron2D.
//
// Tuples have small integer coefficients and queries have slopes p/q with
// q a power of two, so every vertex, every TOP/BOT value and every query
// decision is a rational number this file computes exactly with __int128
// arithmetic: vertices by Cramer's rule over every pair of boundary lines,
// unboundedness by Farkas' lemma (c is bounded above on a non-empty region
// iff c is a non-negative combination of at most two constraint normals),
// and the support value of a vertex-free region from its tightest parallel
// constraint. TopValue/BotValue, ExactAll/ExactExist and NaiveSelect must
// agree with it on bounded polygons, wedges, strips, half-planes, points,
// segments and empty conjunctions.

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "constraint/naive_eval.h"
#include "constraint/relation.h"
#include "geometry/dual.h"
#include "storage/file.h"

namespace cdb {
namespace {

using i128 = __int128;

constexpr double kInf = std::numeric_limits<double>::infinity();

// a*x + b*y + c <= 0 with integer coefficients (kGE rows are negated).
struct IntRow {
  i128 a, b, c;
};

struct IntTuple {
  std::vector<IntRow> rows;
  GeneralizedTuple tuple;

  // Adds a*x + b*y + c θ 0 to both representations.
  void Add(int a, int b, int c, Cmp cmp) {
    tuple.Add(a, b, c, cmp);
    const int s = cmp == Cmp::kLE ? 1 : -1;
    rows.push_back({s * a, s * b, s * c});
  }
};

// A rational num/den with den > 0.
struct Frac {
  i128 num, den;
};

Frac Make(i128 num, i128 den) {
  return den < 0 ? Frac{-num, -den} : Frac{num, den};
}

bool Less(const Frac& x, const Frac& y) {
  return x.num * y.den < y.num * x.den;
}

double ToDouble(const Frac& f) {
  return static_cast<double>(f.num) / static_cast<double>(f.den);
}

// A point with rational coordinates (x/d, y/d), d > 0.
struct RatPoint {
  i128 x, y, d;
};

bool Feasible(const std::vector<IntRow>& rows, const RatPoint& p) {
  for (const IntRow& r : rows) {
    if (r.a * p.x + r.b * p.y + r.c * p.d > 0) return false;
  }
  return true;
}

std::vector<RatPoint> Vertices(const std::vector<IntRow>& rows) {
  std::vector<RatPoint> out;
  for (size_t i = 0; i < rows.size(); ++i) {
    for (size_t j = i + 1; j < rows.size(); ++j) {
      const IntRow& u = rows[i];
      const IntRow& v = rows[j];
      i128 det = u.a * v.b - u.b * v.a;
      if (det == 0) continue;
      // a_u x + b_u y = -c_u and a_v x + b_v y = -c_v.
      RatPoint p{-u.c * v.b + u.b * v.c, -u.a * v.c + u.c * v.a, det};
      if (p.d < 0) p = {-p.x, -p.y, -p.d};
      if (Feasible(rows, p)) out.push_back(p);
    }
  }
  return out;
}

bool AllNormalsParallel(const std::vector<IntRow>& rows) {
  for (const IntRow& u : rows) {
    for (const IntRow& v : rows) {
      if (u.a * v.b - u.b * v.a != 0) return false;
    }
  }
  return true;
}

bool HasNormal(const std::vector<IntRow>& rows) {
  for (const IntRow& r : rows) {
    if (r.a != 0 || r.b != 0) return true;
  }
  return false;
}

// Non-empty check; vertex-free regions have parallel normals, and then the
// region is non-empty iff the tightest upper and lower bounds along one
// normal do not cross.
bool NonEmpty(const std::vector<IntRow>& rows) {
  for (const IntRow& r : rows) {
    if (r.a == 0 && r.b == 0 && r.c > 0) return false;
  }
  if (!HasNormal(rows)) return true;
  if (!AllNormalsParallel(rows)) return !Vertices(rows).empty();
  const IntRow* ref = nullptr;
  for (const IntRow& r : rows) {
    if (r.a != 0 || r.b != 0) ref = &r;
  }
  // n_k = mu_k * n_ref with mu_k = (n_k·n_ref)/(n_ref·n_ref); the row reads
  // mu_k * (n_ref·p) <= -c_k.
  std::optional<Frac> hi, lo;
  const i128 nn = ref->a * ref->a + ref->b * ref->b;
  for (const IntRow& r : rows) {
    if (r.a == 0 && r.b == 0) continue;
    const i128 dot = r.a * ref->a + r.b * ref->b;
    const Frac bound = Make(-r.c * nn, dot);  // n_ref·p vs -c_k / mu_k.
    if (dot > 0) {
      if (!hi || Less(bound, *hi)) hi = bound;
    } else if (!lo || Less(*lo, bound)) {
      lo = bound;
    }
  }
  return !hi || !lo || !Less(*hi, *lo);
}

// True when c = (cx, cy) is a non-negative combination of at most two
// normals: then c·p is bounded above on any non-empty region (Farkas).
bool BoundedAlong(const std::vector<IntRow>& rows, i128 cx, i128 cy) {
  if (cx == 0 && cy == 0) return true;
  for (const IntRow& r : rows) {
    if (cx * r.b - cy * r.a == 0 && cx * r.a + cy * r.b > 0) return true;
  }
  for (const IntRow& u : rows) {
    for (const IntRow& v : rows) {
      i128 det = u.a * v.b - u.b * v.a;
      if (det == 0) continue;
      i128 alpha = cx * v.b - cy * v.a;  // alpha/det, beta/det >= 0.
      i128 beta = u.a * cy - u.b * cx;
      if (det < 0) {
        det = -det;
        alpha = -alpha;
        beta = -beta;
      }
      if (alpha >= 0 && beta >= 0) return true;
    }
  }
  return false;
}

// max (cx*x + cy*y) over the region, or nullopt when unbounded. The region
// must be non-empty.
std::optional<Frac> ExactMax(const std::vector<IntRow>& rows, i128 cx,
                             i128 cy) {
  if (!BoundedAlong(rows, cx, cy)) return std::nullopt;
  if (cx == 0 && cy == 0) return Frac{0, 1};
  std::vector<RatPoint> verts = Vertices(rows);
  if (!verts.empty()) {
    Frac best = Make(cx * verts[0].x + cy * verts[0].y, verts[0].d);
    for (const RatPoint& p : verts) {
      Frac v = Make(cx * p.x + cy * p.y, p.d);
      if (Less(best, v)) best = v;
    }
    return best;
  }
  // Vertex-free and bounded along c: c = lambda * n_k for the rows whose
  // normal points along c, and each caps c·p at lambda * (-c_k).
  std::optional<Frac> best;
  for (const IntRow& r : rows) {
    if (cx * r.b - cy * r.a != 0 || cx * r.a + cy * r.b <= 0) continue;
    // lambda = (c·n)/(n·n).
    Frac cap = Make((cx * r.a + cy * r.b) * -r.c, r.a * r.a + r.b * r.b);
    if (!best || Less(cap, *best)) best = cap;
  }
  return best;
}

// TOP at slope p/q: max (y - (p/q) x) = max (q*y - p*x) / q.
std::optional<Frac> ExactTop(const std::vector<IntRow>& rows, int p, int q) {
  std::optional<Frac> m = ExactMax(rows, -p, q);
  if (!m) return std::nullopt;
  return Make(m->num, m->den * q);
}

// BOT at slope p/q: -max (p*x - q*y) / q.
std::optional<Frac> ExactBot(const std::vector<IntRow>& rows, int p, int q) {
  std::optional<Frac> m = ExactMax(rows, p, -q);
  if (!m) return std::nullopt;
  return Make(-m->num, m->den * q);
}

int Int(Rng* rng, int lo, int hi) {
  return static_cast<int>(rng->UniformInt(lo, hi));
}

// One tuple of the given shape, built around an integer point it contains
// (except kEmpty).
enum class Shape { kBounded, kWedge, kStrip, kHalfPlane, kPoint, kSegment,
                   kEmpty };

IntTuple RandomTuple(Rng* rng, Shape shape) {
  IntTuple t;
  const int px = Int(rng, -20, 20), py = Int(rng, -20, 20);
  auto through = [&](int a, int b, int slack, Cmp cmp) {
    // a*x + b*y + c θ 0 holding at (px, py) with the given slack.
    int c = -(a * px + b * py);
    t.Add(a, b, cmp == Cmp::kLE ? c - slack : c + slack, cmp);
  };
  switch (shape) {
    case Shape::kBounded: {
      t.Add(1, 0, -(px + Int(rng, 1, 6)), Cmp::kLE);
      t.Add(1, 0, -(px - Int(rng, 1, 6)), Cmp::kGE);
      t.Add(0, 1, -(py + Int(rng, 1, 6)), Cmp::kLE);
      t.Add(0, 1, -(py - Int(rng, 1, 6)), Cmp::kGE);
      for (int e = Int(rng, 0, 3); e > 0; --e) {
        through(Int(rng, -8, 8), Int(rng, -8, 8), Int(rng, 0, 6), Cmp::kLE);
      }
      break;
    }
    case Shape::kWedge: {
      // Two normals less than a half-turn apart meet at an apex.
      int a = Int(rng, -8, 8), b = Int(rng, 1, 8);
      through(a, b, Int(rng, 0, 3), Cmp::kLE);
      through(a + Int(rng, 1, 8), b - Int(rng, 0, 8), Int(rng, 0, 3),
              Cmp::kLE);
      break;
    }
    case Shape::kStrip: {
      int a = Int(rng, -8, 8), b = Int(rng, 1, 8);
      through(a, b, Int(rng, 0, 5), Cmp::kLE);
      through(a, b, Int(rng, 0, 5), Cmp::kGE);
      break;
    }
    case Shape::kHalfPlane:
      through(Int(rng, -8, 8), Int(rng, -8, 8), Int(rng, 0, 5),
              rng->Chance(0.5) ? Cmp::kLE : Cmp::kGE);
      break;
    case Shape::kPoint:
      through(1, 0, 0, Cmp::kLE);
      through(1, 0, 0, Cmp::kGE);
      through(0, 1, 0, Cmp::kLE);
      through(0, 1, 0, Cmp::kGE);
      break;
    case Shape::kSegment: {
      int a = Int(rng, -8, 8), b = Int(rng, 1, 8);
      through(a, b, 0, Cmp::kLE);
      through(a, b, 0, Cmp::kGE);
      through(1, 0, Int(rng, 0, 6), Cmp::kLE);
      through(1, 0, Int(rng, 0, 6), Cmp::kGE);
      break;
    }
    case Shape::kEmpty: {
      int a = Int(rng, -8, 8), b = Int(rng, 1, 8);
      through(a, b, 0, Cmp::kLE);
      through(a, b, -Int(rng, 1, 5), Cmp::kGE);  // Pushed past the first.
      break;
    }
  }
  return t;
}

std::vector<IntTuple> RandomTuples(uint64_t seed, int per_shape) {
  Rng rng(seed);
  std::vector<IntTuple> out;
  for (Shape s : {Shape::kBounded, Shape::kWedge, Shape::kStrip,
                  Shape::kHalfPlane, Shape::kPoint, Shape::kSegment,
                  Shape::kEmpty}) {
    for (int i = 0; i < per_shape; ++i) out.push_back(RandomTuple(&rng, s));
  }
  return out;
}

// Query slopes p/q, exact as doubles.
const int kSlopes[][2] = {{0, 1}, {1, 1}, {-1, 1}, {1, 2}, {-3, 2},
                          {5, 4}, {-1, 4}, {3, 1}, {-7, 8}};

void ExpectSupport(double got, const std::optional<Frac>& want, double inf,
                   const std::string& what) {
  if (!want) {
    EXPECT_EQ(got, inf) << what;
    return;
  }
  const double w = ToDouble(*want);
  EXPECT_NEAR(got, w, 1e-12 * std::max(1.0, std::fabs(w))) << what;
}

TEST(ExactOracleTest, TopAndBotMatchRationalArithmetic) {
  int unbounded = 0, empty = 0;
  for (const IntTuple& t : RandomTuples(41, 60)) {
    const auto& cons = t.tuple.constraints();
    const bool nonempty = NonEmpty(t.rows);
    EXPECT_EQ(Polyhedron2D::FromConstraints(cons).feasible, nonempty);
    for (const auto& [p, q] : kSlopes) {
      const double s = static_cast<double>(p) / q;
      const std::string what = "slope " + std::to_string(s);
      if (!nonempty) {
        ++empty;
        EXPECT_TRUE(std::isnan(TopValue(cons, s))) << what;
        EXPECT_TRUE(std::isnan(BotValue(cons, s))) << what;
        continue;
      }
      std::optional<Frac> top = ExactTop(t.rows, p, q);
      unbounded += !top;
      ExpectSupport(TopValue(cons, s), top, kInf, what + " top");
      ExpectSupport(BotValue(cons, s), ExactBot(t.rows, p, q), -kInf,
                    what + " bot");
    }
  }
  // Every shape class showed up: unbounded surfaces and empty regions too.
  EXPECT_GT(unbounded, 0);
  EXPECT_GT(empty, 0);
}

// Intercepts on and around the exact surfaces; each is a multiple of 1/4,
// exact as a double, and a nonzero gap to a surface value is >= 1/(4*|det|)
// here, far beyond the kEps tolerance, so every decision is exact.
std::vector<double> Intercepts(const std::vector<IntRow>& rows, int p, int q) {
  std::vector<double> out = {-100, -3.25, 0, 2.5, 100};
  for (const std::optional<Frac>& f : {ExactTop(rows, p, q),
                                       ExactBot(rows, p, q)}) {
    if (!f) continue;
    double base = std::floor(ToDouble(*f) * 4) / 4;
    for (double d : {-0.25, 0.0, 0.25, 0.5}) out.push_back(base + d);
  }
  return out;
}

bool ExactDecision(const std::vector<IntRow>& rows, SelectionType type,
                   int p, int q, double b, Cmp cmp) {
  if (!NonEmpty(rows)) return false;
  // b as a rational: b*4 is an integer.
  const Frac fb = Make(static_cast<i128>(std::llround(b * 4)), 4);
  std::optional<Frac> top = ExactTop(rows, p, q);
  std::optional<Frac> bot = ExactBot(rows, p, q);
  const bool ge = cmp == Cmp::kGE;
  if (type == SelectionType::kAll) {
    // ALL(>=): b <= BOT; ALL(<=): b >= TOP. Infinite surfaces reject.
    if (ge) return bot.has_value() && !Less(*bot, fb);
    return top.has_value() && !Less(fb, *top);
  }
  // EXIST(>=): b <= TOP; EXIST(<=): b >= BOT. Infinite surfaces accept.
  if (ge) return !top.has_value() || !Less(*top, fb);
  return !bot.has_value() || !Less(fb, *bot);
}

TEST(ExactOracleTest, PredicatesMatchExactDecisions) {
  for (const IntTuple& t : RandomTuples(42, 30)) {
    for (const auto& [p, q] : kSlopes) {
      const double s = static_cast<double>(p) / q;
      for (double b : Intercepts(t.rows, p, q)) {
        for (Cmp cmp : {Cmp::kGE, Cmp::kLE}) {
          HalfPlaneQuery hq(s, b, cmp);
          const std::string what = "slope " + std::to_string(s) +
                                   " intercept " + std::to_string(b);
          EXPECT_EQ(ExactAll(t.tuple.constraints(), hq),
                    ExactDecision(t.rows, SelectionType::kAll, p, q, b, cmp))
              << what;
          EXPECT_EQ(
              ExactExist(t.tuple.constraints(), hq),
              ExactDecision(t.rows, SelectionType::kExist, p, q, b, cmp))
              << what;
        }
      }
    }
  }
}

TEST(ExactOracleTest, NaiveSelectMatchesExactDecisions) {
  std::unique_ptr<Pager> pager;
  ASSERT_TRUE(
      Pager::Open(std::make_unique<MemFile>(1024), PagerOptions{}, &pager)
          .ok());
  std::unique_ptr<Relation> relation;
  ASSERT_TRUE(Relation::Open(pager.get(), kInvalidPageId, &relation).ok());
  std::vector<IntTuple> tuples = RandomTuples(43, 25);
  for (const IntTuple& t : tuples) {
    ASSERT_TRUE(relation->Insert(t.tuple).ok());
  }
  for (const auto& [p, q] : kSlopes) {
    const double s = static_cast<double>(p) / q;
    for (double b : {-12.5, -0.75, 0.0, 3.25, 17.0}) {
      for (Cmp cmp : {Cmp::kGE, Cmp::kLE}) {
        for (SelectionType type :
             {SelectionType::kAll, SelectionType::kExist}) {
          std::vector<TupleId> want;
          for (TupleId id = 0; id < tuples.size(); ++id) {
            if (ExactDecision(tuples[id].rows, type, p, q, b, cmp)) {
              want.push_back(id);
            }
          }
          Result<std::vector<TupleId>> got =
              NaiveSelect(*relation, type, HalfPlaneQuery(s, b, cmp));
          ASSERT_TRUE(got.ok());
          EXPECT_EQ(got.value(), want)
              << "slope " << s << " intercept " << b;
        }
      }
    }
  }
}

}  // namespace
}  // namespace cdb
