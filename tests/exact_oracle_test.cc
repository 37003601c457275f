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
// segments and empty conjunctions, and every candidate the refiner decides
// from a bounding box alone must be decided the way the exact arithmetic
// decides it, at coefficient magnitudes out to the validated 2^±64 edges.

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "constraint/naive_eval.h"
#include "constraint/refine_batch.h"
#include "constraint/relation.h"
#include "geometry/dual.h"
#include "obs/metrics.h"
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

// The intercept b as a rational; b*4 must be an integer.
Frac Quarters(double b) {
  return Make(static_cast<i128>(std::llround(b * 4)), 4);
}

bool ExactDecision(const std::vector<IntRow>& rows, SelectionType type,
                   int p, int q, const Frac& fb, Cmp cmp) {
  if (!NonEmpty(rows)) return false;
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
                    ExactDecision(t.rows, SelectionType::kAll, p, q,
                                  Quarters(b), cmp))
              << what;
          EXPECT_EQ(ExactExist(t.tuple.constraints(), hq),
                    ExactDecision(t.rows, SelectionType::kExist, p, q,
                                  Quarters(b), cmp))
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
            if (ExactDecision(tuples[id].rows, type, p, q, Quarters(b),
                              cmp)) {
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

// --- Box decisions -----------------------------------------------------------

Frac Neg(const Frac& x) { return {-x.num, x.den}; }

Frac Sub(const Frac& x, const Frac& y) {
  return Make(x.num * y.den - y.num * x.den, x.den * y.den);
}

// x * p/q.
Frac Times(const Frac& x, int p, int q) { return Make(x.num * p, x.den * q); }

const Frac& Min(const Frac& x, const Frac& y) { return Less(y, x) ? y : x; }
const Frac& Max(const Frac& x, const Frac& y) { return Less(x, y) ? y : x; }

bool Equal(const Frac& x, const Frac& y) { return !Less(x, y) && !Less(y, x); }

// The exact bounding box of a region, or nullopt when it is empty or
// unbounded (then the refiner must have no box either).
struct ExactBox {
  Frac xlo, xhi, ylo, yhi;
};

std::optional<ExactBox> BoxOf(const std::vector<IntRow>& rows) {
  if (!NonEmpty(rows)) return std::nullopt;
  std::optional<Frac> xhi = ExactMax(rows, 1, 0);
  std::optional<Frac> xlo = ExactMax(rows, -1, 0);
  std::optional<Frac> yhi = ExactMax(rows, 0, 1);
  std::optional<Frac> ylo = ExactMax(rows, 0, -1);
  if (!xhi || !xlo || !yhi || !ylo) return std::nullopt;
  return ExactBox{Neg(*xlo), *xhi, Neg(*ylo), *yhi};
}

// The extremes of y - (p/q) x over the box corners: the values a box
// decision compares the intercept with.
void ExactBoxSupport(const ExactBox& box, int p, int q, Frac* f_min,
                     Frac* f_max) {
  const Frac e1 = Times(box.xlo, p, q);
  const Frac e2 = Times(box.xhi, p, q);
  *f_max = Sub(box.yhi, Min(e1, e2));
  *f_min = Sub(box.ylo, Max(e1, e2));
}

// The tuple `t` scaled by 2^region_exp about the origin, with every row
// then multiplied by 2^row_exp (which leaves the region alone). Powers of
// two keep every coefficient, vertex and support value exact up to
// rounding, and the decision of a query whose intercept is scaled the same
// way is the unscaled decision.
GeneralizedTuple Scaled(const IntTuple& t, int region_exp, int row_exp) {
  GeneralizedTuple out;
  for (const IntRow& r : t.rows) {
    double a = static_cast<double>(r.a);
    double b = static_cast<double>(r.b);
    double c = static_cast<double>(r.c);
    if (region_exp >= 0) {
      c = std::ldexp(c, region_exp);
    } else {
      a = std::ldexp(a, -region_exp);
      b = std::ldexp(b, -region_exp);
    }
    out.Add(std::ldexp(a, row_exp), std::ldexp(b, row_exp),
            std::ldexp(c, row_exp), Cmp::kLE);
  }
  return out;
}

// Unscaled intercepts, each a multiple of 1/64 (so exact as a double):
// fixed far and near values, and values on and beside TOP, BOT and the box
// support extremes. Box edges of integer-vertex tuples land on the grid,
// so some queries touch the box exactly.
std::vector<Frac> BoxIntercepts(const std::vector<IntRow>& rows, int p,
                                int q) {
  std::vector<Frac> out;
  for (int v : {-100, -3, 0, 2, 100}) out.push_back({v, 1});
  std::vector<Frac> surfaces;
  for (const std::optional<Frac>& f :
       {ExactTop(rows, p, q), ExactBot(rows, p, q)}) {
    if (f) surfaces.push_back(*f);
  }
  if (std::optional<ExactBox> box = BoxOf(rows)) {
    Frac f_min, f_max;
    ExactBoxSupport(*box, p, q, &f_min, &f_max);
    surfaces.push_back(f_min);
    surfaces.push_back(f_max);
  }
  for (const Frac& f : surfaces) {
    const i128 base = static_cast<i128>(std::floor(ToDouble(f) * 64));
    for (int d : {-1, 0, 1, 16}) out.push_back(Make(base + d, 64));
  }
  return out;
}

// Every +1/-1 RefineBatch2D takes from a bounding box (booked in its
// refine.batch.bbox_* counters) is checked against the exact decision.
// Scales: unit; every row at 2^-64 (the smallest valid magnitude); regions
// stretched to 2^54, which puts constant terms near 2^64; and regions
// shrunk to 2^-58, which puts slope terms near 2^62 and makes the
// comparison tolerance absolute.
TEST(ExactOracleTest, BoxDecisionsMatchExactDecisions) {
  obs::GlobalMetrics().SetEnabled(true);
  obs::Counter* lp = obs::GlobalMetrics().counter("test.oracle.lp_calls");
  obs::Counter* bbox_accepts =
      obs::GlobalMetrics().counter("refine.batch.bbox_accepts");
  obs::Counter* bbox_rejects =
      obs::GlobalMetrics().counter("refine.batch.bbox_rejects");
  const std::vector<IntTuple> tuples = RandomTuples(44, 12);
  const struct {
    int region_exp, row_exp;
  } scales[] = {{0, 0}, {0, -64}, {54, 0}, {-58, 0}};
  uint64_t touching = 0;
  for (const auto& [region_exp, row_exp] : scales) {
    const std::string scale = "scale 2^" + std::to_string(region_exp) +
                              " rows 2^" + std::to_string(row_exp);
    std::unique_ptr<Pager> pager;
    ASSERT_TRUE(
        Pager::Open(std::make_unique<MemFile>(1024), PagerOptions{}, &pager)
            .ok());
    std::unique_ptr<Relation> relation;
    ASSERT_TRUE(Relation::Open(pager.get(), kInvalidPageId, &relation).ok());
    for (const IntTuple& t : tuples) {
      Result<TupleId> id = relation->Insert(Scaled(t, region_exp, row_exp));
      ASSERT_TRUE(id.ok()) << scale << ": " << id.status().ToString();
    }
    // The far intercepts ±1 in scaled units, so a shrunk region still
    // meets intercepts far beyond the absolute tolerance.
    std::vector<Frac> extra;
    if (region_exp < 0) {
      extra = {{static_cast<i128>(1) << -region_exp, 1},
               {-(static_cast<i128>(1) << -region_exp), 1}};
    }
    uint64_t accepts = 0, rejects = 0;
    for (TupleId id = 0; id < tuples.size(); ++id) {
      const std::vector<IntRow>& rows = tuples[id].rows;
      const std::optional<ExactBox> box = BoxOf(rows);
      for (const auto& [p, q] : kSlopes) {
        const double s = static_cast<double>(p) / q;
        Frac f_min{0, 1}, f_max{0, 1};
        if (box) ExactBoxSupport(*box, p, q, &f_min, &f_max);
        std::vector<Frac> intercepts = BoxIntercepts(rows, p, q);
        intercepts.insert(intercepts.end(), extra.begin(), extra.end());
        for (const Frac& b : intercepts) {
          const double bd = std::ldexp(ToDouble(b), region_exp);
          touching += box && (Equal(b, f_min) || Equal(b, f_max));
          for (Cmp cmp : {Cmp::kGE, Cmp::kLE}) {
            for (SelectionType type :
                 {SelectionType::kAll, SelectionType::kExist}) {
              std::vector<TupleId> ids = {id};
              obs::FilterCounts filter;
              uint64_t false_hits = 0;
              const uint64_t a0 = bbox_accepts->value();
              const uint64_t r0 = bbox_rejects->value();
              ASSERT_TRUE(RefineBatch2D(*relation, type,
                                        HalfPlaneQuery(s, bd, cmp), lp,
                                        /*ctx=*/nullptr, &ids, &filter,
                                        &false_hits)
                              .ok());
              const uint64_t da = bbox_accepts->value() - a0;
              const uint64_t dr = bbox_rejects->value() - r0;
              if (da + dr == 0) continue;
              const std::string what =
                  scale + " tuple " + std::to_string(id) + " slope " +
                  std::to_string(s) + " intercept " + std::to_string(bd) +
                  (type == SelectionType::kAll ? " ALL" : " EXIST") +
                  (cmp == Cmp::kGE ? " >=" : " <=");
              ASSERT_TRUE(box.has_value())
                  << what << ": decided from a box the region does not have";
              const bool exact = ExactDecision(rows, type, p, q, b, cmp);
              // The box proves only ALL-accepts and EXIST-rejects.
              if (da > 0) {
                ++accepts;
                EXPECT_EQ(type, SelectionType::kAll) << what;
                EXPECT_TRUE(exact) << what << ": box accepted";
                EXPECT_EQ(ids, std::vector<TupleId>{id}) << what;
              } else {
                ++rejects;
                EXPECT_EQ(type, SelectionType::kExist) << what;
                EXPECT_FALSE(exact) << what << ": box rejected";
                EXPECT_TRUE(ids.empty()) << what;
              }
            }
          }
        }
      }
    }
    EXPECT_GT(accepts, 0u) << scale;
    EXPECT_GT(rejects, 0u) << scale;
  }
  // Some queries ran exactly through a box corner.
  EXPECT_GT(touching, 0u);
  obs::GlobalMetrics().SetEnabled(false);
}

}  // namespace
}  // namespace cdb
