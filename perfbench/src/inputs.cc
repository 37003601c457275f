#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/rng.h"

namespace perfbench {

namespace {

using cdb::Cmp;
using cdb::GeneralizedTuple;
using cdb::Rng;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kWindow = 50.0;  // Centres uniform in [-50, 50]^2.
constexpr double kPi = 3.14159265358979323846;
// Boundary lines stay this far (radians) from the vertical, as in the
// library's generator: steep lines make the LP coefficients ill-scaled.
constexpr double kVerticalGuard = 0.1;

// Seed streams: one per kind of input, so adding queries never shifts the
// tuples and the append stream never shifts the starting set.
enum Stream : uint64_t {
  kStartStream = 2,
  kAppendStream = 3,
  kQueryStream = 4,
};

const WorkloadSpec kWorkloads[] = {
    // All 810 index and 1260 relation pages fit the 4096-frame pools:
    // every fetch is a buffer hit. Its append probes run the lane alone.
    {"serve_hot", 8000, 0.0, 4096, 4096, 0, 1024, 11, 1024},
    // 1608 index and 2401 relation pages against the paper's 64-frame
    // pools; a tenth of the tuples are unbounded. Its probes run the lane
    // alone too.
    {"serve_spill", 16000, 0.10, 64, 4096, 0, 512, 11, 512},
    // serve_hot's starting index; 4096 appends race two query workers.
    {"ingest_serve", 8000, 0.0, 4096, 4096, 2, 0, 1, 1024},
};

bool SteepDirection(double dx, double dy) {
  return std::fabs(dx) < std::sin(kVerticalGuard) * std::hypot(dx, dy);
}

// Support values of a polygon given by its vertices.
void PolygonSupport(const std::vector<double>& xs,
                    const std::vector<double>& ys,
                    const std::vector<double>& slopes, std::vector<double>* top,
                    std::vector<double>* bot) {
  top->assign(slopes.size(), -kInf);
  bot->assign(slopes.size(), kInf);
  for (size_t s = 0; s < slopes.size(); ++s) {
    for (size_t v = 0; v < xs.size(); ++v) {
      const double f = ys[v] - slopes[s] * xs[v];
      (*top)[s] = std::max((*top)[s], f);
      (*bot)[s] = std::min((*bot)[s], f);
    }
  }
}

// A convex polygon of 3-6 vertices on a circle: its bounding box covers
// 1-5 % of the window's side (the library's "small" class), and no edge is
// steeper than the vertical guard allows.
void BoundedTuple(Rng* rng, const std::vector<double>& slopes,
                  GeneralizedTuple* tuple, std::vector<double>* top,
                  std::vector<double>* bot) {
  for (;;) {
    const double side = rng->Uniform(0.01, 0.05) * 2 * kWindow;
    const double r = side / 2;
    const double cx = rng->Uniform(-kWindow, kWindow);
    const double cy = rng->Uniform(-kWindow, kWindow);
    const int m = static_cast<int>(rng->UniformInt(3, 6));
    std::vector<double> angles(m);
    for (double& a : angles) a = rng->Uniform(0, 2 * kPi);
    std::sort(angles.begin(), angles.end());
    // Every arc between neighbours below pi keeps the centre inside; above
    // 0.3 keeps edges from degenerating.
    bool ok = true;
    for (int v = 0; v < m && ok; ++v) {
      const double next = v + 1 < m ? angles[v + 1] : angles[0] + 2 * kPi;
      const double gap = next - angles[v];
      ok = gap > 0.3 && gap < kPi - 0.1;
    }
    if (!ok) continue;
    std::vector<double> xs(m), ys(m);
    for (int v = 0; v < m; ++v) {
      xs[v] = cx + r * std::cos(angles[v]);
      ys[v] = cy + r * std::sin(angles[v]);
    }
    GeneralizedTuple t;
    for (int v = 0; v < m && ok; ++v) {
      const int w = (v + 1) % m;
      const double dx = xs[w] - xs[v], dy = ys[w] - ys[v];
      if (SteepDirection(dx, dy)) {
        ok = false;
        break;
      }
      // Counter-clockwise order: the interior is left of each edge, i.e.
      // dy*(x - xv) - dx*(y - yv) <= 0, scaled to a unit normal.
      const double len = std::hypot(dx, dy);
      t.Add(dy / len, -dx / len, -(dy * xs[v] - dx * ys[v]) / len, Cmp::kLE);
    }
    if (!ok) continue;
    PolygonSupport(xs, ys, slopes, top, bot);
    *tuple = std::move(t);
    return;
  }
}

// An unbounded wedge: apex in the window, two rays 0.4-2.6 rad apart. No
// ray is steep or nearly parallel to a query slope, where the library's
// boxed LP and the exact ray test could disagree.
void WedgeTuple(Rng* rng, const std::vector<double>& slopes,
                GeneralizedTuple* tuple, std::vector<double>* top,
                std::vector<double>* bot) {
  for (;;) {
    const double px = rng->Uniform(-kWindow, kWindow);
    const double py = rng->Uniform(-kWindow, kWindow);
    const double theta = rng->Uniform(0, 2 * kPi);
    const double alpha = rng->Uniform(0.4, 2.6);
    const double d1x = std::cos(theta), d1y = std::sin(theta);
    const double d2x = std::cos(theta + alpha), d2y = std::sin(theta + alpha);
    if (SteepDirection(d1x, d1y) || SteepDirection(d2x, d2y)) continue;
    bool ok = true;
    top->assign(slopes.size(), 0);
    bot->assign(slopes.size(), 0);
    for (size_t s = 0; s < slopes.size() && ok; ++s) {
      const double a = slopes[s];
      const double norm = std::hypot(1.0, a);
      const double f1 = (d1y - a * d1x) / norm, f2 = (d2y - a * d2x) / norm;
      if (std::fabs(f1) < 1e-3 || std::fabs(f2) < 1e-3) {
        ok = false;
        break;
      }
      const double apex = py - a * px;
      (*top)[s] = (f1 > 0 || f2 > 0) ? kInf : apex;
      (*bot)[s] = (f1 < 0 || f2 < 0) ? -kInf : apex;
    }
    if (!ok) continue;
    // d2 lies counter-clockwise of d1: the wedge is left of the line along
    // d1 and right of the line along d2, both through the apex.
    GeneralizedTuple t;
    t.Add(d1y, -d1x, -(d1y * px - d1x * py), Cmp::kLE);
    t.Add(-d2y, d2x, -(-d2y * px + d2x * py), Cmp::kLE);
    *tuple = std::move(t);
    return;
  }
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Inputs::Inputs(const WorkloadSpec& spec, uint64_t seed)
    : spec_(spec),
      query_phase_(Rng(cdb::SplitSeed(seed, kQueryStream)).Uniform(0, 1)) {
  // S: k slopes evenly spaced in angle over [-kAngleRange, kAngleRange]
  // (endpoint-inclusive), angles -0.9, 0 and 0.9. The off-S slopes are the
  // same for every seed, at tenths of each gap between S angles, so T2's
  // work does not depend on where a seed happens to put them.
  slopes_ = slope_set().slopes();
  for (int sign : {-1, 1}) {
    for (int tenth = 1; tenth < 10; tenth += 2) {
      slopes_.push_back(std::tan(sign * kAngleRange * tenth / 10.0));
    }
  }

  const size_t total = spec.n0 + spec.appends;
  tuples_.reserve(total);
  top_.assign(slopes_.size(), {});
  bot_.assign(slopes_.size(), {});
  for (auto& v : top_) v.reserve(total);
  for (auto& v : bot_) v.reserve(total);
  std::vector<double> top, bot;
  for (uint64_t stream : {kStartStream, kAppendStream}) {
    Rng rng(cdb::SplitSeed(seed, stream));
    const size_t count = stream == kStartStream ? spec.n0 : spec.appends;
    for (size_t i = 0; i < count; ++i) {
      GeneralizedTuple t;
      if (spec.unbounded_share > 0 && rng.Chance(spec.unbounded_share)) {
        WedgeTuple(&rng, slopes_, &t, &top, &bot);
      } else {
        BoundedTuple(&rng, slopes_, &t, &top, &bot);
      }
      tuples_.push_back(std::move(t));
      for (size_t s = 0; s < slopes_.size(); ++s) {
        top_[s].push_back(top[s]);
        bot_[s].push_back(bot[s]);
      }
    }
  }

  sorted_top_.resize(slopes_.size());
  sorted_bot_.resize(slopes_.size());
  for (size_t s = 0; s < slopes_.size(); ++s) {
    sorted_top_[s].assign(top_[s].begin(), top_[s].begin() + spec.n0);
    sorted_bot_[s].assign(bot_[s].begin(), bot_[s].begin() + spec.n0);
    std::sort(sorted_top_[s].begin(), sorted_top_[s].end());
    std::sort(sorted_bot_[s].begin(), sorted_bot_[s].end());
  }
}

cdb::SlopeSet Inputs::slope_set() const {
  return cdb::SlopeSet::UniformInAngle(kTreesPerSide, -kAngleRange,
                                       kAngleRange);
}

BenchQuery Inputs::Query(uint64_t i) const {
  const size_t n = spec_.n0;
  BenchQuery out;
  // The mix is stratified by index, so every stretch of queries has the
  // same shares: (type, cmp) cycles with period 4; within each of those
  // families every fourth query takes an S slope (cycling through S) and
  // the rest cycle through the off-S slopes.
  out.type = i % 2 == 0 ? cdb::SelectionType::kExist : cdb::SelectionType::kAll;
  const Cmp cmp = (i / 2) % 2 == 0 ? Cmp::kGE : Cmp::kLE;
  const uint64_t c = i / 4;
  out.slot = static_cast<uint32_t>(
      c % 4 == 0 ? (c / 4) % kTreesPerSide
                 : kTreesPerSide + ((c / 4) * 3 + c % 4 - 1) % kOffSlopes);
  // Target selectivity 1-5 % from a golden-ratio sequence started at the
  // seed's phase: evenly spread, distinct for every query.
  const double u = std::fmod(query_phase_ + static_cast<double>(c) *
                                                0.6180339887498949,
                             1.0);
  const double target = 0.01 + 0.04 * u;
  // Proposition 2.2: EXIST(>=) and ALL(<=) compare against TOP, the other
  // two against BOT; >= queries take the tuples above b.
  out.use_top = (out.type == cdb::SelectionType::kExist) == (cmp == Cmp::kGE);
  out.qualify_above = cmp == Cmp::kGE;
  for (;; out.slot = (out.slot + 1) % slopes_.size()) {
    const std::vector<double>& v =
        out.use_top ? sorted_top_[out.slot] : sorted_bot_[out.slot];
    size_t want = std::max<size_t>(
        1, static_cast<size_t>(std::lround(target * static_cast<double>(n))));
    // Walk outward until the boundary falls between two finite, distinct
    // values; infinite ones always qualify and cannot anchor it.
    for (; want < n / 5; ++want) {
      const double lo = out.qualify_above ? v[n - want - 1] : v[want - 1];
      const double hi = out.qualify_above ? v[n - want] : v[want];
      if (!std::isfinite(lo) || !std::isfinite(hi)) continue;
      const double scale = std::max({1.0, std::fabs(lo), std::fabs(hi)});
      if (hi - lo <= 1e-6 * scale) continue;
      out.q = cdb::HalfPlaneQuery(slopes_[out.slot], (lo + hi) / 2, cmp);
      return out;
    }
  }
}

bool Inputs::Qualifies(const BenchQuery& q, size_t t) const {
  const double v = q.use_top ? top_[q.slot][t] : bot_[q.slot][t];
  return q.qualify_above ? v >= q.q.intercept : v <= q.q.intercept;
}

}  // namespace perfbench
