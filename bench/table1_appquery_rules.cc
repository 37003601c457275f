// Regenerates Table 1: the choice of app-query operators θ1, θ2 for each
// relation between the query slope a and the chosen set slopes a1, a2 —
// and verifies empirically (dense point sampling) that the produced pair
// covers the original half-plane in every case.

#include <array>
#include <cmath>
#include <cstdio>

#include "common/rng.h"
#include "dualindex/app_query.h"
#include "harness.h"

namespace cdb {
namespace {

void VerifyCase(const SlopeSet& s, double slope, const char* label, Rng* rng,
                bench::BenchReporter* reporter) {
  int trials = 0, covered = 0;
  Cmp theta1 = Cmp::kGE, theta2 = Cmp::kGE;
  Cmp base = Cmp::kGE;
  for (int t = 0; t < 200; ++t) {
    base = rng->Chance(0.5) ? Cmp::kGE : Cmp::kLE;
    HalfPlaneQuery q(slope + rng->Uniform(-0.05, 0.05),
                     rng->Uniform(-30, 30), base);
    if (s.Locate(q.slope).kind == SlopeLocation::Kind::kExact) continue;
    const std::array<AppQuery, 2> plan =
        PlanAppQueries(s, SelectionType::kExist, q);
    theta1 = plan[0].cmp == base ? Cmp::kGE : Cmp::kLE;
    theta2 = plan[1].cmp == base ? Cmp::kGE : Cmp::kLE;
    HalfPlaneQuery q1(s.slope(plan[0].slope_index), plan[0].intercept,
                      plan[0].cmp);
    HalfPlaneQuery q2(s.slope(plan[1].slope_index), plan[1].intercept,
                      plan[1].cmp);
    ++trials;
    if (CoversSampled(q, q1, q2, 120.0, 50)) ++covered;
  }
  // theta1/theta2 relative to θ: kGE here encodes "equals θ".
  std::printf("%-22s %-12s %-12s %6d/%d covered\n", label,
              theta1 == Cmp::kGE ? "theta" : "not-theta",
              theta2 == Cmp::kGE ? "theta" : "not-theta", covered, trials);
  reporter->AddValue(label, {{"slope", slope}}, "covered", covered);
  reporter->AddValue(label, {{"slope", slope}}, "trials", trials);
}

}  // namespace
}  // namespace cdb

int main(int argc, char** argv) {
  using namespace cdb;
  bench::BenchReporter reporter("table1_appquery_rules", &argc, argv);
  std::printf("=== Table 1: choice of half-plane app-query operators ===\n\n");
  std::printf("%-22s %-12s %-12s %s\n", "conditions", "theta1", "theta2",
              "coverage (sampled)");

  SlopeSet s({-1.0, 1.0});
  Rng rng(424242);
  VerifyCase(s, 0.0, "a1 < a < a2", &rng, &reporter);
  VerifyCase(s, 4.0, "a1 < a, a2 < a", &rng, &reporter);
  VerifyCase(s, -4.0, "a < a1, a < a2", &rng, &reporter);

  std::printf(
      "\nAll rows must show theta assignments matching the paper's Table 1\n"
      "and full coverage counts (union of app-queries covers the original\n"
      "half-plane), confirming Section 4.1's correctness argument.\n");
  return reporter.Write() ? 0 : 1;
}
