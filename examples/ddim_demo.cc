// Section 4.4 in action: indexing 3-dimensional generalized tuples.
//
// Scenario: a fleet of job configurations over (cpu, mem, time) described
// by linear constraints; a budget hyperplane
//   time θ s1*cpu + s2*mem + b
// asks which configurations fit entirely under the budget (ALL with <=) or
// can fit at all (EXIST). Slope points (s1, s2) form the predefined set S;
// arbitrary budget gradients are answered through the d-dimensional T1
// approximation (convex-combination covering).

#include <cstdio>
#include <vector>

#include "common/rng.h"
#include "dualindex/ddim_index.h"
#include "storage/file.h"
#include "workload/generator.h"

using namespace cdb;

namespace {

void Check(const Status& st) {
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    std::exit(1);
  }
}

}  // namespace

int main() {
  PagerOptions opts;
  std::unique_ptr<Pager> pager, rel_pager;
  Check(Pager::Open(std::make_unique<MemFile>(opts.page_size), opts, &pager));
  Check(Pager::Open(std::make_unique<MemFile>(opts.page_size), opts,
                    &rel_pager));
  std::unique_ptr<RelationD> relation;
  Check(RelationD::Open(rel_pager.get(), /*dim=*/3, kInvalidPageId,
                        &relation));

  // S: a 3x3 grid of slope points in [-1, 1]^2.
  std::vector<std::vector<double>> slopes;
  for (double s1 : {-1.0, 0.0, 1.0}) {
    for (double s2 : {-1.0, 0.0, 1.0}) {
      slopes.push_back({s1, s2});
    }
  }
  std::unique_ptr<DDimDualIndex> index;
  Check(DDimDualIndex::Create(pager.get(), relation.get(), slopes, &index));

  Rng rng(77);
  const int kJobs = 400;
  for (int i = 0; i < kJobs; ++i) {
    Result<TupleId> id = index->Insert(RandomBoundedTupleD(&rng, 3, 20.0));
    Check(id.status());
  }
  std::printf("indexed %zu 3-D job-configuration tuples over |S| = %zu "
              "slope points\n",
              index->tuple_count(), slopes.size());

  // An exact query (slope point in S) and an approximated one.
  for (const std::vector<double>& slope :
       std::vector<std::vector<double>>{{0.0, 1.0}, {0.35, -0.6}}) {
    HalfPlaneQueryD q;
    q.slope = slope;
    q.intercept = 25.0;
    q.cmp = Cmp::kLE;  // time <= s1*cpu + s2*mem + b : "under budget".
    for (SelectionType type : {SelectionType::kAll, SelectionType::kExist}) {
      QueryStats stats;
      Result<std::vector<TupleId>> r =
          index->Select(type, q, &stats);
      Check(r.status());
      std::printf(
          "%-5s slope=(%.2f, %.2f): %4zu jobs, %3llu index pages%s\n",
          type == SelectionType::kAll ? "ALL" : "EXIST", slope[0], slope[1],
          r.value().size(),
          static_cast<unsigned long long>(stats.index_page_fetches),
          stats.filter.dedup_dropped > 0 ? " (T1 duplicates removed)" : "");
    }
  }
  std::printf("index size: %llu pages\n",
              static_cast<unsigned long long>(index->live_page_count()));
  return 0;
}
