// Quickstart: parse generalized tuples, store them in a relation, build the
// dual index, and run ALL / EXIST half-plane selections.
//
//   cmake --build build && ./build/examples/quickstart

#include <cstdio>
#include <vector>

#include "constraint/parser.h"
#include "dualindex/dual_index.h"
#include "storage/file.h"

using namespace cdb;

namespace {

// Convenience: abort with a message on error (example code only; library
// code propagates Status).
void Check(const Status& st) {
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    std::exit(1);
  }
}

}  // namespace

int main() {
  // 1. A pager per structure (1 KiB pages, as in the paper).
  PagerOptions opts;
  std::unique_ptr<Pager> rel_pager, idx_pager;
  Check(Pager::Open(std::make_unique<MemFile>(opts.page_size), opts,
                    &rel_pager));
  Check(Pager::Open(std::make_unique<MemFile>(opts.page_size), opts,
                    &idx_pager));

  // 2. A relation of generalized tuples, written in constraint syntax.
  //    Note the last tuple is *unbounded* — a first-class citizen here.
  std::unique_ptr<Relation> relation;
  Check(Relation::Open(rel_pager.get(), kInvalidPageId, &relation));
  const std::vector<std::string> tuple_texts = {
      "x >= 0, y >= 0, x + y <= 4",          // Triangle at the origin.
      "x >= 5, x <= 7, y >= 5, y <= 7",      // A box.
      "x >= -6, y >= -6, y <= -4, x <= -1",  // A flat box, lower left.
      "y >= 2*x + 10, y <= 2*x + 12, x >= 0",  // A slanted strip piece.
      "x <= 2, y >= 3",                      // Paper's unbounded example.
  };
  for (const std::string& text : tuple_texts) {
    GeneralizedTuple tuple;
    Check(ParseGeneralizedTuple(text, &tuple));
    Result<TupleId> id = relation->Insert(tuple);
    Check(id.status());
    std::printf("tuple %u: %s\n", id.value(), text.c_str());
  }

  // 3. Build the dual index: |S| = 3 slopes; two B+-trees per slope.
  std::unique_ptr<DualIndex> index;
  Check(DualIndex::Build(idx_pager.get(), relation.get(),
                         SlopeSet({-1.0, 0.0, 1.0}), DualIndexOptions(),
                         &index));

  // 4. Queries. ALL = extension contained in the half-plane; EXIST =
  //    non-empty intersection. Any slope is allowed: kAuto answers a slope
  //    outside S with T1's two app-queries plus refinement.
  struct Demo {
    const char* text;
    SelectionType type;
  };
  const std::vector<Demo> demos = {
      {"y >= -1", SelectionType::kAll},
      {"y >= -1", SelectionType::kExist},
      {"y <= 0.5*x + 4", SelectionType::kAll},
      {"y >= 0.4*x + 2", SelectionType::kExist},
  };
  for (const Demo& demo : demos) {
    HalfPlaneQuery q;
    Check(ParseHalfPlaneQuery(demo.text, &q));
    QueryStats stats;
    Result<std::vector<TupleId>> r =
        index->Select(demo.type, q, QueryMethod::kAuto, &stats);
    Check(r.status());
    std::printf("%-5s (%s): tuples {",
                demo.type == SelectionType::kAll ? "ALL" : "EXIST",
                demo.text);
    for (size_t i = 0; i < r.value().size(); ++i) {
      std::printf("%s%u", i ? ", " : "", r.value()[i]);
    }
    std::printf("}  [%llu index pages, %llu candidates]\n",
                static_cast<unsigned long long>(stats.index_page_fetches),
                static_cast<unsigned long long>(stats.candidates));
  }

  std::printf("index uses %llu pages of %zu bytes\n",
              static_cast<unsigned long long>(index->live_page_count()),
              idx_pager->page_size());
  return 0;
}
