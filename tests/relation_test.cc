#include "constraint/relation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>

#include "common/rng.h"
#include "constraint/naive_eval.h"
#include "constraint/relation_d.h"
#include "geometry/dual.h"
#include "storage/file.h"

namespace cdb {
namespace {

struct RelationFixture {
  std::unique_ptr<Pager> pager;
  std::unique_ptr<Relation> relation;

  RelationFixture() {
    PagerOptions opts;
    opts.page_size = 256;  // Small pages force multi-page relations.
    EXPECT_TRUE(
        Pager::Open(std::make_unique<MemFile>(256), opts, &pager).ok());
    EXPECT_TRUE(Relation::Open(pager.get(), kInvalidPageId, &relation).ok());
  }
};

GeneralizedTuple SquareAt(double cx, double cy, double half) {
  GeneralizedTuple t;
  t.Add(1, 0, -(cx + half), Cmp::kLE);
  t.Add(1, 0, -(cx - half), Cmp::kGE);
  t.Add(0, 1, -(cy + half), Cmp::kLE);
  t.Add(0, 1, -(cy - half), Cmp::kGE);
  return t;
}

TEST(RelationTest, InsertGetRoundTrip) {
  RelationFixture fx;
  GeneralizedTuple t = SquareAt(1, 2, 0.5);
  Result<TupleId> id = fx.relation->Insert(t);
  ASSERT_TRUE(id.ok());
  GeneralizedTuple back;
  ASSERT_TRUE(fx.relation->Get(id.value(), &back).ok());
  ASSERT_EQ(back.size(), t.size());
  for (size_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(back.constraints()[i].a, t.constraints()[i].a);
    EXPECT_EQ(back.constraints()[i].b, t.constraints()[i].b);
    EXPECT_EQ(back.constraints()[i].c, t.constraints()[i].c);
    EXPECT_EQ(back.constraints()[i].cmp, t.constraints()[i].cmp);
  }
}

TEST(RelationTest, SequentialIdsAndSize) {
  RelationFixture fx;
  for (int i = 0; i < 50; ++i) {
    Result<TupleId> id = fx.relation->Insert(SquareAt(i, i, 1));
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(id.value(), static_cast<TupleId>(i));
  }
  EXPECT_EQ(fx.relation->size(), 50u);
}

TEST(RelationTest, EmptyTupleRejected) {
  RelationFixture fx;
  EXPECT_TRUE(fx.relation->Insert(GeneralizedTuple())
                  .status()
                  .IsInvalidArgument());
}

TEST(RelationTest, PagesFreedWhenEmptied) {
  RelationFixture fx;
  std::vector<TupleId> ids;
  for (int i = 0; i < 40; ++i) {
    Result<TupleId> id = fx.relation->Insert(SquareAt(i, 0, 1));
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  uint64_t pages_full = fx.pager->live_page_count();
  EXPECT_GT(pages_full, 5u);  // 40 tuples * 107 B at 256 B pages.
  for (TupleId id : ids) ASSERT_TRUE(fx.relation->Delete(id).ok());
  // Everything deleted: at most one (root) data page remains.
  EXPECT_LE(fx.pager->live_page_count(), 1u);
  // The relation keeps working after full deletion.
  EXPECT_TRUE(fx.relation->Insert(SquareAt(0, 0, 1)).ok());
}

// --- Heap behaviour shared by Relation and RelationD -------------------
//
// Both relation types store their tuples in one TupleHeap, so each case
// below runs the same body over both, through a small traits struct.

GeneralizedTupleD BoxD(size_t dim, double lo, double hi) {
  std::vector<ConstraintD> cons;
  for (size_t i = 0; i < dim; ++i) {
    std::vector<double> e(dim, 0.0);
    e[i] = 1.0;
    cons.push_back({e, -hi, Cmp::kLE});
    cons.push_back({e, -lo, Cmp::kGE});
  }
  return GeneralizedTupleD(dim, std::move(cons));
}

struct Relation2D {
  using Rel = Relation;
  using Tuple = GeneralizedTuple;
  static constexpr const char* kName = "Relation";
  static Status Open(Pager* pager, PageId root, std::unique_ptr<Rel>* out) {
    return Relation::Open(pager, root, out);
  }
  // 4 constraints: 107-byte records, four to a 512-byte page.
  static Tuple Make(int i) { return SquareAt(i, i, 0.5); }
  static Tuple Oversized() {
    GeneralizedTuple t;
    for (int i = 0; i < 100; ++i) t.Add(1, 1, i, Cmp::kLE);  // 100*25 B.
    return t;
  }
};

struct Relation3D {
  using Rel = RelationD;
  using Tuple = GeneralizedTupleD;
  static constexpr const char* kName = "RelationD";
  static Status Open(Pager* pager, PageId root, std::unique_ptr<Rel>* out) {
    return RelationD::Open(pager, 3, root, out);
  }
  // 6 constraints: 205-byte records, two to a 512-byte page.
  static Tuple Make(int i) { return BoxD(3, i, i + 1.5); }
  static Tuple Oversized() {
    std::vector<ConstraintD> cons(100, ConstraintD({1, 1, 1}, 0, Cmp::kLE));
    return GeneralizedTupleD(3, std::move(cons));  // 100*33 B.
  }
};

std::unique_ptr<Pager> MakeHeapPager() {
  PagerOptions opts;
  opts.page_size = 512;
  std::unique_ptr<Pager> pager;
  EXPECT_TRUE(Pager::Open(std::make_unique<MemFile>(512), opts, &pager).ok());
  return pager;
}

std::vector<std::string> HeapViolations(const TupleHeap& heap) {
  std::vector<std::string> out;
  EXPECT_TRUE(
      heap.Verify([&out](const std::string& v) { out.push_back(v); }).ok());
  return out;
}

template <typename T>
std::vector<TupleId> LiveIds(const typename T::Rel& rel) {
  std::vector<TupleId> seen;
  EXPECT_TRUE(rel.ForEach([&](TupleId id, const typename T::Tuple&) {
                   seen.push_back(id);
                   return Status::OK();
                 })
                  .ok());
  return seen;
}

template <typename T>
void CheckOversizedTupleRejected() {
  SCOPED_TRACE(T::kName);
  auto pager = MakeHeapPager();
  std::unique_ptr<typename T::Rel> rel;
  ASSERT_TRUE(T::Open(pager.get(), kInvalidPageId, &rel).ok());
  EXPECT_TRUE(rel->Insert(T::Oversized()).status().IsInvalidArgument());
  EXPECT_EQ(rel->size(), 0u);
}

TEST(RelationTest, OversizedTupleRejected) {
  CheckOversizedTupleRejected<Relation2D>();
  CheckOversizedTupleRejected<Relation3D>();
}

template <typename T>
void CheckDeleteThenGetFails() {
  SCOPED_TRACE(T::kName);
  auto pager = MakeHeapPager();
  std::unique_ptr<typename T::Rel> rel;
  ASSERT_TRUE(T::Open(pager.get(), kInvalidPageId, &rel).ok());
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(rel->Insert(T::Make(i)).ok());
  ASSERT_TRUE(rel->Delete(5).ok());
  ASSERT_TRUE(rel->Delete(10).ok());
  typename T::Tuple out;
  EXPECT_TRUE(rel->Get(5, &out).IsNotFound());
  EXPECT_TRUE(rel->Delete(5).IsNotFound());
  EXPECT_EQ(rel->size(), 18u);
  std::vector<TupleId> seen = LiveIds<T>(*rel);
  EXPECT_EQ(seen.size(), 18u);
  EXPECT_TRUE(std::find(seen.begin(), seen.end(), 5u) == seen.end());
  // Deleting the last tuple empties the relation.
  for (TupleId id : seen) ASSERT_TRUE(rel->Delete(id).ok());
  EXPECT_EQ(rel->size(), 0u);
}

TEST(RelationTest, DeleteThenGetFails) {
  CheckDeleteThenGetFails<Relation2D>();
  CheckDeleteThenGetFails<Relation3D>();
}

template <typename T>
void CheckForEachVisitsLiveTuplesInOrder() {
  SCOPED_TRACE(T::kName);
  auto pager = MakeHeapPager();
  std::unique_ptr<typename T::Rel> rel;
  ASSERT_TRUE(T::Open(pager.get(), kInvalidPageId, &rel).ok());
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(rel->Insert(T::Make(i)).ok());
  ASSERT_TRUE(rel->Delete(3).ok());
  ASSERT_TRUE(rel->Delete(7).ok());
  EXPECT_EQ(LiveIds<T>(*rel), (std::vector<TupleId>{0, 1, 2, 4, 5, 6, 8, 9}));
}

TEST(RelationTest, ForEachVisitsLiveTuplesInOrder) {
  CheckForEachVisitsLiveTuplesInOrder<Relation2D>();
  CheckForEachVisitsLiveTuplesInOrder<Relation3D>();
}

template <typename T>
void CheckReopenRebuildsDirectory() {
  SCOPED_TRACE(T::kName);
  auto pager = MakeHeapPager();
  PageId root;
  {
    std::unique_ptr<typename T::Rel> rel;
    ASSERT_TRUE(T::Open(pager.get(), kInvalidPageId, &rel).ok());
    for (int i = 0; i < 30; ++i) ASSERT_TRUE(rel->Insert(T::Make(i)).ok());
    ASSERT_TRUE(rel->Delete(7).ok());
    root = rel->root_page();
  }
  std::unique_ptr<typename T::Rel> rel;
  ASSERT_TRUE(T::Open(pager.get(), root, &rel).ok());
  EXPECT_EQ(rel->size(), 29u);
  typename T::Tuple t;
  EXPECT_TRUE(rel->Get(8, &t).ok());
  EXPECT_TRUE(rel->Get(7, &t).IsNotFound());
  // New inserts continue after the highest existing id.
  Result<TupleId> id = rel->Insert(T::Make(100));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(id.value(), 30u);
}

TEST(RelationTest, ReopenRebuildsDirectory) {
  CheckReopenRebuildsDirectory<Relation2D>();
  CheckReopenRebuildsDirectory<Relation3D>();
}

// Deleting every tuple of a multi-page relation returns every page but the
// root to the pager, re-inserting reuses them instead of growing the file,
// and the chain stays sound throughout. The sweep visits ids in a stride
// order so pages die at the root, in the middle and at the tail.
template <typename T>
void CheckDeleteAllFreesAndReusesPages() {
  SCOPED_TRACE(T::kName);
  constexpr int kTuples = 40;
  auto pager = MakeHeapPager();
  std::unique_ptr<typename T::Rel> rel;
  ASSERT_TRUE(T::Open(pager.get(), kInvalidPageId, &rel).ok());
  for (int i = 0; i < kTuples; ++i) ASSERT_TRUE(rel->Insert(T::Make(i)).ok());
  const uint64_t pages_full = pager->live_page_count();
  const uint64_t file_pages = pager->file_page_count();
  ASSERT_GE(pages_full, 10u);

  for (int i = 0; i < kTuples; ++i) {
    ASSERT_TRUE(rel->Delete(static_cast<TupleId>(i * 7 % kTuples)).ok());
    ASSERT_EQ(HeapViolations(rel->heap()), std::vector<std::string>{})
        << "after deleting " << i * 7 % kTuples;
  }
  EXPECT_EQ(rel->size(), 0u);
  EXPECT_EQ(pager->live_page_count(), 1u);  // The sole root page.

  for (int i = 0; i < kTuples; ++i) ASSERT_TRUE(rel->Insert(T::Make(i)).ok());
  EXPECT_EQ(pager->live_page_count(), pages_full);
  EXPECT_EQ(pager->file_page_count(), file_pages);
  EXPECT_EQ(HeapViolations(rel->heap()), std::vector<std::string>{});

  const PageId root = rel->root_page();
  rel.reset();
  ASSERT_TRUE(T::Open(pager.get(), root, &rel).ok());
  EXPECT_EQ(rel->size(), static_cast<uint64_t>(kTuples));
  EXPECT_EQ(LiveIds<T>(*rel).size(), rel->size());
  EXPECT_EQ(HeapViolations(rel->heap()), std::vector<std::string>{});
}

TEST(RelationTest, DeleteAllFreesAndReusesPages) {
  CheckDeleteAllFreesAndReusesPages<Relation2D>();
  CheckDeleteAllFreesAndReusesPages<Relation3D>();
}

// A 2-D tuple is the dim = 2 record of the one heap format: the same
// constraints written through Relation and through RelationD(dim = 2)
// leave byte-identical data pages.
TEST(RelationTest, TwoDimensionalRecordsMatchRelationDBytes) {
  auto pager_2d = MakeHeapPager();
  auto pager_d = MakeHeapPager();
  std::unique_ptr<Relation> rel_2d;
  std::unique_ptr<RelationD> rel_d;
  ASSERT_TRUE(Relation::Open(pager_2d.get(), kInvalidPageId, &rel_2d).ok());
  ASSERT_TRUE(RelationD::Open(pager_d.get(), 2, kInvalidPageId, &rel_d).ok());
  Rng rng(5);
  for (int i = 0; i < 30; ++i) {
    GeneralizedTuple t2;
    std::vector<ConstraintD> cd;
    const int m = 3 + static_cast<int>(rng.UniformInt(0, 3));
    for (int j = 0; j < m; ++j) {
      const double a = rng.Uniform(-3, 3), b = rng.Uniform(-3, 3);
      const double c = rng.Uniform(-50, 50);
      const Cmp cmp = rng.Chance(0.5) ? Cmp::kLE : Cmp::kGE;
      t2.Add(a, b, c, cmp);
      cd.push_back({{a, b}, c, cmp});
    }
    Result<TupleId> id_2d = rel_2d->Insert(t2);
    Result<TupleId> id_d = rel_d->Insert(GeneralizedTupleD(2, std::move(cd)));
    ASSERT_TRUE(id_2d.ok() && id_d.ok());
    EXPECT_EQ(id_2d.value(), id_d.value());
  }
  for (TupleId id : {3u, 4u, 5u, 6u, 17u}) {
    ASSERT_TRUE(rel_2d->Delete(id).ok());
    ASSERT_TRUE(rel_d->Delete(id).ok());
  }
  ASSERT_TRUE(pager_2d->Flush().ok());
  ASSERT_TRUE(pager_d->Flush().ok());

  EXPECT_EQ(rel_2d->root_page(), rel_d->root_page());
  ASSERT_EQ(pager_2d->file_page_count(), pager_d->file_page_count());
  size_t compared = 0;
  for (PageId page = 1; page < pager_2d->file_page_count(); ++page) {
    if (pager_2d->free_pages().count(page) > 0) continue;
    Result<PageRef> a = pager_2d->Fetch(page);
    Result<PageRef> b = pager_d->Fetch(page);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(std::memcmp(a.value().data(), b.value().data(),
                          pager_2d->page_size()),
              0)
        << "data page " << page;
    ++compared;
  }
  EXPECT_GT(compared, 3u);
}

// Verify notices a page whose live_records disagrees with its live flags.
TEST(RelationTest, HeapVerifyReportsTamperedLiveCount) {
  auto pager = MakeHeapPager();
  std::unique_ptr<Relation> rel;
  ASSERT_TRUE(Relation::Open(pager.get(), kInvalidPageId, &rel).ok());
  for (int i = 0; i < 12; ++i) ASSERT_TRUE(rel->Insert(SquareAt(i, 0, 1)).ok());
  ASSERT_EQ(HeapViolations(rel->heap()), std::vector<std::string>{});
  PageId page;
  ASSERT_TRUE(rel->LocateTuple(5, &page).ok());
  {
    Result<PageRef> ref = pager->Fetch(page);
    ASSERT_TRUE(ref.ok());
    uint16_t live;  // PageHeader: next u32 | prev u32 | used u16 | live u16.
    std::memcpy(&live, ref.value().data() + 10, 2);
    ++live;
    std::memcpy(ref.value().data() + 10, &live, 2);
    ref.value().MarkDirty();
  }
  std::vector<std::string> v = HeapViolations(rel->heap());
  ASSERT_EQ(v.size(), 1u);
  EXPECT_NE(v[0].find("live_records"), std::string::npos) << v[0];
  EXPECT_NE(v[0].find(std::to_string(page)), std::string::npos) << v[0];
}

TEST(NaiveEvalTest, MatchesGeometryPredicates) {
  RelationFixture fx;
  Rng rng(11);
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(fx.relation
                    ->Insert(SquareAt(rng.Uniform(-40, 40),
                                      rng.Uniform(-40, 40),
                                      rng.Uniform(0.5, 4)))
                    .ok());
  }
  for (int qi = 0; qi < 20; ++qi) {
    HalfPlaneQuery q(rng.Uniform(-2, 2), rng.Uniform(-40, 40),
                     rng.Chance(0.5) ? Cmp::kGE : Cmp::kLE);
    for (SelectionType type : {SelectionType::kAll, SelectionType::kExist}) {
      Result<std::vector<TupleId>> got = NaiveSelect(*fx.relation, type, q);
      ASSERT_TRUE(got.ok());
      std::vector<TupleId> want;
      ASSERT_TRUE(fx.relation
                      ->ForEach([&](TupleId id, const GeneralizedTuple& t) {
                        bool hit = type == SelectionType::kAll
                                       ? ExactAll(t.constraints(), q)
                                       : ExactExist(t.constraints(), q);
                        if (hit) want.push_back(id);
                        return Status::OK();
                      })
                      .ok());
      EXPECT_EQ(got.value(), want);
    }
  }
}

TEST(NaiveEvalTest, AllIsSubsetOfExist) {
  RelationFixture fx;
  Rng rng(12);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(fx.relation
                    ->Insert(SquareAt(rng.Uniform(-20, 20),
                                      rng.Uniform(-20, 20),
                                      rng.Uniform(0.5, 5)))
                    .ok());
  }
  for (int qi = 0; qi < 15; ++qi) {
    HalfPlaneQuery q(rng.Uniform(-2, 2), rng.Uniform(-30, 30),
                     rng.Chance(0.5) ? Cmp::kGE : Cmp::kLE);
    auto all = NaiveSelect(*fx.relation, SelectionType::kAll, q);
    auto exist = NaiveSelect(*fx.relation, SelectionType::kExist, q);
    ASSERT_TRUE(all.ok() && exist.ok());
    for (TupleId id : all.value()) {
      EXPECT_TRUE(std::find(exist.value().begin(), exist.value().end(), id) !=
                  exist.value().end());
    }
  }
}

}  // namespace
}  // namespace cdb
