// Tests for the offline integrity checker (db/check.h).

#include "db/check.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>

#include "common/rng.h"
#include "constraint/naive_eval.h"
#include "obs/health.h"
#include "obs/json.h"
#include "storage/file.h"
#include "workload/generator.h"

namespace cdb {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

void RemoveDb(const std::string& path) {
  std::filesystem::remove(path + ".rel");
  std::filesystem::remove(path + ".idx");
  std::filesystem::remove(path + ".rel-journal");
  std::filesystem::remove(path + ".idx-journal");
}

TEST(CheckTest, InMemoryDatabaseChecksOut) {
  DatabaseOptions opts;
  opts.in_memory = true;
  opts.index_options.support_vertical = true;
  std::unique_ptr<ConstraintDatabase> db;
  ASSERT_TRUE(ConstraintDatabase::Open("mem", opts, &db).ok());
  Rng rng(7);
  WorkloadOptions wopts;
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(db->Insert(RandomBoundedTuple(&rng, wopts)).ok());
  }
  ASSERT_TRUE(db->Flush().ok());

  CheckReport report;
  Status st = CheckDatabase(db.get(), &report);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GT(report.pages_checked, 0u);
  EXPECT_EQ(report.trees_checked, db->index()->tree_count());
  EXPECT_EQ(report.Summary().substr(0, 3), "ok:");
}

// ISSUE 5 satellite: the machine-readable verdict. Every CheckDatabase
// phase lands in report.checks in order, and WriteCheckReportJson emits a
// cdb-check/v1 document that parses back and mirrors the report.
TEST(CheckTest, ReportCarriesPerCheckEntriesAndJsonVerdict) {
  DatabaseOptions opts;
  opts.in_memory = true;
  std::unique_ptr<ConstraintDatabase> db;
  ASSERT_TRUE(ConstraintDatabase::Open("mem_json", opts, &db).ok());
  Rng rng(13);
  WorkloadOptions wopts;
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(db->Insert(RandomBoundedTuple(&rng, wopts)).ok());
  }
  ASSERT_TRUE(db->Flush().ok());

  CheckReport report;
  ASSERT_TRUE(CheckDatabase(db.get(), &report).ok());
  const char* expected[] = {"pager.relation", "pager.index", "index.trees",
                            "relation.heap", "relation.tuples"};
  ASSERT_EQ(report.checks.size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(report.checks[i].name, expected[i]);
    EXPECT_TRUE(report.checks[i].ok) << report.checks[i].name;
    EXPECT_EQ(report.checks[i].violations, 0u);
  }

  obs::JsonWriter w;
  WriteCheckReportJson(report, &w);
  Result<obs::JsonValue> doc = obs::ParseJson(w.str());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const obs::JsonValue& v = doc.value();
  ASSERT_TRUE(v.is_object());
  ASSERT_NE(v.Find("schema"), nullptr);
  EXPECT_EQ(v.Find("schema")->string_value, "cdb-check/v1");
  EXPECT_TRUE(v.Find("ok")->bool_value);
  EXPECT_EQ(v.Find("pages_checked")->number,
            static_cast<double>(report.pages_checked));
  EXPECT_EQ(v.Find("trees_checked")->number,
            static_cast<double>(report.trees_checked));
  const obs::JsonValue* checks = v.Find("checks");
  ASSERT_NE(checks, nullptr);
  ASSERT_TRUE(checks->is_array());
  ASSERT_EQ(checks->items.size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(checks->items[i].Find("name")->string_value, expected[i]);
    EXPECT_TRUE(checks->items[i].Find("ok")->bool_value);
  }
  ASSERT_NE(v.Find("violations"), nullptr);
  EXPECT_TRUE(v.Find("violations")->items.empty());
}

// A data page whose live_records disagrees with its live flags is reported
// under relation.heap, naming the page; every other phase stays sound.
TEST(CheckTest, HeapCheckReportsTamperedLiveCount) {
  DatabaseOptions opts;
  opts.in_memory = true;
  std::unique_ptr<ConstraintDatabase> db;
  ASSERT_TRUE(ConstraintDatabase::Open("mem_heap", opts, &db).ok());
  Rng rng(17);
  WorkloadOptions wopts;
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(db->Insert(RandomBoundedTuple(&rng, wopts)).ok());
  }
  ASSERT_TRUE(db->Flush().ok());
  PageId page;
  ASSERT_TRUE(db->relation()->LocateTuple(30, &page).ok());
  {
    Result<PageRef> ref = db->relation_pager()->Fetch(page);
    ASSERT_TRUE(ref.ok());
    uint16_t live;  // PageHeader: next u32 | prev u32 | used u16 | live u16.
    std::memcpy(&live, ref.value().data() + 10, 2);
    --live;
    std::memcpy(ref.value().data() + 10, &live, 2);
    ref.value().MarkDirty();
  }

  CheckReport report;
  ASSERT_TRUE(CheckDatabase(db.get(), &report).ok());
  EXPECT_FALSE(report.ok());
  for (const CheckReport::Entry& e : report.checks) {
    EXPECT_EQ(e.ok, e.name != "relation.heap") << e.name;
  }
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_NE(report.violations[0].find("live_records"), std::string::npos)
      << report.violations[0];
  EXPECT_NE(report.violations[0].find("page " + std::to_string(page)),
            std::string::npos)
      << report.violations[0];
}

// AddCheck attributes exactly the violations recorded since its snapshot,
// and a failing entry flips both the entry and the document verdict.
TEST(CheckTest, AddCheckAttributesViolationDeltas) {
  CheckReport report;
  report.AddViolation("pre-existing");
  const size_t before = report.violations.size();
  report.AddCheck("clean", before);
  report.AddViolation("bad page");
  report.AddViolation("bad tree");
  report.AddCheck("dirty", before);
  ASSERT_EQ(report.checks.size(), 2u);
  EXPECT_TRUE(report.checks[0].ok);
  EXPECT_EQ(report.checks[0].violations, 0u);
  EXPECT_FALSE(report.checks[1].ok);
  EXPECT_EQ(report.checks[1].violations, 2u);

  obs::JsonWriter w;
  WriteCheckReportJson(report, &w);
  Result<obs::JsonValue> doc = obs::ParseJson(w.str());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_FALSE(doc.value().Find("ok")->bool_value);
  EXPECT_EQ(doc.value().Find("violations")->items.size(), 3u);
  const obs::JsonValue* checks = doc.value().Find("checks");
  ASSERT_NE(checks, nullptr);
  EXPECT_FALSE(checks->items[1].Find("ok")->bool_value);
  EXPECT_EQ(checks->items[1].Find("violations")->number, 2.0);
}

// Both tree kinds through a file round trip: inserts, then deletes that
// merge leaves, then flush, close and reopen. The reopened database checks
// out, its stored aggregates check out bit for bit, and its T2 and kAuto
// answers equal naive evaluation. Parameter: incremental_handicaps.
class FileBackedCheckTest : public ::testing::TestWithParam<bool> {};

uint64_t LeafCount(ConstraintDatabase* db) {
  obs::HealthReport health;
  EXPECT_TRUE(db->index()->CollectHealth(&health).ok());
  uint64_t leaves = 0;
  for (const obs::TreeHealth& tree : health.trees) leaves += tree.leaves;
  return leaves;
}

TEST_P(FileBackedCheckTest, FileBackedDatabaseChecksOutAndJournals) {
  const bool augmented = GetParam();
  std::string path = TempPath(augmented ? "cdb_check_test_clean_aug"
                                        : "cdb_check_test_clean");
  RemoveDb(path);
  DatabaseOptions opts;
  opts.index_options.incremental_handicaps = augmented;
  {
    std::unique_ptr<ConstraintDatabase> db;
    ASSERT_TRUE(ConstraintDatabase::Open(path, opts, &db).ok());
    EXPECT_TRUE(db->index_pager()->journal_enabled());
    EXPECT_TRUE(db->index_pager()->checksums_enabled());
    Rng rng(11);
    WorkloadOptions wopts;
    for (int i = 0; i < 300; ++i) {
      GeneralizedTuple t = i % 11 == 0 ? RandomUnboundedTuple(&rng, wopts)
                                       : RandomBoundedTuple(&rng, wopts);
      ASSERT_TRUE(db->Insert(t).ok());
    }
    ASSERT_TRUE(db->Flush().ok());
    const uint64_t full_leaves = LeafCount(db.get());
    // Deleting two tuples in three empties leaves enough to merge them.
    for (TupleId id = 0; id < 300; ++id) {
      if (id % 3 != 0) {
        ASSERT_TRUE(db->Delete(id).ok());
      }
    }
    EXPECT_LT(LeafCount(db.get()), full_leaves);
    ASSERT_TRUE(db->Flush().ok());
    CheckReport report;
    ASSERT_TRUE(CheckDatabase(db.get(), &report).ok());
    EXPECT_TRUE(report.ok()) << report.Summary();
  }
  EXPECT_TRUE(std::filesystem::exists(path + ".idx-journal"));

  std::unique_ptr<ConstraintDatabase> db;
  ASSERT_TRUE(ConstraintDatabase::Open(path, DatabaseOptions(), &db).ok());
  ASSERT_EQ(db->size(), 100u);
  obs::HealthReport health;
  ASSERT_TRUE(db->index()->CollectHealth(&health).ok());
  for (const obs::TreeHealth& tree : health.trees) {
    EXPECT_EQ(tree.augmented, augmented) << tree.name;
  }
  CheckReport report;
  ASSERT_TRUE(CheckDatabase(db.get(), &report).ok());
  EXPECT_TRUE(report.ok()) << report.Summary();
  Status invariants = db->index()->CheckInvariants();
  EXPECT_TRUE(invariants.ok()) << invariants.ToString();
  for (double slope : {-1.1, -0.4, 0.0, 0.45}) {
    for (double b : {-30.0, 0.0, 25.0}) {
      for (Cmp cmp : {Cmp::kGE, Cmp::kLE}) {
        for (SelectionType type :
             {SelectionType::kAll, SelectionType::kExist}) {
          const HalfPlaneQuery q(slope, b, cmp);
          Result<std::vector<TupleId>> want =
              NaiveSelect(*db->relation(), type, q);
          ASSERT_TRUE(want.ok());
          for (QueryMethod method : {QueryMethod::kT2, QueryMethod::kAuto}) {
            Result<std::vector<TupleId>> got = db->Select(type, q, method);
            ASSERT_TRUE(got.ok()) << got.status().ToString();
            EXPECT_EQ(got.value(), want.value())
                << "slope " << slope << " intercept " << b;
          }
        }
      }
    }
  }
  db.reset();
  RemoveDb(path);
}

INSTANTIATE_TEST_SUITE_P(TreeKinds, FileBackedCheckTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Augmented" : "Ordinary";
                         });

TEST(CheckTest, PagerIntegrityFindsCorruptPage) {
  auto data = std::make_shared<MemFile>(256);
  PagerOptions popts;
  popts.page_size = 256;
  std::vector<PageId> ids;
  {
    std::unique_ptr<Pager> pager;
    ASSERT_TRUE(Pager::Open(std::make_unique<SharedFile>(data), popts, &pager)
                    .ok());
    for (int i = 0; i < 3; ++i) {
      Result<PageId> id = pager->Allocate();
      ASSERT_TRUE(id.ok());
      ids.push_back(id.value());
      Result<PageRef> ref = pager->Fetch(id.value());
      ASSERT_TRUE(ref.ok());
      ref.value().data()[0] = static_cast<char>('a' + i);
      ref.value().MarkDirty();
    }
    ASSERT_TRUE(pager->Flush().ok());
  }
  std::vector<char> block(256);
  ASSERT_TRUE(data->ReadBlock(ids[1], block.data()).ok());
  block[kPageHeaderSize + 9] ^= 0x10;
  ASSERT_TRUE(data->WriteBlock(ids[1], block.data()).ok());

  std::unique_ptr<Pager> pager;
  ASSERT_TRUE(
      Pager::Open(std::make_unique<SharedFile>(data), popts, &pager).ok());
  CheckReport report;
  Status st = CheckPagerIntegrity(pager.get(), &report);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_FALSE(report.ok());
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_NE(report.violations[0].find(std::to_string(ids[1])),
            std::string::npos);
  EXPECT_EQ(report.pages_checked, 2u);  // The two intact pages.
  EXPECT_EQ(report.Summary().substr(0, 6), "FAILED");
}

TEST(CheckTest, BitFlipInDatabaseFileIsDetected) {
  std::string path = TempPath("cdb_check_test_flip");
  RemoveDb(path);
  DatabaseOptions opts;
  {
    std::unique_ptr<ConstraintDatabase> db;
    ASSERT_TRUE(ConstraintDatabase::Open(path, opts, &db).ok());
    Rng rng(3);
    WorkloadOptions wopts;
    for (int i = 0; i < 80; ++i) {
      ASSERT_TRUE(db->Insert(RandomBoundedTuple(&rng, wopts)).ok());
    }
    ASSERT_TRUE(db->Flush().ok());
  }
  // Flip one byte in the middle of the last index block — a tree page.
  std::string idx = path + ".idx";
  auto size = std::filesystem::file_size(idx);
  ASSERT_GT(size, opts.page_size * 2);
  std::fstream f(idx, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good());
  std::streamoff target =
      static_cast<std::streamoff>(size - opts.page_size / 2);
  f.seekg(target);
  char byte = 0;
  f.get(byte);
  f.seekp(target);
  f.put(static_cast<char>(byte ^ 0x04));
  f.close();

  // The damage surfaces either at open (if the page is read then) or in the
  // checker's cold sweep — never silently.
  std::unique_ptr<ConstraintDatabase> db;
  Status st = ConstraintDatabase::Open(path, opts, &db);
  if (st.ok()) {
    CheckReport report;
    ASSERT_TRUE(CheckDatabase(db.get(), &report).ok());
    EXPECT_FALSE(report.ok());
    EXPECT_GE(report.violations.size(), 1u);
  } else {
    EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  }
  RemoveDb(path);
}

// Regression: when Open() fails partway through attach (corrupt catalog
// page), the partially-constructed database must tear down without
// flushing — the destructor used to call StoreCatalog() through the
// never-attached null index and crash instead of surfacing Corruption.
TEST(CheckTest, CorruptCatalogFailsOpenWithoutCrashing) {
  std::string path = TempPath("cdb_check_test_catalog");
  RemoveDb(path);
  DatabaseOptions opts;
  {
    std::unique_ptr<ConstraintDatabase> db;
    ASSERT_TRUE(ConstraintDatabase::Open(path, opts, &db).ok());
    Rng rng(5);
    WorkloadOptions wopts;
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(db->Insert(RandomBoundedTuple(&rng, wopts)).ok());
    }
  }
  // Page ids map to file blocks 1:1 (block 0 is pager meta); the catalog
  // is the first allocated page, so flip a payload byte in block 1.
  std::string idx = path + ".idx";
  std::fstream f(idx, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good());
  std::streamoff target =
      static_cast<std::streamoff>(opts.page_size + opts.page_size / 2);
  f.seekg(target);
  char byte = 0;
  f.get(byte);
  f.seekp(target);
  f.put(static_cast<char>(byte ^ 0x10));
  f.close();

  std::unique_ptr<ConstraintDatabase> db;
  Status st = ConstraintDatabase::Open(path, opts, &db);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_EQ(db, nullptr);
  RemoveDb(path);
}

// Opens one file of a database through a bare pager, as ConstraintDatabase
// does, so a test can edit pages the database itself would not write.
std::unique_ptr<Pager> OpenDbFile(const std::string& file, size_t page_size) {
  std::unique_ptr<PosixFile> data;
  std::unique_ptr<PosixFile> journal;
  EXPECT_TRUE(PosixFile::Open(file, page_size, /*truncate=*/false, &data).ok());
  EXPECT_TRUE(PosixFile::Open(file + "-journal",
                              Pager::JournalBlockSize(page_size),
                              /*truncate=*/false, &journal)
                  .ok());
  PagerOptions popts;
  popts.page_size = page_size;
  std::unique_ptr<Pager> pager;
  EXPECT_TRUE(
      Pager::Open(std::move(data), std::move(journal), popts, &pager).ok());
  return pager;
}

// Older files carry a bounding-box sidecar: catalog flag bit 4 plus a root
// word after the down-tree metas, naming a page chain in the relation file.
// Such a file must open, answer exactly, and check out; its chain page
// stays allocated and unreferenced, and the next catalog write drops both.
TEST(CheckTest, LegacyBoxSidecarCatalogOpensAndChecksOut) {
  std::string path = TempPath("cdb_check_test_legacy_bbox");
  RemoveDb(path);
  DatabaseOptions opts;
  Rng rng(17);
  WorkloadOptions wopts;
  {
    std::unique_ptr<ConstraintDatabase> db;
    ASSERT_TRUE(ConstraintDatabase::Open(path, opts, &db).ok());
    for (int i = 0; i < 120; ++i) {
      GeneralizedTuple t = i % 7 == 0 ? RandomUnboundedTuple(&rng, wopts)
                                      : RandomBoundedTuple(&rng, wopts);
      ASSERT_TRUE(db->Insert(t).ok());
    }
  }
  PageId sidecar = kInvalidPageId;
  {
    // A sidecar page as older files laid it out: next u32 | count u16.
    std::unique_ptr<Pager> rel = OpenDbFile(path + ".rel", opts.page_size);
    Result<PageId> id = rel->Allocate();
    ASSERT_TRUE(id.ok());
    sidecar = id.value();
    Result<PageRef> ref = rel->Fetch(sidecar);
    ASSERT_TRUE(ref.ok());
    const PageId next = kInvalidPageId;
    const uint16_t count = 120;
    std::memcpy(ref.value().data(), &next, 4);
    std::memcpy(ref.value().data() + 4, &count, 2);
    ref.value().MarkDirty();
    ref.value().Release();
    ASSERT_TRUE(rel->Flush().ok());
  }
  {
    // The catalog is the index file's first page: k u32 at offset 8, flags
    // at 12, then 16 bytes per slope from offset 28.
    std::unique_ptr<Pager> idx = OpenDbFile(path + ".idx", opts.page_size);
    Result<PageRef> ref = idx->Fetch(1);
    ASSERT_TRUE(ref.ok());
    char* p = ref.value().data();
    uint32_t k = 0;
    std::memcpy(&k, p + 8, 4);
    ASSERT_EQ(k, opts.slopes.size());
    p[12] = static_cast<char>(p[12] | 4);
    std::memcpy(p + 28 + 16 * k, &sidecar, 4);
    ref.value().MarkDirty();
    ref.value().Release();
    ASSERT_TRUE(idx->Flush().ok());
  }

  std::unique_ptr<ConstraintDatabase> db;
  Status st = ConstraintDatabase::Open(path, opts, &db);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_EQ(db->size(), 120u);
  for (double slope : {-1.1, 0.0, 0.45}) {
    for (double b : {-30.0, 0.0, 25.0}) {
      for (Cmp cmp : {Cmp::kGE, Cmp::kLE}) {
        for (SelectionType type :
             {SelectionType::kAll, SelectionType::kExist}) {
          const HalfPlaneQuery q(slope, b, cmp);
          Result<std::vector<TupleId>> want =
              NaiveSelect(*db->relation(), type, q);
          ASSERT_TRUE(want.ok());
          for (QueryMethod method : {QueryMethod::kT1, QueryMethod::kT2}) {
            Result<std::vector<TupleId>> got = db->Select(type, q, method);
            ASSERT_TRUE(got.ok()) << got.status().ToString();
            EXPECT_EQ(got.value(), want.value())
                << "slope " << slope << " intercept " << b;
          }
        }
      }
    }
  }
  CheckReport report;
  ASSERT_TRUE(CheckDatabase(db.get(), &report).ok());
  EXPECT_TRUE(report.ok()) << report.Summary();

  // The next catalog write clears the flag and the root word.
  ASSERT_TRUE(db->Insert(RandomBoundedTuple(&rng, wopts)).ok());
  ASSERT_TRUE(db->Flush().ok());
  {
    Result<PageRef> ref = db->index_pager()->Fetch(1);
    ASSERT_TRUE(ref.ok());
    const char* p = ref.value().data();
    EXPECT_EQ(p[12] & 4, 0);
    PageId root = 0;
    std::memcpy(&root, p + 28 + 16 * opts.slopes.size(), 4);
    EXPECT_EQ(root, 0u);
  }
  db.reset();
  RemoveDb(path);
}

// Builds a small file-backed database, lets `edit` rewrite its catalog
// page (the index file's first page) through a bare pager, so the page
// keeps a valid checksum, and returns the status of reopening it.
Status ReopenWithEditedCatalog(const std::string& name,
                               const std::function<void(char*, size_t)>& edit) {
  std::string path = TempPath(name);
  RemoveDb(path);
  DatabaseOptions opts;
  {
    std::unique_ptr<ConstraintDatabase> db;
    EXPECT_TRUE(ConstraintDatabase::Open(path, opts, &db).ok());
    Rng rng(29);
    WorkloadOptions wopts;
    for (int i = 0; i < 40; ++i) {
      EXPECT_TRUE(db->Insert(RandomBoundedTuple(&rng, wopts)).ok());
    }
  }
  {
    std::unique_ptr<Pager> idx = OpenDbFile(path + ".idx", opts.page_size);
    Result<PageRef> ref = idx->Fetch(1);
    EXPECT_TRUE(ref.ok());
    edit(ref.value().data(), idx->page_size());
    ref.value().MarkDirty();
    ref.value().Release();
    EXPECT_TRUE(idx->Flush().ok());
  }
  std::unique_ptr<ConstraintDatabase> db;
  Status st = ConstraintDatabase::Open(path, opts, &db);
  EXPECT_EQ(db == nullptr, !st.ok());
  db.reset();
  RemoveDb(path);
  return st;
}

// A catalog that Manifest() could not have written must not open: a slope
// count past the page (the read would overrun it) or of zero, and slopes
// that are not finite and strictly increasing (SlopeSet would sort them,
// pairing the stored tree metas with the wrong slopes). The count k sits at
// offset 8; the default slopes {-1, 0, 1} start at 28.
TEST(CheckTest, CatalogThatManifestCannotWriteIsCorruption) {
  const auto set_count = [](uint32_t k) {
    return [k](char* page, size_t) { std::memcpy(page + 8, &k, 4); };
  };
  const auto set_second_slope = [](double v) {
    return [v](char* page, size_t) { std::memcpy(page + 36, &v, 8); };
  };
  const std::vector<
      std::pair<const char*, std::function<void(char*, size_t)>>>
      edits = {
          {"200 slopes (3228 bytes)", set_count(200)},
          {"one slope more than fits",
           [](char* page, size_t page_size) {
             const uint32_t k =
                 static_cast<uint32_t>((page_size - 28) / 16 + 1);
             std::memcpy(page + 8, &k, 4);
           }},
          {"no slopes", set_count(0)},
          {"first two slopes swapped",
           [](char* page, size_t) {
             char first[8];
             std::memcpy(first, page + 28, 8);
             std::memmove(page + 28, page + 36, 8);
             std::memcpy(page + 36, first, 8);
           }},
          {"repeated slope", set_second_slope(-1.0)},
          {"NaN slope", set_second_slope(std::nan(""))},
          {"infinite slope", set_second_slope(HUGE_VAL)},
      };
  for (const auto& [what, edit] : edits) {
    Status st = ReopenWithEditedCatalog("cdb_check_test_catalog_edit", edit);
    EXPECT_TRUE(st.IsCorruption()) << what << ": " << st.ToString();
  }
}

TEST(CheckTest, TreeCheckersCountSoundTrees) {
  PagerOptions popts;
  popts.page_size = 512;
  std::unique_ptr<Pager> pager;
  ASSERT_TRUE(
      Pager::Open(std::make_unique<MemFile>(512), popts, &pager).ok());

  std::vector<std::pair<double, uint32_t>> entries;
  for (uint32_t i = 0; i < 300; ++i) {
    entries.push_back({static_cast<double>(i), i});
  }
  std::unique_ptr<BPlusTree> btree;
  ASSERT_TRUE(BPlusTree::BulkLoad(pager.get(), entries, 0.8, &btree).ok());

  std::vector<std::pair<Rect, TupleId>> rects;
  Rng rng(5);
  for (TupleId i = 0; i < 100; ++i) {
    double x = rng.Uniform(0, 90), y = rng.Uniform(0, 90);
    rects.push_back({Rect(x, y, x + 5, y + 5), i});
  }
  std::unique_ptr<RPlusTree> rtree;
  ASSERT_TRUE(RPlusTree::BulkBuild(pager.get(), rects, &rtree).ok());

  CheckReport report;
  ASSERT_TRUE(CheckBPlusTree(*btree, &report).ok());
  ASSERT_TRUE(CheckRPlusTree(*rtree, &report).ok());
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.trees_checked, 2u);
}

}  // namespace
}  // namespace cdb
