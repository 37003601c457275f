// Crash-recovery sweep: runs a B+-tree bulk-build + update workload, over
// an ordinary and over an augmented tree, against a journaled pager,
// simulates a power loss at *every* write index of the combined
// data+journal write stream (with varying torn-write lengths), reopens the
// surviving bytes, and asserts that
//
//   * recovery always succeeds and yields a structurally sound tree (for
//     augmented trees, with every stored aggregate exact),
//   * the recovered state is exactly some batch boundary — no batch is
//     ever partially applied,
//   * every batch whose Flush() returned OK before the crash is present,
//   * the pager-level integrity checker finds zero violations.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "btree/bplus_tree.h"
#include "db/check.h"
#include "storage/fault_file.h"
#include "storage/file.h"
#include "storage/pager.h"

namespace cdb {
namespace {

constexpr size_t kBlockSize = 256;
constexpr size_t kCacheFrames = 4;  // Small: forces mid-txn evictions.
constexpr int kBatches = 4;         // 1 bulk build + 3 update batches.

using Entry = std::pair<double, uint32_t>;

std::vector<Entry> BulkEntries() {
  std::vector<Entry> entries;
  for (uint32_t i = 0; i < 40; ++i) {
    entries.push_back({static_cast<double>(i), i});
  }
  return entries;
}

std::vector<Entry> BatchInserts(int j) {  // j in 1..3
  std::vector<Entry> entries;
  for (uint32_t i = 0; i < 10; ++i) {
    uint32_t v = static_cast<uint32_t>(100 * j) + i;
    entries.push_back({static_cast<double>(v), v});
  }
  return entries;
}

std::vector<Entry> BatchDeletes(int j) {  // From the bulk batch, disjoint.
  std::vector<Entry> entries;
  for (uint32_t i = 0; i < 5; ++i) {
    uint32_t v = static_cast<uint32_t>(5 * (j - 1)) + i;
    entries.push_back({static_cast<double>(v), v});
  }
  return entries;
}

// Deterministic assignment values per stored value (augmented trees).
void AssignOf(uint32_t v, double* m) {
  m[0] = static_cast<double>((v * 7) % 991) - 400.0;
  m[1] = static_cast<double>((v * 13) % 997) - 500.0;
  m[2] = static_cast<double>((v * 5) % 983) - 450.0;
  m[3] = static_cast<double>((v * 11) % 1009) - 520.0;
}

Status AssignmentOf(uint32_t v, double* m) {
  AssignOf(v, m);
  return Status::OK();
}

// Builds the first batch's tree of either kind.
Status BulkBuild(Pager* pager, bool augmented,
                 std::unique_ptr<BPlusTree>* tree) {
  if (!augmented) {
    return BPlusTree::BulkLoad(pager, BulkEntries(), /*fill=*/0.8, tree);
  }
  std::vector<BPlusTree::AugEntry> entries;
  for (const Entry& e : BulkEntries()) {
    BPlusTree::AugEntry a{e.first, e.second, {}};
    AssignOf(e.second, a.m);
    entries.push_back(a);
  }
  CDB_RETURN_IF_ERROR(BPlusTree::BulkLoad(pager, std::move(entries),
                                          /*fill=*/0.8, true, tree));
  (*tree)->SetAssignmentFn(AssignmentOf);
  return Status::OK();
}

Status InsertEntry(BPlusTree* tree, const Entry& e) {
  if (!tree->augmented()) return tree->Insert(e.first, e.second);
  double m[4];
  AssignOf(e.second, m);
  return tree->InsertWithAssignment(e.first, e.second, m);
}

// Tree contents after the first `m` batches committed.
std::set<Entry> ExpectedAfter(int m) {
  std::set<Entry> expect;
  if (m >= 1) {
    for (const Entry& e : BulkEntries()) expect.insert(e);
  }
  for (int j = 1; j < m; ++j) {
    for (const Entry& e : BatchInserts(j)) expect.insert(e);
    for (const Entry& e : BatchDeletes(j)) expect.erase(e);
  }
  return expect;
}

struct RunResult {
  int committed = 0;               // Batches whose Flush() returned OK.
  PageId meta = kInvalidPageId;    // Tree meta page (valid in dry runs).
  uint64_t writes = 0;             // Post-creation writes (dry runs).
};

// Runs the workload over shared storage. With `crash_at >= 0`, arms a
// shared crash plan so the crash_at-th post-creation write (across data
// file and journal together) is torn to `torn_bytes` and everything after
// it is lost.
RunResult RunWorkload(bool augmented, std::shared_ptr<BlockFile> data,
                      std::shared_ptr<BlockFile> jnl, int64_t crash_at,
                      size_t torn_bytes) {
  RunResult result;
  auto plan = std::make_shared<FaultInjectionFile::CrashPlan>();
  auto data_fault = std::make_unique<FaultInjectionFile>(
      std::make_unique<SharedFile>(data), plan);
  auto jnl_fault = std::make_unique<FaultInjectionFile>(
      std::make_unique<SharedFile>(jnl), plan);
  FaultInjectionFile* data_raw = data_fault.get();
  FaultInjectionFile* jnl_raw = jnl_fault.get();

  PagerOptions opts;
  opts.page_size = kBlockSize;
  opts.cache_frames = kCacheFrames;
  std::unique_ptr<Pager> pager;
  // Creation happens before the plan is armed: the sweep covers the
  // workload's writes against an existing (empty, durable) database.
  Status st = Pager::Open(std::move(data_fault), std::move(jnl_fault), opts,
                          &pager);
  EXPECT_TRUE(st.ok()) << st.ToString();
  if (!st.ok()) return result;
  uint64_t base_writes = data_raw->writes_seen() + jnl_raw->writes_seen();
  if (crash_at >= 0) {
    plan->writes_remaining = crash_at;
    plan->torn_bytes = torn_bytes;
  }

  std::unique_ptr<BPlusTree> tree;
  st = BulkBuild(pager.get(), augmented, &tree);
  if (st.ok()) {
    result.meta = tree->meta_page();
    st = pager->Flush();
    if (st.ok()) result.committed = 1;
  }
  for (int j = 1; st.ok() && j < kBatches; ++j) {
    for (const Entry& e : BatchInserts(j)) {
      st = InsertEntry(tree.get(), e);
      if (!st.ok()) break;
    }
    if (!st.ok()) break;
    for (const Entry& e : BatchDeletes(j)) {
      st = tree->Delete(e.first, e.second);
      if (!st.ok()) break;
    }
    if (!st.ok()) break;
    st = pager->Flush();
    if (st.ok()) result.committed = j + 1;
  }
  result.writes =
      data_raw->writes_seen() + jnl_raw->writes_seen() - base_writes;
  // "Power loss": whatever the pager's destructor tries next is dropped by
  // the crashed plan. In the crash-free dry run this is a clean shutdown.
  pager.reset();
  return result;
}

// Reopens the surviving storage, lets recovery run, and returns the batch
// count whose expected contents exactly match the tree (-1 = no match).
int VerifyRecovered(std::shared_ptr<BlockFile> data,
                    std::shared_ptr<BlockFile> jnl, PageId meta) {
  PagerOptions opts;
  opts.page_size = kBlockSize;
  opts.cache_frames = kCacheFrames;
  std::unique_ptr<Pager> pager;
  Status st = Pager::Open(std::make_unique<SharedFile>(data),
                          std::make_unique<SharedFile>(jnl), opts, &pager);
  EXPECT_TRUE(st.ok()) << "recovery failed: " << st.ToString();
  if (!st.ok()) return -1;

  // Pager-level integrity: every surviving page passes its checksum.
  CheckReport report;
  st = CheckPagerIntegrity(pager.get(), &report);
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(report.ok()) << report.Summary() << ": "
                           << (report.violations.empty()
                                   ? ""
                                   : report.violations[0]);
  if (!report.ok()) return -1;

  if (pager->file_page_count() <= 1) return 0;  // Rolled back to empty.

  std::unique_ptr<BPlusTree> tree;
  st = BPlusTree::Open(pager.get(), meta, &tree);
  EXPECT_TRUE(st.ok()) << st.ToString();
  if (!st.ok()) return -1;
  if (tree->augmented()) tree->SetAssignmentFn(AssignmentOf);
  st = tree->CheckInvariants();
  EXPECT_TRUE(st.ok()) << st.ToString();
  if (!st.ok()) return -1;

  for (int m = 1; m <= kBatches; ++m) {
    std::set<Entry> expect = ExpectedAfter(m);
    if (tree->size() != expect.size()) continue;
    bool all = true;
    for (const Entry& e : expect) {
      Result<bool> has = tree->Contains(e.first, e.second);
      EXPECT_TRUE(has.ok()) << has.status().ToString();
      if (!has.ok() || !has.value()) {
        all = false;
        break;
      }
    }
    if (all) return m;
  }
  return -1;
}

void DryRunCommitsEverything(bool augmented) {
  auto data = std::make_shared<MemFile>(kBlockSize);
  auto jnl = std::make_shared<MemFile>(Pager::JournalBlockSize(kBlockSize));
  RunResult run = RunWorkload(augmented, data, jnl, /*crash_at=*/-1, 0);
  EXPECT_EQ(run.committed, kBatches);
  EXPECT_GT(run.writes, 0u);
  EXPECT_EQ(VerifyRecovered(data, jnl, run.meta), kBatches);
}

void SweepEveryWriteIndex(bool augmented) {
  // Dry run: count the workload's writes and learn the tree's meta page.
  RunResult dry;
  {
    auto data = std::make_shared<MemFile>(kBlockSize);
    auto jnl = std::make_shared<MemFile>(Pager::JournalBlockSize(kBlockSize));
    dry = RunWorkload(augmented, data, jnl, -1, 0);
  }
  ASSERT_EQ(dry.committed, kBatches);
  ASSERT_GT(dry.writes, 20u);
  ASSERT_NE(dry.meta, kInvalidPageId);

  // Deterministic torn-length pattern: dropped entirely, a few bytes, a
  // partial block, and all-but-one byte.
  const size_t torn[] = {0, 7, kBlockSize / 2, kBlockSize - 1};

  for (uint64_t k = 0; k < dry.writes; ++k) {
    SCOPED_TRACE("crash at write " + std::to_string(k));
    auto data = std::make_shared<MemFile>(kBlockSize);
    auto jnl = std::make_shared<MemFile>(Pager::JournalBlockSize(kBlockSize));
    RunResult run = RunWorkload(augmented, data, jnl,
                                static_cast<int64_t>(k), torn[k % 4]);
    EXPECT_LT(run.committed, kBatches) << "crash did not bite";
    int recovered = VerifyRecovered(data, jnl, dry.meta);
    ASSERT_GE(recovered, 0) << "recovered state matches no batch boundary";
    // Committed batches are durable; an in-flight batch may have reached
    // its commit point without reporting success, so `recovered` can
    // exceed `committed` by at most the one in-flight batch.
    EXPECT_GE(recovered, run.committed);
    EXPECT_LE(recovered, run.committed + 1);
  }
}

TEST(CrashRecoveryTest, DryRunCommitsEverything) {
  DryRunCommitsEverything(/*augmented=*/false);
}

TEST(CrashRecoveryTest, SweepEveryWriteIndex) {
  SweepEveryWriteIndex(/*augmented=*/false);
}

TEST(CrashRecoveryTest, AugmentedDryRunCommitsEverything) {
  DryRunCommitsEverything(/*augmented=*/true);
}

TEST(CrashRecoveryTest, AugmentedSweepEveryWriteIndex) {
  SweepEveryWriteIndex(/*augmented=*/true);
}

}  // namespace
}  // namespace cdb
