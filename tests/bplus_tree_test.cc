#include "btree/bplus_tree.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "pager_test_util.h"
#include "storage/file.h"

namespace cdb {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Deterministic assignment values per stored value, for augmented trees:
// pure arithmetic, so inserts and the delete-time callback agree.
void AssignOf(uint32_t v, double* m) {
  m[0] = static_cast<double>((v * 7) % 991) - 400.0;
  m[1] = static_cast<double>((v * 13) % 997) - 500.0;
  m[2] = static_cast<double>((v * 5) % 983) - 450.0;
  m[3] = static_cast<double>((v * 11) % 1009) - 520.0;
}

BPlusTree::AssignmentFn MakeAssignmentFn() {
  return [](uint32_t value, double* m) -> Status {
    AssignOf(value, m);
    return Status::OK();
  };
}

struct TreeFixture {
  std::unique_ptr<Pager> pager;
  std::unique_ptr<BPlusTree> tree;

  explicit TreeFixture(size_t page_size = 256, bool augmented = false) {
    PagerOptions opts;
    opts.page_size = page_size;  // Small pages force deep trees quickly.
    opts.cache_frames = 32;
    EXPECT_TRUE(
        Pager::Open(std::make_unique<MemFile>(page_size), opts, &pager).ok());
    if (augmented) {
      EXPECT_TRUE(BPlusTree::CreateAugmented(pager.get(), &tree).ok());
      tree->SetAssignmentFn(MakeAssignmentFn());
    } else {
      EXPECT_TRUE(BPlusTree::Create(pager.get(), &tree).ok());
    }
  }

  // Inserts through the entry point of the tree's kind.
  Status Put(double key, uint32_t value) {
    if (!tree->augmented()) return tree->Insert(key, value);
    double m[4];
    AssignOf(value, m);
    return tree->InsertWithAssignment(key, value, m);
  }

  // Pins are never released spontaneously, so a leak anywhere in the test
  // is still visible here.
  ~TreeFixture() { ExpectNoPinnedFrames(*pager); }
};

using Entry = std::pair<double, uint32_t>;

// Collects all entries by sweeping the leaf chain forward.
std::vector<Entry> Dump(const BPlusTree& tree) {
  std::vector<Entry> out;
  LeafCursor cur;
  EXPECT_TRUE(tree.SeekFirstLeaf(&cur).ok());
  while (cur.valid()) {
    for (int i = 0; i < cur.entry_count(); ++i) {
      out.emplace_back(cur.key(i), cur.value(i));
    }
    EXPECT_TRUE(cur.NextLeaf().ok());
  }
  return out;
}

TEST(BPlusTreeTest, EmptyTree) {
  TreeFixture fx;
  EXPECT_EQ(fx.tree->size(), 0u);
  EXPECT_EQ(fx.tree->height(), 1u);
  EXPECT_TRUE(fx.tree->CheckInvariants().ok());
  Result<bool> c = fx.tree->Contains(1.0, 2);
  ASSERT_TRUE(c.ok());
  EXPECT_FALSE(c.value());
  EXPECT_TRUE(Dump(*fx.tree).empty());
}

TEST(BPlusTreeTest, InsertAndContains) {
  TreeFixture fx;
  ASSERT_TRUE(fx.tree->Insert(3.5, 7).ok());
  ASSERT_TRUE(fx.tree->Insert(-1.0, 2).ok());
  Result<bool> c = fx.tree->Contains(3.5, 7);
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(c.value());
  c = fx.tree->Contains(3.5, 8);
  ASSERT_TRUE(c.ok());
  EXPECT_FALSE(c.value());
  EXPECT_EQ(fx.tree->size(), 2u);
}

TEST(BPlusTreeTest, RejectsNaNAndExactDuplicates) {
  TreeFixture fx;
  EXPECT_TRUE(fx.tree->Insert(std::nan(""), 1).IsInvalidArgument());
  ASSERT_TRUE(fx.tree->Insert(1.0, 1).ok());
  EXPECT_TRUE(fx.tree->Insert(1.0, 1).IsInvalidArgument());
  // Same key, different value is fine (duplicate surface values).
  EXPECT_TRUE(fx.tree->Insert(1.0, 2).ok());
}

TEST(BPlusTreeTest, InfiniteKeysSortAtTheEnds) {
  TreeFixture fx;
  ASSERT_TRUE(fx.tree->Insert(kInf, 1).ok());
  ASSERT_TRUE(fx.tree->Insert(-kInf, 2).ok());
  ASSERT_TRUE(fx.tree->Insert(0.0, 3).ok());
  std::vector<Entry> dump = Dump(*fx.tree);
  ASSERT_EQ(dump.size(), 3u);
  EXPECT_EQ(dump[0].second, 2u);
  EXPECT_EQ(dump[1].second, 3u);
  EXPECT_EQ(dump[2].second, 1u);
}

TEST(BPlusTreeTest, SplitsGrowHeight) {
  TreeFixture fx;
  for (uint32_t i = 0; i < 2000; ++i) {
    ASSERT_TRUE(fx.tree->Insert(static_cast<double>(i), i).ok());
  }
  EXPECT_EQ(fx.tree->size(), 2000u);
  EXPECT_GE(fx.tree->height(), 3u);
  ASSERT_TRUE(fx.tree->CheckInvariants().ok());
  std::vector<Entry> dump = Dump(*fx.tree);
  ASSERT_EQ(dump.size(), 2000u);
  for (uint32_t i = 0; i < 2000; ++i) {
    EXPECT_EQ(dump[i].second, i);
  }
}

TEST(BPlusTreeTest, SeekLeafPositionsAtLowerBound) {
  TreeFixture fx;
  for (uint32_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(fx.tree->Insert(i * 2.0, i).ok());  // Even keys 0..198.
  }
  LeafCursor cur;
  ASSERT_TRUE(fx.tree->SeekLeaf(51.0, &cur).ok());
  ASSERT_TRUE(cur.valid());
  ASSERT_LT(cur.seek_pos(), cur.entry_count());
  EXPECT_EQ(cur.key(cur.seek_pos()), 52.0);

  // Seeking an existing key lands on it.
  ASSERT_TRUE(fx.tree->SeekLeaf(52.0, &cur).ok());
  EXPECT_EQ(cur.key(cur.seek_pos()), 52.0);

  // Seeking past the maximum gives the last leaf with seek_pos at end.
  ASSERT_TRUE(fx.tree->SeekLeaf(1e9, &cur).ok());
  ASSERT_TRUE(cur.valid());
  EXPECT_EQ(cur.seek_pos(), cur.entry_count());
}

TEST(BPlusTreeTest, SeekLeafPastSkipsEveryEqualKey) {
  TreeFixture fx;
  // 300 copies of key 5 fill many 256-byte leaves; 4 and 6 frame them.
  for (uint32_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(fx.tree->Insert(5.0, i).ok());
  }
  ASSERT_TRUE(fx.tree->Insert(4.0, 1000).ok());
  ASSERT_TRUE(fx.tree->Insert(6.0, 1001).ok());
  ASSERT_TRUE(fx.tree->Insert(5.0, std::numeric_limits<uint32_t>::max()).ok());

  // Everything before the past-seek position has key <= 5, all 302 of
  // those entries, and the entry at it is the first key above 5.
  LeafCursor cur;
  ASSERT_TRUE(fx.tree->SeekLeafPast(5.0, &cur).ok());
  ASSERT_TRUE(cur.valid());
  ASSERT_LT(cur.seek_pos(), cur.entry_count());
  EXPECT_EQ(cur.key(cur.seek_pos()), 6.0);
  for (int j = 0; j < cur.seek_pos(); ++j) EXPECT_LE(cur.key(j), 5.0);
  size_t at_or_below = static_cast<size_t>(cur.seek_pos());
  while (true) {
    ASSERT_TRUE(cur.PrevLeaf().ok());
    if (!cur.valid()) break;
    for (int j = 0; j < cur.entry_count(); ++j) EXPECT_LE(cur.key(j), 5.0);
    at_or_below += static_cast<size_t>(cur.entry_count());
  }
  EXPECT_EQ(at_or_below, 302u);

  // Past the maximum: the last leaf, seek_pos at its end.
  ASSERT_TRUE(fx.tree->SeekLeafPast(6.0, &cur).ok());
  ASSERT_TRUE(cur.valid());
  EXPECT_EQ(cur.seek_pos(), cur.entry_count());
  EXPECT_TRUE(fx.tree->SeekLeafPast(std::nan(""), &cur).IsInvalidArgument());
}

TEST(BPlusTreeTest, BackwardSweepMatchesForward) {
  TreeFixture fx;
  Rng rng(5);
  for (uint32_t i = 0; i < 500; ++i) {
    ASSERT_TRUE(fx.tree->Insert(rng.Uniform(-100, 100), i).ok());
  }
  std::vector<Entry> fwd = Dump(*fx.tree);
  std::vector<Entry> bwd;
  LeafCursor cur;
  ASSERT_TRUE(fx.tree->SeekLeafPast(kInf, &cur).ok());  // The last leaf.
  while (cur.valid()) {
    for (int i = cur.entry_count() - 1; i >= 0; --i) {
      bwd.emplace_back(cur.key(i), cur.value(i));
    }
    ASSERT_TRUE(cur.PrevLeaf().ok());
  }
  std::reverse(bwd.begin(), bwd.end());
  EXPECT_EQ(fwd, bwd);
}

TEST(BPlusTreeTest, DeleteMissingIsNotFound) {
  TreeFixture fx;
  ASSERT_TRUE(fx.tree->Insert(1.0, 1).ok());
  EXPECT_TRUE(fx.tree->Delete(1.0, 2).IsNotFound());
  EXPECT_TRUE(fx.tree->Delete(2.0, 1).IsNotFound());
  EXPECT_EQ(fx.tree->size(), 1u);
}

TEST(BPlusTreeTest, DeleteShrinksTreeToEmpty) {
  TreeFixture fx;
  for (uint32_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(fx.tree->Insert(static_cast<double>(i), i).ok());
  }
  uint64_t pages_before = fx.pager->live_page_count();
  for (uint32_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(fx.tree->Delete(static_cast<double>(i), i).ok()) << i;
  }
  EXPECT_EQ(fx.tree->size(), 0u);
  EXPECT_EQ(fx.tree->height(), 1u);
  EXPECT_TRUE(fx.tree->CheckInvariants().ok());
  EXPECT_LT(fx.pager->live_page_count(), pages_before / 4);
}

TEST(BPlusTreeTest, HandicapMergeAndReset) {
  TreeFixture fx;
  for (uint32_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(fx.tree->Insert(static_cast<double>(i), i).ok());
  }
  // Slots 0-1 are min-combined, 2-3 max-combined.
  ASSERT_TRUE(fx.tree->MergeHandicap(5.0, 0, 3.25).ok());
  ASSERT_TRUE(fx.tree->MergeHandicap(5.0, 0, 7.0).ok());   // Ignored (min).
  ASSERT_TRUE(fx.tree->MergeHandicap(5.0, 2, -1.0).ok());
  ASSERT_TRUE(fx.tree->MergeHandicap(5.0, 2, 4.0).ok());   // Kept (max).
  LeafCursor cur;
  ASSERT_TRUE(fx.tree->SeekLeaf(5.0, &cur).ok());
  EXPECT_EQ(cur.handicap(0), 3.25);
  EXPECT_EQ(cur.handicap(1), kInf);   // Untouched neutral.
  EXPECT_EQ(cur.handicap(2), 4.0);
  EXPECT_EQ(cur.handicap(3), -kInf);
  ASSERT_TRUE(fx.tree->ResetHandicaps().ok());
  ASSERT_TRUE(fx.tree->SeekLeaf(5.0, &cur).ok());
  EXPECT_EQ(cur.handicap(0), kInf);
  EXPECT_EQ(cur.handicap(2), -kInf);
}

TEST(BPlusTreeTest, HandicapsSurviveSplitsConservatively) {
  TreeFixture fx;
  ASSERT_TRUE(fx.tree->Insert(500.0, 0).ok());
  ASSERT_TRUE(fx.tree->MergeHandicap(500.0, 0, 42.0).ok());
  // Force many splits around the handicapped leaf.
  for (uint32_t i = 1; i < 800; ++i) {
    ASSERT_TRUE(fx.tree->Insert(static_cast<double>(i), i).ok());
  }
  // The leaf containing 500 must still carry a handicap <= 42 (conservative
  // maintenance can only lower min-slots, never raise them).
  LeafCursor cur;
  ASSERT_TRUE(fx.tree->SeekLeaf(500.0, &cur).ok());
  EXPECT_LE(cur.handicap(0), 42.0);
}

TEST(BPlusTreeTest, OpenFromMetaPage) {
  PagerOptions opts;
  opts.page_size = 256;
  std::unique_ptr<Pager> pager;
  ASSERT_TRUE(Pager::Open(std::make_unique<MemFile>(256), opts, &pager).ok());
  PageId meta;
  {
    std::unique_ptr<BPlusTree> tree;
    ASSERT_TRUE(BPlusTree::Create(pager.get(), &tree).ok());
    for (uint32_t i = 0; i < 300; ++i) {
      ASSERT_TRUE(tree->Insert(static_cast<double>(i), i).ok());
    }
    meta = tree->meta_page();
  }
  std::unique_ptr<BPlusTree> tree;
  ASSERT_TRUE(BPlusTree::Open(pager.get(), meta, &tree).ok());
  EXPECT_EQ(tree->size(), 300u);
  Result<bool> c = tree->Contains(123.0, 123);
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(c.value());
  EXPECT_TRUE(tree->CheckInvariants().ok());
}

// Model-based property test: random interleaved inserts and deletes against
// a std::set reference, with invariant checks and full-content comparison.
// Each run ends by deleting every entry, which must leave an empty tree of
// height 1 (root shrink at every level).
void RunReferenceModel(uint64_t seed, bool augmented) {
  TreeFixture fx(256, augmented);
  Rng rng(seed);
  std::set<Entry> model;
  uint32_t next_val = 0;
  for (int op = 0; op < 4000; ++op) {
    bool do_insert = model.empty() || rng.Chance(0.6);
    if (do_insert) {
      // Cluster keys to exercise duplicates; occasionally infinite.
      double key = rng.Chance(0.05)
                       ? (rng.Chance(0.5) ? kInf : -kInf)
                       : std::floor(rng.Uniform(-50, 50)) / 2.0;
      uint32_t val = next_val++;
      ASSERT_TRUE(fx.Put(key, val).ok());
      model.insert({key, val});
    } else {
      // Delete a random existing element.
      auto it = model.begin();
      std::advance(it, rng.UniformInt(0, static_cast<int64_t>(model.size()) - 1));
      ASSERT_TRUE(fx.tree->Delete(it->first, it->second).ok());
      model.erase(it);
    }
    if (op % 500 == 499) {
      ASSERT_TRUE(fx.tree->CheckInvariants().ok()) << "op " << op;
    }
  }
  ASSERT_TRUE(fx.tree->CheckInvariants().ok());
  EXPECT_EQ(fx.tree->size(), model.size());
  std::vector<Entry> expected(model.begin(), model.end());
  EXPECT_EQ(Dump(*fx.tree), expected);

  while (!model.empty()) {
    auto it = model.begin();
    std::advance(it, rng.UniformInt(0, static_cast<int64_t>(model.size()) - 1));
    ASSERT_TRUE(fx.tree->Delete(it->first, it->second).ok());
    model.erase(it);
    if (model.size() % 250 == 0) {
      ASSERT_TRUE(fx.tree->CheckInvariants().ok()) << model.size() << " left";
    }
  }
  EXPECT_EQ(fx.tree->size(), 0u);
  EXPECT_EQ(fx.tree->height(), 1u);
  EXPECT_TRUE(Dump(*fx.tree).empty());
}

// The ordinary tree kind (Insert) ...
class BPlusTreeModelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BPlusTreeModelTest, MatchesReferenceModel) {
  RunReferenceModel(GetParam(), /*augmented=*/false);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BPlusTreeModelTest,
                         ::testing::Values(1, 2, 3, 4, 5, 20260704));

// ... and the augmented kind (InsertWithAssignment, exact aggregates).
class BPlusTreeAugmentedModelTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(BPlusTreeAugmentedModelTest, MatchesReferenceModel) {
  RunReferenceModel(GetParam(), /*augmented=*/true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BPlusTreeAugmentedModelTest,
                         ::testing::Values(1, 2, 3, 4, 5, 20260704));

// Complexity sanity (Theorem 3.1 shape): page fetches per point lookup grow
// logarithmically, not linearly.
TEST(BPlusTreeTest, LookupCostIsLogarithmic) {
  TreeFixture fx(1024);
  Rng rng(9);
  for (uint32_t i = 0; i < 20000; ++i) {
    ASSERT_TRUE(fx.tree->Insert(rng.Uniform(0, 1e6), i).ok());
  }
  ASSERT_TRUE(fx.pager->DropCache().ok());
  IoStats before = fx.pager->stats();
  const int kLookups = 200;
  for (int i = 0; i < kLookups; ++i) {
    LeafCursor cur;
    ASSERT_TRUE(fx.tree->SeekLeaf(rng.Uniform(0, 1e6), &cur).ok());
  }
  uint64_t fetches = fx.pager->stats().Delta(before).page_fetches;
  // Height is ~3 at 20k entries with 1 KiB pages; allow generous slack.
  EXPECT_LE(fetches, static_cast<uint64_t>(kLookups) * 6);
}

// Theorem 3.1's log_B n term, exactly: a search costs one fetch per level,
// because the descent hands the leaf it reached to its caller and no entry
// point fetches that leaf again. A sweep pays one fetch per further leaf.
TEST(BPlusTreeTest, SearchCostsHeightFetches) {
  for (uint32_t height : {1u, 2u, 3u}) {
    SCOPED_TRACE("height " + std::to_string(height));
    TreeFixture fx;
    for (uint32_t v = 0; fx.tree->height() < height || v < 10; ++v) {
      ASSERT_TRUE(fx.tree->Insert(static_cast<double>(v), v).ok());
    }
    ASSERT_EQ(fx.tree->height(), height);
    const uint32_t mid = static_cast<uint32_t>(fx.tree->size() / 2);
    const double key = static_cast<double>(mid);
    auto fetches = [&](const std::function<Status()>& op) -> uint64_t {
      const IoStats before = fx.pager->stats();
      EXPECT_TRUE(op().ok());
      return fx.pager->stats().Delta(before).page_fetches;
    };
    LeafCursor cur;
    PageId leaf;
    EXPECT_EQ(fetches([&] { return fx.tree->SeekLeaf(key, &cur); }), height);
    EXPECT_EQ(fetches([&] { return fx.tree->SeekLeafPast(key, &cur); }),
              height);
    EXPECT_EQ(fetches([&] { return fx.tree->Contains(key, mid).status(); }),
              height);
    EXPECT_EQ(fetches([&] { return fx.tree->MergeHandicap(key, 0, 1.0); }),
              height);
    EXPECT_EQ(fetches([&] { return fx.tree->HandicapLeaf(key, &leaf); }),
              height);

    uint64_t leaves = 0;
    const uint64_t sweep = fetches([&] {
      Status s = fx.tree->SeekFirstLeaf(&cur);
      for (; s.ok() && cur.valid(); s = cur.NextLeaf()) ++leaves;
      return s;
    });
    EXPECT_EQ(sweep, height + leaves - 1);
    EXPECT_EQ(fetches([&] { return fx.tree->ResetHandicaps(); }),
              height + leaves - 1);
  }
}

// --- On-disk node format ---------------------------------------------------
//
// The walk below decodes nodes from the format alone, not through the tree:
//   meta:     u64 magic, u32 root, u32 height, u64 count, u32 flags
//   leaf:     u8 type (0), u8 stamp, u16 count, u32 next, u32 prev,
//             f64 slot[4], count * {f64 key, u32 value}
//   internal: u8 type (1), u8 stamp, u16 count, u32 child0, [f64 agg0[4]],
//             count * {f64 key, u32 value, u32 child, [f64 agg[4]]}
// where the bracketed aggregates exist in augmented trees only.

uint32_t LoadU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

// FNV-1a, 64 bit.
void Mix(uint64_t* h, const char* p, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    *h ^= static_cast<unsigned char>(p[i]);
    *h *= 0x100000001b3ull;
  }
}

// Digest of the tree's meta fields and, for every node reachable from the
// root in breadth-first order, its page id and live bytes: the header,
// count * stride entry bytes, leaf slots and chain links, child ids and
// aggregates. Bytes past the live prefix are free to differ.
uint64_t NodeDigest(Pager* pager, const BPlusTree& tree) {
  const size_t agg = tree.augmented() ? 32 : 0;
  uint64_t h = 0xcbf29ce484222325ull;
  PageId root;
  {
    Result<PageRef> meta = pager->Fetch(tree.meta_page());
    EXPECT_TRUE(meta.ok());
    if (!meta.ok()) return 0;
    Mix(&h, meta.value().data(), 28);
    root = LoadU32(meta.value().data() + 8);
  }
  std::vector<PageId> queue{root};
  for (size_t q = 0; q < queue.size(); ++q) {
    Result<PageRef> ref = pager->Fetch(queue[q]);
    EXPECT_TRUE(ref.ok());
    if (!ref.ok()) return 0;
    const char* p = ref.value().data();
    uint16_t n;
    std::memcpy(&n, p + 2, 2);
    const bool leaf = p[0] == 0;
    const size_t header = leaf ? 44 : 8 + agg;
    const size_t stride = leaf ? 12 : 16 + agg;
    EXPECT_LE(header + n * stride, pager->page_size()) << "page " << queue[q];
    if (header + n * stride > pager->page_size()) return 0;
    Mix(&h, reinterpret_cast<const char*>(&queue[q]), 4);
    Mix(&h, p, header + n * stride);
    if (leaf) continue;
    queue.push_back(LoadU32(p + 4));
    for (size_t i = 0; i < n; ++i) {
      queue.push_back(LoadU32(p + header + i * stride + 12));
    }
  }
  return h;
}

// Builds a tree of either kind by one fixed sequence and returns the node
// digest after each phase: BulkLoad at fill 0.8; inserts until height 3 and
// 400 more; deletes of nine entries in ten, in pseudo-random order, which
// borrow from and merge with left and right siblings at leaf and internal
// level and shrink the root (each of those paths runs at least once for
// both kinds with this seed).
std::vector<uint64_t> FormatDigests(bool augmented) {
  TreeFixture fx(256, augmented);
  std::vector<BPlusTree::AugEntry> bulk;
  for (uint32_t v = 0; v < 40; ++v) {
    BPlusTree::AugEntry e{static_cast<double>(2 * v), v, {}};
    AssignOf(v, e.m);
    bulk.push_back(e);
  }
  std::unique_ptr<BPlusTree> tree;
  EXPECT_TRUE(
      BPlusTree::BulkLoad(fx.pager.get(), bulk, 0.8, augmented, &tree).ok());
  if (augmented) tree->SetAssignmentFn(MakeAssignmentFn());
  fx.tree = std::move(tree);
  std::vector<uint64_t> digests{NodeDigest(fx.pager.get(), *fx.tree)};

  std::vector<Entry> live;
  for (uint32_t v = 0; v < 40; ++v) live.emplace_back(2.0 * v, v);
  Rng rng(7);
  uint32_t v = 40;
  for (int extra = 400; extra > 0; ++v) {
    const double key = std::floor(rng.Uniform(0, 160)) + 0.5;
    EXPECT_TRUE(fx.Put(key, v).ok());
    live.emplace_back(key, v);
    if (fx.tree->height() >= 3) --extra;
  }
  EXPECT_GE(fx.tree->height(), 3u);
  digests.push_back(NodeDigest(fx.pager.get(), *fx.tree));

  for (size_t keep = live.size() / 10; live.size() > keep;) {
    const size_t at = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
    EXPECT_TRUE(fx.tree->Delete(live[at].first, live[at].second).ok());
    live.erase(live.begin() + static_cast<std::ptrdiff_t>(at));
  }
  EXPECT_TRUE(fx.tree->CheckInvariants().ok());
  digests.push_back(NodeDigest(fx.pager.get(), *fx.tree));
  return digests;
}

std::string Hex(const std::vector<uint64_t>& digests) {
  std::string out;
  char buf[24];
  for (uint64_t d : digests) {
    std::snprintf(buf, sizeof(buf), "%016llx ",
                  static_cast<unsigned long long>(d));
    out += buf;
  }
  return out;
}

// Byte-level pin of both node layouts. The digests were recorded while the
// two kinds still had separate internal-node accessors; they must not move
// unless the format version does.
TEST(BPlusTreeFormatTest, OrdinaryNodeBytesArePinned) {
  EXPECT_EQ(Hex(FormatDigests(/*augmented=*/false)),
            "c07a80cac1551ee5 ba9eb59632db7891 4204698a91762c40 ");
}

TEST(BPlusTreeFormatTest, AugmentedNodeBytesArePinned) {
  EXPECT_EQ(Hex(FormatDigests(/*augmented=*/true)),
            "655f21e6612f6c5c b5036908c6a523e1 944df8f8b4a30533 ");
}

// --- A node's count is checked where it is read ---------------------------
//
// A node's u16 entry count comes from disk. A count past what the page can
// hold, planted with a valid checksum, must surface as Corruption from every
// entry point that loads the node, never as a read past the frame.

enum class Plant { kLeaf, kInternal };

void ExpectCountCorruption(bool augmented, Plant plant) {
  TreeFixture fx(256, augmented);
  for (uint32_t v = 0; v < 300; ++v) {
    ASSERT_TRUE(fx.Put(static_cast<double>(v), v).ok());
  }
  ASSERT_GE(fx.tree->height(), 2u);
  PageId target;
  if (plant == Plant::kLeaf) {
    LeafCursor cur;
    ASSERT_TRUE(fx.tree->SeekLeaf(150.0, &cur).ok());
    target = cur.page();
  } else {
    Result<PageRef> meta = fx.pager->Fetch(fx.tree->meta_page());
    ASSERT_TRUE(meta.ok());
    target = LoadU32(meta.value().data() + 8);  // The internal root.
  }
  {
    Result<PageRef> ref = fx.pager->Fetch(target);
    ASSERT_TRUE(ref.ok());
    const uint16_t bad = 0xFFFF;
    std::memcpy(ref.value().data() + 2, &bad, 2);
    ref.value().MarkDirty();
  }
  ASSERT_TRUE(fx.pager->Flush().ok());
  ASSERT_TRUE(fx.pager->DropCache().ok());

  LeafCursor cur;
  EXPECT_TRUE(fx.tree->SeekLeaf(150.0, &cur).IsCorruption());
  ExpectNoPinnedFrames(*fx.pager);
  EXPECT_TRUE(fx.tree->Contains(150.0, 150).status().IsCorruption());
  ExpectNoPinnedFrames(*fx.pager);
  EXPECT_TRUE(fx.Put(150.5, 1000).IsCorruption());
  ExpectNoPinnedFrames(*fx.pager);
  EXPECT_TRUE(fx.tree->Delete(150.0, 150).IsCorruption());
  ExpectNoPinnedFrames(*fx.pager);
  EXPECT_TRUE(fx.tree->CheckInvariants().IsCorruption());
  ExpectNoPinnedFrames(*fx.pager);
}

TEST(BPlusTreeTest, OverCapacityCountIsCorruption) {
  for (bool augmented : {false, true}) {
    for (Plant plant : {Plant::kLeaf, Plant::kInternal}) {
      SCOPED_TRACE(std::string(augmented ? "augmented" : "ordinary") +
                   (plant == Plant::kLeaf ? " leaf" : " internal node"));
      ExpectCountCorruption(augmented, plant);
    }
  }
}

}  // namespace
}  // namespace cdb
