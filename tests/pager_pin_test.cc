// PageRef pin-lifecycle audit (ISSUE 3 satellite): move construction, move
// assignment, early release, destructor, and the shared-mode unpin path
// must each release a pin exactly once — a double-unpin underflows the pin
// count and lets the frame be evicted under a live reference; a leaked pin
// wedges the frame forever (pager_test_util.h).

#include "storage/pager.h"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "storage/file.h"

namespace cdb {
namespace {

constexpr size_t kPageSize = 256;

std::unique_ptr<Pager> MakePager(size_t cache_frames = 8) {
  PagerOptions opts;
  opts.page_size = kPageSize;
  opts.cache_frames = cache_frames;
  std::unique_ptr<Pager> pager;
  EXPECT_TRUE(
      Pager::Open(std::make_unique<MemFile>(kPageSize), opts, &pager).ok());
  return pager;
}

PageId AllocatePage(Pager* pager) {
  Result<PageId> id = pager->Allocate();
  EXPECT_TRUE(id.ok());
  EXPECT_TRUE(pager->Flush().ok());
  return id.value_or(kInvalidPageId);
}

TEST(PageRefPinTest, DestructorUnpins) {
  auto pager = MakePager();
  PageId id = AllocatePage(pager.get());
  {
    Result<PageRef> ref = pager->Fetch(id);
    ASSERT_TRUE(ref.ok());
    EXPECT_EQ(pager->pinned_frame_count(), 1u);
  }
  EXPECT_EQ(pager->pinned_frame_count(), 0u);
}

TEST(PageRefPinTest, EarlyReleaseIsIdempotent) {
  auto pager = MakePager();
  PageId id = AllocatePage(pager.get());
  Result<PageRef> ref = pager->Fetch(id);
  ASSERT_TRUE(ref.ok());
  ref.value().Release();
  EXPECT_FALSE(ref.value().valid());
  EXPECT_EQ(pager->pinned_frame_count(), 0u);
  // A second Release (and the destructor after it) must be no-ops.
  ref.value().Release();
  EXPECT_EQ(pager->pinned_frame_count(), 0u);
}

TEST(PageRefPinTest, MoveConstructionTransfersThePin) {
  auto pager = MakePager();
  PageId id = AllocatePage(pager.get());
  Result<PageRef> ref = pager->Fetch(id);
  ASSERT_TRUE(ref.ok());
  {
    PageRef moved(std::move(ref.value()));
    EXPECT_TRUE(moved.valid());
    EXPECT_FALSE(ref.value().valid());
    // One pin total: the move transferred, not duplicated.
    EXPECT_EQ(pager->pinned_frame_count(), 1u);
  }
  // Destroying the moved-to ref released the single pin; the moved-from
  // ref's destructor later must not underflow it.
  EXPECT_EQ(pager->pinned_frame_count(), 0u);
}

TEST(PageRefPinTest, MoveAssignmentReleasesTheTargetExactlyOnce) {
  auto pager = MakePager();
  PageId a = AllocatePage(pager.get());
  PageId b = AllocatePage(pager.get());
  Result<PageRef> ra = pager->Fetch(a);
  Result<PageRef> rb = pager->Fetch(b);
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_EQ(pager->pinned_frame_count(), 2u);
  // Overwriting rb's ref must unpin page b (once) and keep page a pinned.
  rb.value() = std::move(ra.value());
  EXPECT_EQ(pager->pinned_frame_count(), 1u);
  EXPECT_EQ(rb.value().id(), a);
  EXPECT_FALSE(ra.value().valid());
  rb.value().Release();
  EXPECT_EQ(pager->pinned_frame_count(), 0u);
}

TEST(PageRefPinTest, SelfMoveAssignmentKeepsThePin) {
  auto pager = MakePager();
  PageId id = AllocatePage(pager.get());
  Result<PageRef> ref = pager->Fetch(id);
  ASSERT_TRUE(ref.ok());
  PageRef& alias = ref.value();
  ref.value() = std::move(alias);
  EXPECT_TRUE(ref.value().valid());
  EXPECT_EQ(pager->pinned_frame_count(), 1u);
}

TEST(PageRefPinTest, NestedPinsOnOnePageCountAsOneFrame) {
  auto pager = MakePager();
  PageId id = AllocatePage(pager.get());
  Result<PageRef> r1 = pager->Fetch(id);
  Result<PageRef> r2 = pager->Fetch(id);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_EQ(pager->pinned_frame_count(), 1u);
  r1.value().Release();
  EXPECT_EQ(pager->pinned_frame_count(), 1u);  // r2 still holds it.
  r2.value().Release();
  EXPECT_EQ(pager->pinned_frame_count(), 0u);
}

TEST(PageRefPinTest, SharedModePinLifecycleMirrorsExclusive) {
  auto pager = MakePager();
  PageId a = AllocatePage(pager.get());
  PageId b = AllocatePage(pager.get());
  ASSERT_TRUE(pager->BeginConcurrentReads().ok());
  {
    PagerReadSession session(pager.get());
    Result<PageRef> ra = pager->Fetch(a);
    Result<PageRef> rb = pager->Fetch(b);
    ASSERT_TRUE(ra.ok() && rb.ok());
    EXPECT_EQ(pager->pinned_frame_count(), 2u);
    // Move-assign across pages exercises the locked unpin via Release.
    rb.value() = std::move(ra.value());
    EXPECT_EQ(pager->pinned_frame_count(), 1u);
    rb.value().Release();
    rb.value().Release();  // Idempotent in shared mode too.
    EXPECT_EQ(pager->pinned_frame_count(), 0u);
  }
  EXPECT_TRUE(pager->EndConcurrentReads().ok());
  // Session merged: the four fetches (2 + the pre-Begin allocation reads
  // are exclusive-mode) are all accounted somewhere consistent.
  const IoStats& s = pager->stats();
  EXPECT_EQ(s.page_fetches, s.buffer_hits + s.page_reads);
}

TEST(PageRefPinTest, EndConcurrentReadsRefusesWhilePinned) {
  auto pager = MakePager();
  PageId id = AllocatePage(pager.get());
  ASSERT_TRUE(pager->BeginConcurrentReads().ok());
  {
    PagerReadSession session(pager.get());
    Result<PageRef> ref = pager->Fetch(id);
    ASSERT_TRUE(ref.ok());
    EXPECT_FALSE(pager->EndConcurrentReads().ok());
    ref.value().Release();
  }
  EXPECT_TRUE(pager->EndConcurrentReads().ok());
}

// Under single-writer mode the writer's frames live in its private overlay.
// They are still the pager's frames: a leaked writer pin must show in
// pinned_frame_count() (the leak checks and the pinned_frames gauge read
// it), its dirty pages in resident_frame_count(), and each publish must
// hand them to the pool without letting it grow past its budget.
TEST(PageRefPinTest, WriterPinsCountUnderSingleWriter) {
  constexpr size_t kCacheFrames = 4;
  constexpr size_t kPages = 8;
  auto pager = MakePager(kCacheFrames);
  std::vector<PageId> ids;
  for (size_t i = 0; i < kPages; ++i) ids.push_back(AllocatePage(pager.get()));

  ASSERT_TRUE(pager->BeginConcurrentReads(/*single_writer=*/true).ok());
  {
    Result<PageRef> ref = pager->Fetch(ids[0]);
    ASSERT_TRUE(ref.ok());
    EXPECT_EQ(pager->pinned_frame_count(), 1u);
  }
  EXPECT_EQ(pager->pinned_frame_count(), 0u);

  for (int round = 0; round < 4; ++round) {
    for (PageId id : ids) {
      Result<PageRef> ref = pager->Fetch(id);
      ASSERT_TRUE(ref.ok());
      ref.value().data()[0] = static_cast<char>(round);
      ref.value().MarkDirty();
    }
    EXPECT_GE(pager->resident_frame_count(), kPages) << "round " << round;
    ASSERT_TRUE(pager->Flush().ok());
    EXPECT_LE(pager->resident_frame_count(), kCacheFrames + kReadShards)
        << "round " << round;
    EXPECT_EQ(pager->pinned_frame_count(), 0u);
  }
  ASSERT_TRUE(pager->EndConcurrentReads().ok());
  EXPECT_LE(pager->resident_frame_count(), kCacheFrames + kReadShards);
}

}  // namespace
}  // namespace cdb
