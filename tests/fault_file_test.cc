// FaultInjectionFile semantics: the transient-fault state machine
// (countdown, failure window, self-disarm), FailAfter's
// one-counted-failure-per-arming guarantee under many threads, and the
// reads_seen counter chaos sweeps use to enumerate injection points.

#include "storage/fault_file.h"

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "storage/file.h"

namespace cdb {
namespace {

constexpr size_t kBlock = 64;

std::unique_ptr<FaultInjectionFile> MakeFile(
    std::shared_ptr<FaultInjectionFile::FaultPlan> plan, size_t blocks = 8) {
  auto base = std::make_unique<MemFile>(kBlock);
  std::vector<char> zero(kBlock, 0);
  for (size_t i = 0; i < blocks; ++i) {
    EXPECT_TRUE(base->WriteBlock(i, zero.data()).ok());
  }
  return std::make_unique<FaultInjectionFile>(std::move(base),
                                              std::move(plan));
}

TEST(FaultFileTest, TransientReadsFailExactlyKThenRecover) {
  auto plan = std::make_shared<FaultInjectionFile::FaultPlan>();
  auto file = MakeFile(plan);
  std::vector<char> buf(kBlock);

  plan->ArmTransientReads(/*n=*/2, /*k=*/3);
  // 2 succeed, 3 fail with the transient code, then the mode self-disarms.
  for (int i = 0; i < 2; ++i) {
    EXPECT_TRUE(file->ReadBlock(0, buf.data()).ok()) << i;
  }
  for (int i = 0; i < 3; ++i) {
    Status st = file->ReadBlock(0, buf.data());
    EXPECT_TRUE(st.IsUnavailable()) << st.ToString();
  }
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(file->ReadBlock(0, buf.data()).ok()) << i;
  }
  EXPECT_EQ(plan->transient_faults(), 3u);
  // Only successful reads count; injected failures never reach the base.
  EXPECT_EQ(file->reads_seen(), 6u);
}

TEST(FaultFileTest, TransientWritesIndependentOfReads) {
  auto plan = std::make_shared<FaultInjectionFile::FaultPlan>();
  auto file = MakeFile(plan);
  std::vector<char> buf(kBlock, 1);

  plan->ArmTransientWrites(/*n=*/0, /*k=*/1);
  EXPECT_TRUE(file->ReadBlock(0, buf.data()).ok());  // Reads unaffected.
  EXPECT_TRUE(file->WriteBlock(0, buf.data()).IsUnavailable());
  EXPECT_TRUE(file->WriteBlock(0, buf.data()).ok());
  EXPECT_EQ(plan->transient_faults(), 1u);
}

TEST(FaultFileTest, DisarmTransientCancelsPendingWindow) {
  auto plan = std::make_shared<FaultInjectionFile::FaultPlan>();
  auto file = MakeFile(plan);
  std::vector<char> buf(kBlock);

  plan->ArmTransientReads(/*n=*/0, /*k=*/100);
  EXPECT_TRUE(file->ReadBlock(0, buf.data()).IsUnavailable());
  plan->DisarmTransient();
  EXPECT_TRUE(file->ReadBlock(0, buf.data()).ok());
  EXPECT_EQ(plan->transient_faults(), 1u);
}

TEST(FaultFileTest, SharedPlanIndexesCombinedSequence) {
  // One plan across two wrappers: the countdown spans both files' reads,
  // the way chaos sweeps index a data+journal stream.
  auto plan = std::make_shared<FaultInjectionFile::FaultPlan>();
  auto a = MakeFile(plan);
  auto b = MakeFile(plan);
  std::vector<char> buf(kBlock);

  plan->ArmTransientReads(/*n=*/1, /*k=*/1);
  EXPECT_TRUE(a->ReadBlock(0, buf.data()).ok());           // Countdown 1 -> 0.
  EXPECT_TRUE(b->ReadBlock(0, buf.data()).IsUnavailable());  // Window.
  EXPECT_TRUE(a->ReadBlock(0, buf.data()).ok());           // Disarmed.
}

TEST(FaultFileTest, TransientWindowCountsAtomicallyUnderThreads) {
  // k failures total across all threads, never more, never fewer.
  constexpr int kThreads = 8;
  constexpr int kReadsPerThread = 50;
  constexpr int64_t kWindow = 5;
  auto plan = std::make_shared<FaultInjectionFile::FaultPlan>();
  auto file = MakeFile(plan);
  plan->ArmTransientReads(/*n=*/20, /*k=*/kWindow);

  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      std::vector<char> buf(kBlock);
      for (int i = 0; i < kReadsPerThread; ++i) {
        Status st = file->ReadBlock(0, buf.data());
        if (!st.ok()) {
          EXPECT_TRUE(st.IsUnavailable()) << st.ToString();
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), static_cast<uint64_t>(kWindow));
  EXPECT_EQ(plan->transient_faults(), static_cast<uint64_t>(kWindow));
  EXPECT_EQ(file->reads_seen(),
            static_cast<uint64_t>(kThreads * kReadsPerThread - kWindow));
}

TEST(FaultFileTest, FailAfterCountsOneFailurePerArmingUnderThreads) {
  // Many threads race past the trip point; every post-trip call fails, but
  // exactly one failure is *counted* per arming.
  constexpr int kThreads = 8;
  constexpr int kReadsPerThread = 25;
  auto file = MakeFile(nullptr);
  file->FailAfter(10);

  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      std::vector<char> buf(kBlock);
      for (int i = 0; i < kReadsPerThread; ++i) {
        if (!file->ReadBlock(0, buf.data()).ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(),
            static_cast<uint64_t>(kThreads * kReadsPerThread - 10));
  EXPECT_EQ(file->injected_read_failures(), 1u);
  EXPECT_EQ(file->reads_seen(), 10u);

  file->ClearFault();
  std::vector<char> buf(kBlock);
  EXPECT_TRUE(file->ReadBlock(0, buf.data()).ok());
}

TEST(FaultFileTest, CrashAndTransientCoexistOnOnePlan) {
  // A crash plan and a transient plan can share the FaultPlan: the
  // transient window fires first, then the armed crash takes the file
  // down for good.
  auto plan = std::make_shared<FaultInjectionFile::FaultPlan>();
  auto file = MakeFile(plan);
  std::vector<char> buf(kBlock, 2);

  plan->ArmTransientWrites(/*n=*/0, /*k=*/1);
  plan->writes_remaining = 1;
  EXPECT_TRUE(file->WriteBlock(0, buf.data()).IsUnavailable());
  EXPECT_TRUE(file->WriteBlock(0, buf.data()).ok());  // Last good write.
  EXPECT_TRUE(file->WriteBlock(1, buf.data()).ok());  // Torn (reported OK).
  EXPECT_TRUE(file->crashed());
  EXPECT_TRUE(file->ReadBlock(0, buf.data()).IsIOError());
}

}  // namespace
}  // namespace cdb
