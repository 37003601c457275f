// Group-commit ingest queue (ISSUE 9 tentpole).
//
// Unit coverage for the lane itself: group assembly (size bound, commit
// wait on a ManualClock, greedy batching), the one-journal-commit-per-group
// durability claim (journal_commits advances by exactly the group count the
// lane exports), bounded admission shedding,
// producer-side validation, whole-group failure + lane poisoning on a
// transient journal fault, and linearizability of queries racing grouped
// publishes under single-writer/multi-reader serving. Runs under `-L tsan`.

#include "exec/ingest_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "constraint/naive_eval.h"
#include "constraint/parser.h"
#include "constraint/relation_d.h"
#include "exec/query_executor.h"
#include "obs/metrics.h"
#include "pager_test_util.h"
#include "storage/fault_file.h"
#include "storage/file.h"
#include "workload/generator.h"

namespace cdb {
namespace {

using exec::IngestHandle;
using exec::IngestQueue;
using exec::IngestQueueOptions;
using exec::IngestQueueStats;
using FaultPlan = FaultInjectionFile::FaultPlan;

constexpr uint64_t kSeed = 20260809;

std::unique_ptr<Pager> MakePager(std::unique_ptr<BlockFile> file,
                                 std::unique_ptr<BlockFile> journal = nullptr) {
  PagerOptions opts;
  opts.page_size = 1024;
  opts.cache_frames = 64;
  std::unique_ptr<Pager> pager;
  if (journal != nullptr) {
    EXPECT_TRUE(
        Pager::Open(std::move(file), std::move(journal), opts, &pager).ok());
  } else {
    EXPECT_TRUE(Pager::Open(std::move(file), opts, &pager).ok());
  }
  return pager;
}

// Relation-only lane over a journaled pager: the minimal substrate on
// which "one journal commit per group" is observable.
struct LaneFixture {
  std::unique_ptr<Pager> pager;
  std::unique_ptr<Relation> relation;
  Rng rng{kSeed};
  WorkloadOptions wopts;

  LaneFixture() {
    pager = MakePager(std::make_unique<MemFile>(1024),
                      std::make_unique<MemFile>(Pager::JournalBlockSize(1024)));
    EXPECT_TRUE(Relation::Open(pager.get(), kInvalidPageId, &relation).ok());
    EXPECT_TRUE(pager->Flush().ok());
  }

  ~LaneFixture() { ExpectNoPinnedFrames(*pager); }

  GeneralizedTuple NextTuple() { return RandomBoundedTuple(&rng, wopts); }
};

TEST(IngestQueueTest, GroupCommitAmortizesJournalAndAcksAfterPublish) {
  LaneFixture fx;
  const uint64_t commits_before = fx.pager->stats().journal_commits;

  IngestQueueOptions opts;
  opts.max_group_size = 8;
  IngestQueue queue(fx.relation.get(), /*index=*/nullptr, fx.pager.get(),
                    /*idx_pager=*/nullptr, opts);

  constexpr size_t kAppends = 16;
  std::vector<IngestHandle> handles;
  for (size_t i = 0; i < kAppends; ++i) {
    Result<IngestHandle> h = queue.Submit(fx.NextTuple());
    ASSERT_TRUE(h.ok()) << h.status().ToString();
    EXPECT_FALSE(h.value().done()) << "acked before the writer even ran";
    handles.push_back(h.value());
  }
  queue.Close();
  ASSERT_TRUE(queue.RunWriter().ok());

  // Every handle resolved with its id, in submission order.
  for (size_t i = 0; i < kAppends; ++i) {
    ASSERT_TRUE(handles[i].done());
    Result<TupleId> id = handles[i].Wait();
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    EXPECT_EQ(id.value(), static_cast<TupleId>(i));
    GeneralizedTuple t;
    EXPECT_TRUE(fx.relation->Get(id.value(), &t).ok());
  }

  // All 16 appends were queued before the writer started, so greedy
  // batching drains exactly two full groups of 8 — and the durability bill
  // is two journal commits, not sixteen.
  const IngestQueueStats stats = queue.stats();
  EXPECT_EQ(stats.submitted, kAppends);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.groups_committed, 2u);
  EXPECT_EQ(stats.appends_committed, kAppends);
  EXPECT_EQ(stats.groups_failed, 0u);
  EXPECT_EQ(stats.max_group_size, 8u);
  EXPECT_EQ(fx.pager->stats().journal_commits - commits_before, 2u);
  EXPECT_EQ(fx.relation->size(), kAppends);

  // The exported gauges carry the same ledger, so a scrape can check the
  // amortization against the pager's journal commits.
  obs::MetricsRegistry registry(/*enabled=*/true);
  queue.ExportMetrics(&registry, "lane");
  EXPECT_EQ(registry.gauge("lane.groups_committed")->value(),
            static_cast<double>(fx.pager->stats().journal_commits -
                                commits_before));
  EXPECT_EQ(registry.gauge("lane.appends_committed")->value(), kAppends);
  EXPECT_EQ(registry.gauge("lane.max_group_size")->value(), 8);
  EXPECT_EQ(registry.gauge("lane.shed")->value(), 0);
}

TEST(IngestQueueTest, FullQueueShedsWithUnavailable) {
  LaneFixture fx;
  IngestQueueOptions opts;
  opts.queue_capacity = 4;
  opts.max_group_size = 4;
  IngestQueue queue(fx.relation.get(), nullptr, fx.pager.get(), nullptr, opts);

  std::vector<IngestHandle> handles;
  for (size_t i = 0; i < 4; ++i) {
    Result<IngestHandle> h = queue.Submit(fx.NextTuple());
    ASSERT_TRUE(h.ok());
    handles.push_back(h.value());
  }
  // Admission is bounded and non-blocking: overflow sheds immediately with
  // the transient code, not an error that kills the producer.
  for (size_t i = 0; i < 2; ++i) {
    Result<IngestHandle> h = queue.Submit(fx.NextTuple());
    ASSERT_FALSE(h.ok());
    EXPECT_TRUE(h.status().IsUnavailable()) << h.status().ToString();
  }
  queue.Close();
  // Closed lanes shed too.
  EXPECT_TRUE(queue.Submit(fx.NextTuple()).status().IsUnavailable());
  ASSERT_TRUE(queue.RunWriter().ok());

  const IngestQueueStats stats = queue.stats();
  EXPECT_EQ(stats.submitted, 4u);
  EXPECT_EQ(stats.shed, 3u);
  EXPECT_EQ(stats.appends_committed, 4u);
  for (IngestHandle& h : handles) {
    EXPECT_TRUE(h.Wait().ok());
  }
}

TEST(IngestQueueTest, MalformedTupleIsRejectedAtAdmission) {
  LaneFixture fx;
  std::unique_ptr<Pager> idx_pager = MakePager(std::make_unique<MemFile>(1024));
  for (size_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(fx.relation->Insert(fx.NextTuple()).ok());
  }
  std::unique_ptr<DualIndex> index;
  ASSERT_TRUE(DualIndex::Build(idx_pager.get(), fx.relation.get(),
                               SlopeSet::UniformInAngle(4, -1.3, 1.3), {},
                               &index)
                  .ok());

  IngestQueue queue(fx.relation.get(), index.get(), fx.pager.get(),
                    idx_pager.get(), IngestQueueOptions{});

  // Empty and unsatisfiable tuples are the producer's bug: they bounce at
  // Submit with InvalidArgument and can never fail a group mid-apply.
  EXPECT_TRUE(queue.Submit(GeneralizedTuple()).status().IsInvalidArgument());
  GeneralizedTuple contradiction;
  contradiction.Add(0, 1, -1, Cmp::kGE);  // y >= 1 ...
  contradiction.Add(0, 1, 0, Cmp::kLE);   // ... and y <= 0.
  Result<IngestHandle> h = queue.Submit(contradiction);
  ASSERT_FALSE(h.ok());
  EXPECT_TRUE(h.status().IsInvalidArgument()) << h.status().ToString();

  // A well-formed tuple still goes through on the same lane.
  Result<IngestHandle> good = queue.Submit(fx.NextTuple());
  ASSERT_TRUE(good.ok());
  queue.Close();
  ASSERT_TRUE(queue.RunWriter().ok());
  ASSERT_TRUE(good.value().Wait().ok());

  const IngestQueueStats stats = queue.stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.shed, 0u);  // Rejections are not sheds.
  EXPECT_EQ(stats.groups_failed, 0u);
  ASSERT_TRUE(index->CheckInvariants().ok());
  ExpectNoPinnedFrames(*idx_pager);
}

// A NaN or infinite coefficient is undecidable for the LP solver: a NaN
// row reads as satisfiable with TOP = +inf and BOT = -inf, which would
// index a phantom tuple. Every entry point rejects it with InvalidArgument
// and leaves the relation unchanged.
TEST(IngestQueueTest, NonFiniteCoefficientsAreRejectedWhereTuplesEnter) {
  LaneFixture fx;
  std::unique_ptr<Pager> idx_pager = MakePager(std::make_unique<MemFile>(1024));
  for (size_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(fx.relation->Insert(fx.NextTuple()).ok());
  }
  std::unique_ptr<DualIndex> index;
  ASSERT_TRUE(DualIndex::Build(idx_pager.get(), fx.relation.get(),
                               SlopeSet::UniformInAngle(4, -1.3, 1.3), {},
                               &index)
                  .ok());
  std::unique_ptr<Pager> d_pager = MakePager(std::make_unique<MemFile>(1024));
  std::unique_ptr<RelationD> relation_d;
  ASSERT_TRUE(
      RelationD::Open(d_pager.get(), 3, kInvalidPageId, &relation_d).ok());
  IngestQueue queue(fx.relation.get(), index.get(), fx.pager.get(),
                    idx_pager.get(), IngestQueueOptions{});

  const double bad_values[] = {std::nan(""), HUGE_VAL, -HUGE_VAL};
  for (double v : bad_values) {
    // {v*x + y <= 0, x - 1 <= 0} with v moved through every coefficient.
    for (int slot = 0; slot < 3; ++slot) {
      double coeffs[3] = {1.0, 1.0, 0.0};
      coeffs[slot] = v;
      GeneralizedTuple t;
      t.Add(coeffs[0], coeffs[1], coeffs[2], Cmp::kLE);
      t.Add(1, 0, -1, Cmp::kLE);
      const std::string what =
          "v=" + std::to_string(v) + " slot=" + std::to_string(slot);
      EXPECT_TRUE(fx.relation->Insert(t).status().IsInvalidArgument())
          << what;
      EXPECT_TRUE(index->ValidateForInsert(t).IsInvalidArgument()) << what;
      EXPECT_TRUE(index->Insert(static_cast<TupleId>(fx.relation->size()), t)
                      .IsInvalidArgument())
          << what;
      EXPECT_TRUE(queue.Submit(t).status().IsInvalidArgument()) << what;
    }
    for (int slot = 0; slot < 4; ++slot) {
      std::vector<double> a = {1.0, 1.0, 1.0};
      double c = -1.0;
      (slot < 3 ? a[slot] : c) = v;
      GeneralizedTupleD t(3, {ConstraintD(a, c, Cmp::kLE)});
      EXPECT_TRUE(relation_d->Insert(t).status().IsInvalidArgument())
          << "v=" << v << " slot=" << slot;
    }
  }
  EXPECT_EQ(fx.relation->size(), 20u);
  EXPECT_EQ(relation_d->size(), 0u);
  queue.Close();
  ASSERT_TRUE(queue.RunWriter().ok());
  const IngestQueueStats stats = queue.stats();
  EXPECT_EQ(stats.submitted, 0u);
  EXPECT_EQ(stats.groups_failed, 0u);
  EXPECT_EQ(fx.relation->size(), 20u);
  ASSERT_TRUE(index->CheckInvariants().ok());
  ExpectNoPinnedFrames(*idx_pager);
  ExpectNoPinnedFrames(*d_pager);
}

// Finite but outside the exact range (zero or magnitude in [2^-64, 2^64])
// is rejected the same way at every entry point, the parser included;
// the range's edges are admitted.
TEST(IngestQueueTest, OutOfRangeMagnitudesAreRejectedWhereTuplesEnter) {
  LaneFixture fx;
  std::unique_ptr<Pager> idx_pager = MakePager(std::make_unique<MemFile>(1024));
  for (size_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(fx.relation->Insert(fx.NextTuple()).ok());
  }
  std::unique_ptr<DualIndex> index;
  ASSERT_TRUE(DualIndex::Build(idx_pager.get(), fx.relation.get(),
                               SlopeSet::UniformInAngle(4, -1.3, 1.3), {},
                               &index)
                  .ok());
  IngestQueue queue(fx.relation.get(), index.get(), fx.pager.get(),
                    idx_pager.get(), IngestQueueOptions{});

  // {v*x + y <= 0, x - 1 <= 0} with v moved through every coefficient.
  auto with = [](double v, int slot) {
    double coeffs[3] = {1.0, 1.0, 0.0};
    coeffs[slot] = v;
    GeneralizedTuple t;
    t.Add(coeffs[0], coeffs[1], coeffs[2], Cmp::kLE);
    t.Add(1, 0, -1, Cmp::kLE);
    return t;
  };
  for (double v : {1e30, -0x1p65, 1e-30, -0x1p-65, 1e300}) {
    for (int slot = 0; slot < 3; ++slot) {
      const GeneralizedTuple t = with(v, slot);
      const std::string what =
          "v=" + std::to_string(v) + " slot=" + std::to_string(slot);
      EXPECT_TRUE(ValidateTuple(t).IsInvalidArgument()) << what;
      EXPECT_TRUE(fx.relation->Insert(t).status().IsInvalidArgument())
          << what;
      EXPECT_TRUE(index->ValidateForInsert(t).IsInvalidArgument()) << what;
      EXPECT_TRUE(index->Insert(static_cast<TupleId>(fx.relation->size()), t)
                      .IsInvalidArgument())
          << what;
      EXPECT_TRUE(queue.Submit(t).status().IsInvalidArgument()) << what;
    }
  }
  // The text syntax has no exponents: 2^65 and 1e-20 written out.
  GeneralizedTuple parsed;
  EXPECT_TRUE(ParseGeneralizedTuple("x <= 36893488147419103232", &parsed)
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseGeneralizedTuple("0.00000000000000000001x + y >= 0",
                                    &parsed)
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseGeneralizedTuple("x <= 3000000000", &parsed).ok());
  for (double v : {0x1p64, -0x1p64, 0x1p-64, 0.0}) {
    for (int slot = 0; slot < 3; ++slot) {
      EXPECT_TRUE(ValidateTuple(with(v, slot)).ok()) << v << " " << slot;
    }
  }
  EXPECT_EQ(fx.relation->size(), 20u);
  queue.Close();
  ASSERT_TRUE(queue.RunWriter().ok());
  EXPECT_EQ(queue.stats().submitted, 0u);
  ASSERT_TRUE(index->CheckInvariants().ok());
  ExpectNoPinnedFrames(*idx_pager);
}

TEST(IngestQueueTest, CommitWaitHoldsPartialGroupUntilDeadline) {
  LaneFixture fx;
  ManualClock clock;
  IngestQueueOptions opts;
  opts.max_group_size = 4;
  opts.commit_wait_ns = 1000;
  opts.clock = &clock;
  IngestQueue queue(fx.relation.get(), nullptr, fx.pager.get(), nullptr, opts);

  std::thread writer([&] { EXPECT_TRUE(queue.RunWriter().ok()); });

  Result<IngestHandle> h1 = queue.Submit(fx.NextTuple());
  Result<IngestHandle> h2 = queue.Submit(fx.NextTuple());
  ASSERT_TRUE(h1.ok());
  ASSERT_TRUE(h2.ok());

  // The clock is frozen inside the commit-wait window, so the partial
  // group must be held open no matter how much real time passes.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_FALSE(h1.value().done());
  EXPECT_FALSE(h2.value().done());
  EXPECT_EQ(queue.stats().groups_committed, 0u);

  // Deadline passes on the injected clock: the partial group of 2 commits.
  clock.AdvanceNanos(2000);
  ASSERT_TRUE(h1.value().Wait().ok());
  ASSERT_TRUE(h2.value().Wait().ok());
  queue.Close();
  writer.join();

  const IngestQueueStats stats = queue.stats();
  EXPECT_EQ(stats.groups_committed, 1u);
  EXPECT_EQ(stats.appends_committed, 2u);
  EXPECT_EQ(stats.max_group_size, 2u);
  EXPECT_GE(stats.commit_wait_ns, 2000u);
}

TEST(IngestQueueTest, FullGroupCommitsWithoutWaitingForTheClock) {
  LaneFixture fx;
  ManualClock clock;  // Never advanced: only the size bound can fire.
  IngestQueueOptions opts;
  opts.max_group_size = 4;
  opts.commit_wait_ns = 1000000000;  // 1 s on a clock that never moves.
  opts.clock = &clock;
  IngestQueue queue(fx.relation.get(), nullptr, fx.pager.get(), nullptr, opts);

  std::thread writer([&] { EXPECT_TRUE(queue.RunWriter().ok()); });
  std::vector<IngestHandle> handles;
  for (size_t i = 0; i < 4; ++i) {
    Result<IngestHandle> h = queue.Submit(fx.NextTuple());
    ASSERT_TRUE(h.ok());
    handles.push_back(h.value());
  }
  // The size bound is hard: a full group commits with the wait outstanding.
  for (IngestHandle& h : handles) {
    ASSERT_TRUE(h.Wait().ok());
  }
  queue.Close();
  writer.join();
  EXPECT_EQ(queue.stats().groups_committed, 1u);
  EXPECT_EQ(queue.stats().max_group_size, 4u);
}

TEST(IngestQueueTest, TransientJournalFaultFailsWholeGroupAndPoisonsLane) {
  auto plan = std::make_shared<FaultPlan>();
  auto data_fault = std::make_unique<FaultInjectionFile>(
      std::make_unique<MemFile>(1024), plan);
  auto jnl_fault = std::make_unique<FaultInjectionFile>(
      std::make_unique<MemFile>(Pager::JournalBlockSize(1024)), plan);
  std::unique_ptr<Pager> pager =
      MakePager(std::move(data_fault), std::move(jnl_fault));
  std::unique_ptr<Relation> relation;
  ASSERT_TRUE(Relation::Open(pager.get(), kInvalidPageId, &relation).ok());
  ASSERT_TRUE(pager->Flush().ok());

  Rng rng(kSeed + 1);
  WorkloadOptions wopts;
  IngestQueueOptions opts;
  opts.max_group_size = 3;
  IngestQueue queue(relation.get(), nullptr, pager.get(), nullptr, opts);

  std::vector<IngestHandle> handles;
  for (size_t i = 0; i < 5; ++i) {
    Result<IngestHandle> h = queue.Submit(RandomBoundedTuple(&rng, wopts));
    ASSERT_TRUE(h.ok());
    handles.push_back(h.value());
  }
  queue.Close();

  // The very next physical write — the first journal pre-image of the
  // first group's commit — fails transiently. Writes are never retried
  // (DESIGN.md §2g), so the whole group fails with kUnavailable.
  plan->ArmTransientWrites(0, 1);
  Status st = queue.RunWriter();
  plan->DisarmTransient();
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsUnavailable()) << st.ToString();

  // The first group of 3 shares the fault's status; the queued remainder
  // is shed — nobody is left blocked, nobody was acked.
  for (size_t i = 0; i < handles.size(); ++i) {
    Result<TupleId> r = handles[i].Wait();
    ASSERT_FALSE(r.ok()) << "append " << i << " acked across a failed group";
    EXPECT_TRUE(r.status().IsUnavailable()) << r.status().ToString();
  }
  const IngestQueueStats stats = queue.stats();
  EXPECT_EQ(stats.groups_committed, 0u);
  EXPECT_EQ(stats.groups_failed, 1u);
  EXPECT_EQ(stats.appends_committed, 0u);
  EXPECT_EQ(stats.shed, 2u);

  // The lane is poisoned: even a fault-free Submit sheds until a reopen.
  Result<IngestHandle> after = queue.Submit(RandomBoundedTuple(&rng, wopts));
  ASSERT_FALSE(after.ok());
  EXPECT_TRUE(after.status().IsUnavailable());
}

// A poisoned lane sheds what it still holds: the appends queued behind the
// failed group, then every later Submit. Both kinds are booked alike in
// stats().shed and in the exported ".shed" gauge.
TEST(IngestQueueTest, PoisonDrainIsBookedInShedStatsAndExport) {
  auto plan = std::make_shared<FaultPlan>();
  std::unique_ptr<Pager> pager = MakePager(
      std::make_unique<FaultInjectionFile>(std::make_unique<MemFile>(1024),
                                           plan),
      std::make_unique<FaultInjectionFile>(
          std::make_unique<MemFile>(Pager::JournalBlockSize(1024)), plan));
  std::unique_ptr<Relation> relation;
  ASSERT_TRUE(Relation::Open(pager.get(), kInvalidPageId, &relation).ok());
  ASSERT_TRUE(pager->Flush().ok());

  obs::MetricsRegistry registry(/*enabled=*/true);
  obs::Gauge* const shed = registry.gauge("lane.shed");
  Rng rng(kSeed + 2);
  WorkloadOptions wopts;
  IngestQueueOptions opts;
  opts.max_group_size = 2;
  IngestQueue queue(relation.get(), nullptr, pager.get(), nullptr, opts);
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE(queue.Submit(RandomBoundedTuple(&rng, wopts)).ok());
  }
  queue.Close();
  plan->ArmTransientWrites(0, 1);
  EXPECT_TRUE(queue.RunWriter().IsUnavailable());
  plan->DisarmTransient();

  // The failed group took 2 appends; the 5 still queued were drained.
  EXPECT_EQ(queue.stats().groups_failed, 1u);
  EXPECT_EQ(queue.stats().shed, 5u);
  queue.ExportMetrics(&registry, "lane");
  EXPECT_EQ(shed->value(), 5);
  EXPECT_EQ(registry.gauge("lane.groups_failed")->value(), 1);
  EXPECT_EQ(registry.gauge("lane.poisoned")->value(), 1);
  EXPECT_FALSE(queue.Submit(RandomBoundedTuple(&rng, wopts)).ok());
  EXPECT_EQ(queue.stats().shed, 6u);
  queue.ExportMetrics(&registry, "lane");
  EXPECT_EQ(shed->value(), 6);
}

// Satellite 4b: queries racing grouped publishes under SWMR serving see
// some published group boundary — never a torn group.
TEST(IngestQueueTest, QueriesRacingGroupPublishesAreLinearizable) {
  constexpr size_t kSeedTuples = 300;
  constexpr size_t kInserts = 160;
  constexpr size_t kGroup = 16;
  constexpr size_t kProducers = 4;
  constexpr size_t kThreads = 8;

  std::unique_ptr<Pager> rel_pager =
      MakePager(std::make_unique<MemFile>(1024));
  std::unique_ptr<Pager> idx_pager =
      MakePager(std::make_unique<MemFile>(1024));
  std::unique_ptr<Relation> relation;
  ASSERT_TRUE(Relation::Open(rel_pager.get(), kInvalidPageId, &relation).ok());
  Rng rng(kSeed + 2);
  WorkloadOptions wopts;
  for (size_t i = 0; i < kSeedTuples; ++i) {
    ASSERT_TRUE(relation->Insert(RandomBoundedTuple(&rng, wopts)).ok());
  }
  DualIndexOptions iopts;
  iopts.incremental_handicaps = true;
  std::unique_ptr<DualIndex> index;
  ASSERT_TRUE(DualIndex::Build(idx_pager.get(), relation.get(),
                               SlopeSet::UniformInAngle(4, -1.3, 1.3), iopts,
                               &index)
                  .ok());
  ASSERT_TRUE(rel_pager->Flush().ok());

  std::vector<exec::BatchQuery> batch;
  {
    Rng qrng(kSeed + 3);
    for (size_t i = 0; i < 96; ++i) {
      exec::BatchQuery q;
      q.type = qrng.Chance(0.5) ? SelectionType::kAll : SelectionType::kExist;
      q.query = HalfPlaneQuery(std::tan(qrng.Uniform(-1.2, 1.2)),
                               qrng.Uniform(-60, 60),
                               qrng.Chance(0.5) ? Cmp::kGE : Cmp::kLE);
      q.method = QueryMethod::kT2;
      batch.push_back(q);
    }
  }
  std::vector<GeneralizedTuple> stream;
  for (size_t i = 0; i < kInserts; ++i) {
    stream.push_back(RandomBoundedTuple(&rng, wopts));
  }
  auto truth = [&](SelectionType type, const HalfPlaneQuery& q) {
    Result<std::vector<TupleId>> r = NaiveSelect(*relation, type, q);
    EXPECT_TRUE(r.ok());
    return r.value_or({});
  };
  std::vector<std::vector<TupleId>> truth_before;
  for (const exec::BatchQuery& q : batch) {
    truth_before.push_back(truth(q.type, q.query));
  }

  ASSERT_TRUE(relation->BeginOnlineAppends(kInserts).ok());
  IngestQueueOptions qopts;
  qopts.queue_capacity = kInserts;
  qopts.max_group_size = kGroup;
  IngestQueue queue(relation.get(), index.get(), rel_pager.get(),
                    idx_pager.get(), qopts);

  // Producers submit disjoint slices; a closer thread joins them and shuts
  // the lane so the writer (running as RunBatch's writer callback, i.e. on
  // the SWMR writer thread) drains and returns.
  std::vector<std::thread> producers;
  std::vector<std::vector<IngestHandle>> handles(kProducers);
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (size_t i = p; i < kInserts; i += kProducers) {
        Result<IngestHandle> h = queue.Submit(stream[i]);
        ASSERT_TRUE(h.ok()) << h.status().ToString();
        handles[p].push_back(h.value());
      }
    });
  }
  std::thread closer([&] {
    for (std::thread& t : producers) t.join();
    queue.Close();
  });

  exec::QueryExecutor executor(kThreads);
  exec::BatchResult run;
  ASSERT_TRUE(executor
                  .RunBatch(index.get(), batch, {}, &run,
                            [&] { return queue.RunWriter(); })
                  .ok());
  std::vector<exec::BatchItemResult> results = std::move(run.items);
  closer.join();

  for (std::vector<IngestHandle>& hs : handles) {
    for (IngestHandle& h : hs) {
      ASSERT_TRUE(h.Wait().ok());
    }
  }
  const IngestQueueStats stats = queue.stats();
  EXPECT_EQ(stats.appends_committed, kInserts);
  EXPECT_EQ(stats.groups_failed, 0u);
  EXPECT_LE(stats.max_group_size, kGroup);
  ASSERT_EQ(relation->size(), kSeedTuples + kInserts);
  ASSERT_TRUE(index->CheckInvariants().ok());
  ASSERT_TRUE(exec::FirstError(results).ok())
      << exec::FirstError(results).ToString();

  for (size_t i = 0; i < batch.size(); ++i) {
    const std::vector<TupleId> truth_after = truth(batch[i].type,
                                                   batch[i].query);
    const std::vector<TupleId>& got = results[i].ids;
    // Publishes happen only at group boundaries, between per-item read
    // sessions: every result is the truth over some published prefix.
    for (TupleId id : truth_before[i]) {
      ASSERT_TRUE(std::binary_search(got.begin(), got.end(), id))
          << "query " << i << " missed pre-ingest tuple " << id;
    }
    for (TupleId id : got) {
      ASSERT_TRUE(
          std::binary_search(truth_after.begin(), truth_after.end(), id))
          << "query " << i << " returned tuple " << id << " not in truth";
    }
    if (!got.empty()) {
      for (TupleId id : truth_after) {
        if (id > got.back()) break;
        ASSERT_TRUE(std::binary_search(got.begin(), got.end(), id))
            << "query " << i << " skipped tuple " << id
            << " below its own horizon " << got.back();
      }
    }
  }
  EXPECT_FALSE(rel_pager->concurrent_reads_active());
  EXPECT_FALSE(idx_pager->concurrent_reads_active());
  ExpectNoPinnedFrames(*rel_pager);
  ExpectNoPinnedFrames(*idx_pager);
}

}  // namespace
}  // namespace cdb
