// FaultInjectingDiskManager semantics, buffer-pool failure-path
// regressions, exhaustive per-path fault sweeps over the two paper
// structures, and QueryEngine partial-failure behavior.
//
// The sweeps use ScheduleFailAtOp to fail the k-th disk operation of one
// mutation or cold query for every k until the operation completes
// without tripping the schedule — so every single failure point of the
// op is exercised, and after each one the structure must be audit-clean,
// unchanged, and retryable. DESIGN.md Section 13 describes the model.

#include "io/fault_injection.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "baseline/oracle.h"
#include "core/query_engine.h"
#include "core/two_level_binary_index.h"
#include "core/two_level_interval_index.h"
#include "io/buffer_pool.h"
#include "util/random.h"
#include "workload/generators.h"
#include "workload/queries.h"

namespace segdb {
namespace {

using core::SegmentIndex;
using core::VerticalSegmentQuery;
using geom::Segment;
using io::FaultInjectingDiskManager;
using io::FaultPlan;

// ---------------------------------------------------------------------------
// Wrapper semantics.

TEST(FaultInjectionTest, SameSeedSamePlanInjectsIdenticalFaults) {
  FaultPlan plan;
  plan.seed = 99;
  plan.read_fault_rate = 0.4;
  plan.alloc_fault_rate = 0.4;
  plan.write_fault_rate = 0.2;

  const auto trace = [&](FaultInjectingDiskManager& disk) {
    std::vector<bool> faulted;
    disk.set_enabled(false);
    const io::PageId id = disk.AllocatePage().value();
    io::Page page(disk.page_size());
    disk.set_enabled(true);
    for (int i = 0; i < 120; ++i) {
      Status s;
      switch (i % 3) {
        case 0: s = disk.AllocatePage().status(); break;
        case 1: s = disk.WritePage(id, page); break;
        default: s = disk.ReadPage(id, &page); break;
      }
      faulted.push_back(!s.ok());
    }
    return faulted;
  };

  FaultInjectingDiskManager a(256, plan);
  FaultInjectingDiskManager b(256, plan);
  EXPECT_EQ(trace(a), trace(b));
  EXPECT_EQ(a.ops_seen(), b.ops_seen());
  EXPECT_EQ(a.faults_injected(), b.faults_injected());
  EXPECT_GT(a.faults_injected(), 0u);
}

TEST(FaultInjectionTest, PausedOpsAreUncountedAndDrawNoRandomness) {
  FaultPlan plan;
  plan.seed = 7;
  plan.read_fault_rate = 0.5;

  // b interleaves a burst of paused reads; its enabled-op fault pattern
  // must match a's exactly (paused ops consume no randomness).
  const auto trace = [&](FaultInjectingDiskManager& disk, bool pause_midway) {
    disk.set_enabled(false);
    const io::PageId id = disk.AllocatePage().value();
    io::Page page(disk.page_size());
    disk.set_enabled(true);
    std::vector<bool> faulted;
    for (int i = 0; i < 60; ++i) {
      if (pause_midway && i == 30) {
        disk.set_enabled(false);
        for (int j = 0; j < 25; ++j) {
          EXPECT_TRUE(disk.ReadPage(id, &page).ok());
        }
        disk.set_enabled(true);
      }
      faulted.push_back(!disk.ReadPage(id, &page).ok());
    }
    return faulted;
  };

  FaultInjectingDiskManager a(256, plan);
  FaultInjectingDiskManager b(256, plan);
  EXPECT_EQ(trace(a, false), trace(b, true));
  EXPECT_EQ(a.ops_seen(), b.ops_seen());
}

TEST(FaultInjectionTest, ScheduleFailAtOpFailsExactlyTheKthOp) {
  FaultInjectingDiskManager disk(256, FaultPlan{});  // zero rates
  disk.set_enabled(false);
  const io::PageId id = disk.AllocatePage().value();
  io::Page page(disk.page_size());
  disk.set_enabled(true);

  disk.ScheduleFailAtOp(3);
  EXPECT_TRUE(disk.ReadPage(id, &page).ok());              // op 1
  EXPECT_TRUE(disk.WritePage(id, page).ok());              // op 2
  EXPECT_EQ(disk.ReadPage(id, &page).code(), StatusCode::kIoError);  // op 3
  EXPECT_TRUE(disk.ReadPage(id, &page).ok());              // op 4: one-shot
  EXPECT_EQ(disk.faults_injected(), 1u);
}

TEST(FaultInjectionTest, TornWriteStoresNonEmptyStrictPrefix) {
  FaultPlan plan;
  plan.seed = 3;
  plan.torn_write_rate = 1.0;
  FaultInjectingDiskManager disk(256, plan);
  disk.set_enabled(false);
  const io::PageId id = disk.AllocatePage().value();
  disk.set_enabled(true);

  io::Page fresh(disk.page_size());
  std::fill(fresh.data(), fresh.data() + fresh.size(), 0xAB);
  EXPECT_EQ(disk.WritePage(id, fresh).code(), StatusCode::kIoError);

  disk.set_enabled(false);
  io::Page stored(disk.page_size());
  ASSERT_TRUE(disk.ReadPage(id, &stored).ok());
  // Non-empty prefix of new bytes, strict (the tail keeps the old zeros).
  EXPECT_EQ(stored.data()[0], 0xAB);
  EXPECT_EQ(stored.data()[stored.size() - 1], 0x00);
  uint32_t boundary = 0;
  while (boundary < stored.size() && stored.data()[boundary] == 0xAB) {
    ++boundary;
  }
  EXPECT_GT(boundary, 0u);
  EXPECT_LT(boundary, stored.size());
  for (uint32_t i = boundary; i < stored.size(); ++i) {
    EXPECT_EQ(stored.data()[i], 0x00) << "byte " << i;
  }
}

TEST(FaultInjectionTest, AllocBudgetModelsDeviceExhaustion) {
  FaultPlan plan;
  plan.alloc_budget = 2;
  FaultInjectingDiskManager disk(256, plan);
  EXPECT_TRUE(disk.AllocatePage().ok());
  EXPECT_TRUE(disk.AllocatePage().ok());
  EXPECT_EQ(disk.AllocatePage().status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(disk.AllocatePage().status().code(), StatusCode::kResourceExhausted);
  disk.set_enabled(false);  // pausing injection lifts the simulated cap
  EXPECT_TRUE(disk.AllocatePage().ok());
}

// ---------------------------------------------------------------------------
// Durability-barrier faults and power-loss modeling (DESIGN.md section 18):
// Sync is a faultable op, and set_track_unsynced + CrashLoseUnsynced models
// the fsync-barrier tear — a crash drops EVERY write since the last
// successful barrier, the multi-page analogue of a torn single-page write.

// Stamps every byte of page `id` with `value` through the wrapper.
Status StampPage(FaultInjectingDiskManager& disk, io::PageId id,
                 uint8_t value) {
  io::Page page(disk.page_size());
  std::fill(page.data(), page.data() + page.size(), value);
  return disk.WritePage(id, page);
}

// Reads page `id` with injection paused and returns byte 0.
uint8_t PeekByte(FaultInjectingDiskManager& disk, io::PageId id) {
  const bool was = disk.enabled();
  disk.set_enabled(false);
  io::Page page(disk.page_size());
  SEGDB_CHECK(disk.PeekPage(id, &page).ok());
  disk.set_enabled(was);
  return page.data()[0];
}

TEST(FaultInjectionTest, SyncIsFaultableAndCountsAsAnOp) {
  FaultPlan plan;
  plan.sync_fault_rate = 1.0;
  FaultInjectingDiskManager disk(256, plan);
  EXPECT_EQ(disk.Sync().code(), StatusCode::kIoError);
  EXPECT_EQ(disk.ops_seen(), 1u);
  EXPECT_EQ(disk.faults_injected(), 1u);
  // A scheduled one-shot hits a Sync like any other faultable op.
  disk.ResetPlan(FaultPlan{});
  disk.ScheduleFailAtOp(2);
  EXPECT_TRUE(disk.Sync().ok());                            // op 1
  EXPECT_EQ(disk.Sync().code(), StatusCode::kIoError);      // op 2
  EXPECT_TRUE(disk.Sync().ok());                            // one-shot spent
}

TEST(FaultInjectionTest, CrashLoseUnsyncedDropsWritesSinceLastBarrier) {
  FaultInjectingDiskManager disk(256, FaultPlan{});
  disk.set_enabled(false);
  const io::PageId a = disk.AllocatePage().value();
  const io::PageId b = disk.AllocatePage().value();
  disk.set_enabled(true);
  disk.set_track_unsynced(true);

  // Epoch 1: both pages stamped, then a successful barrier.
  ASSERT_TRUE(StampPage(disk, a, 0x11).ok());
  ASSERT_TRUE(StampPage(disk, b, 0x22).ok());
  EXPECT_EQ(disk.unsynced_pages(), 2u);
  ASSERT_TRUE(disk.Sync().ok());
  EXPECT_EQ(disk.unsynced_pages(), 0u);

  // Epoch 2: only `a` rewritten (twice — one snapshot per page), no barrier.
  ASSERT_TRUE(StampPage(disk, a, 0x33).ok());
  ASSERT_TRUE(StampPage(disk, a, 0x44).ok());
  EXPECT_EQ(disk.unsynced_pages(), 1u);

  disk.CrashLoseUnsynced();
  // `a` rolls back to its barrier-time bytes; `b` was synced and survives.
  EXPECT_EQ(PeekByte(disk, a), 0x11);
  EXPECT_EQ(PeekByte(disk, b), 0x22);
  EXPECT_EQ(disk.unsynced_pages(), 0u);
}

TEST(FaultInjectionTest, FaultedBarrierKeepsSnapshotsArmed) {
  FaultInjectingDiskManager disk(256, FaultPlan{});
  disk.set_enabled(false);
  const io::PageId a = disk.AllocatePage().value();
  disk.set_enabled(true);
  disk.set_track_unsynced(true);

  ASSERT_TRUE(StampPage(disk, a, 0x55).ok());
  // The barrier FAILS: the durability point did not happen, so the write
  // before it is just as vulnerable as the write after it.
  disk.ScheduleFailAtOp(1);
  ASSERT_EQ(disk.Sync().code(), StatusCode::kIoError);
  ASSERT_TRUE(StampPage(disk, a, 0x66).ok());
  EXPECT_EQ(disk.unsynced_pages(), 1u);

  disk.CrashLoseUnsynced();
  EXPECT_EQ(PeekByte(disk, a), 0x00);  // all the way back to pre-0x55 zeros
}

TEST(FaultInjectionTest, ScheduleTornFailAtOpTearsWritesAndFailsReadsClean) {
  FaultInjectingDiskManager disk(256, FaultPlan{});
  disk.set_enabled(false);
  const io::PageId id = disk.AllocatePage().value();
  disk.set_enabled(true);

  // Scheduled at a write: a non-empty strict prefix lands, then kIoError.
  disk.ScheduleTornFailAtOp(1);
  EXPECT_EQ(StampPage(disk, id, 0xCD).code(), StatusCode::kIoError);
  disk.set_enabled(false);
  io::Page stored(disk.page_size());
  ASSERT_TRUE(disk.PeekPage(id, &stored).ok());
  EXPECT_EQ(stored.data()[0], 0xCD);
  EXPECT_EQ(stored.data()[stored.size() - 1], 0x00);
  disk.set_enabled(true);

  // Scheduled at a read: fails cleanly, mutates nothing.
  disk.ScheduleTornFailAtOp(1);
  io::Page out(disk.page_size());
  EXPECT_EQ(disk.ReadPage(id, &out).code(), StatusCode::kIoError);
  EXPECT_EQ(disk.faults_injected(), 2u);
  disk.set_enabled(false);
  io::Page again(disk.page_size());
  ASSERT_TRUE(disk.PeekPage(id, &again).ok());
  EXPECT_EQ(again.data()[0], 0xCD);  // torn prefix from before, untouched
}

TEST(FaultInjectionTest, BarrierTearRestoresEvenTornPages) {
  FaultInjectingDiskManager disk(256, FaultPlan{});
  disk.set_enabled(false);
  const io::PageId id = disk.AllocatePage().value();
  disk.set_enabled(true);
  disk.set_track_unsynced(true);

  ASSERT_TRUE(StampPage(disk, id, 0x77).ok());
  ASSERT_TRUE(disk.Sync().ok());
  // A torn write after the barrier: the prefix lands on the platter, but
  // the pre-image snapshot was taken first — power loss undoes the tear.
  disk.ScheduleTornFailAtOp(1);
  ASSERT_EQ(StampPage(disk, id, 0x88).code(), StatusCode::kIoError);
  EXPECT_EQ(PeekByte(disk, id), 0x88);
  disk.CrashLoseUnsynced();
  EXPECT_EQ(PeekByte(disk, id), 0x77);
}

// ---------------------------------------------------------------------------
// Buffer-pool failure paths (PR 5 regressions).

class PoolFaultTest : public ::testing::Test {
 protected:
  PoolFaultTest() : disk_(256, FaultPlan{}), pool_(&disk_, 8) {
    disk_.set_enabled(false);
  }

  // Creates `n` pages, each stamped with its ordinal, flushed and evicted.
  std::vector<io::PageId> MakePages(int n) {
    std::vector<io::PageId> ids;
    for (int i = 0; i < n; ++i) {
      auto ref = pool_.NewPage();
      EXPECT_TRUE(ref.ok());
      ref.value().page().WriteAt<uint32_t>(0, static_cast<uint32_t>(i));
      ref.value().MarkDirty();
      ids.push_back(ref.value().page_id());
    }
    EXPECT_TRUE(pool_.FlushAll().ok());
    EXPECT_TRUE(pool_.EvictAll().ok());
    return ids;
  }

  void Arm(double read_rate, double alloc_rate, uint64_t seed = 11) {
    FaultPlan plan;
    plan.seed = seed;
    plan.read_fault_rate = read_rate;
    plan.alloc_fault_rate = alloc_rate;
    disk_.ResetPlan(plan);
    disk_.set_enabled(true);
  }

  FaultInjectingDiskManager disk_;
  io::BufferPool pool_;
};

TEST_F(PoolFaultTest, FetchReadFailureReleasesTheGrabbedFrame) {
  const auto ids = MakePages(4);

  // 20 failed fetches through an 8-frame pool: a leaked frame per failure
  // would exhaust the pool long before the loop ends.
  for (int round = 0; round < 20; ++round) {
    Arm(1.0, 0.0, /*seed=*/round + 1);
    auto ref = pool_.Fetch(ids[round % ids.size()]);
    EXPECT_EQ(ref.status().code(), StatusCode::kIoError);
    disk_.set_enabled(false);
    ASSERT_TRUE(pool_.CheckInvariants().ok());
  }
  EXPECT_TRUE(pool_.EvictAll().ok());
  for (size_t i = 0; i < ids.size(); ++i) {
    auto ref = pool_.Fetch(ids[i]);
    ASSERT_TRUE(ref.ok());
    EXPECT_EQ(ref.value().page().ReadAt<uint32_t>(0), i);
  }
}

TEST_F(PoolFaultTest, NewPageAllocFailureLeaksNothing) {
  for (int round = 0; round < 20; ++round) {
    Arm(0.0, 1.0, /*seed=*/round + 1);
    auto ref = pool_.NewPage();
    EXPECT_EQ(ref.status().code(), StatusCode::kIoError);
    disk_.set_enabled(false);
    ASSERT_TRUE(pool_.CheckInvariants().ok());
  }
  auto ref = pool_.NewPage();  // pool still fully usable
  EXPECT_TRUE(ref.ok());
}

// ---------------------------------------------------------------------------
// Satellite 2: exhaustive fail-at-op-k sweeps over every mutation and
// cold-query path of the two paper structures.

struct IndexMaker {
  const char* label;
  std::unique_ptr<SegmentIndex> (*make)(io::BufferPool*);
};

std::unique_ptr<SegmentIndex> MakeBinary(io::BufferPool* pool) {
  return std::make_unique<core::TwoLevelBinaryIndex>(pool);
}
std::unique_ptr<SegmentIndex> MakeInterval(io::BufferPool* pool) {
  return std::make_unique<core::TwoLevelIntervalIndex>(pool);
}

class IndexFaultSweepTest : public ::testing::TestWithParam<IndexMaker> {
 protected:
  IndexFaultSweepTest() : disk_(1024, FaultPlan{}), pool_(&disk_, 4096) {
    disk_.set_enabled(false);
    index_ = GetParam().make(&pool_);
  }

  // Fails the k-th disk op of `attempt` for k = 1, 2, ... until the op
  // runs to completion; `on_failure` checks the structure after each
  // injected failure. Returns the number of failure points exercised.
  uint64_t Sweep(const std::function<Status()>& attempt,
                 const std::function<void(uint64_t k)>& on_failure) {
    for (uint64_t k = 1;; ++k) {
      SEGDB_CHECK(k < 200000) << "sweep did not terminate";
      disk_.ResetPlan(FaultPlan{});  // zero rates; clears old schedules
      disk_.ScheduleFailAtOp(k);
      disk_.set_enabled(true);
      const Status s = attempt();
      disk_.set_enabled(false);
      if (s.ok()) return k - 1;
      EXPECT_EQ(s.code(), StatusCode::kIoError) << s.ToString();
      on_failure(k);
    }
  }

  void ExpectMatchesOracle(const baseline::OracleIndex& oracle,
                           const workload::BoundingBox& box) {
    for (int64_t x0 = box.xmin; x0 <= box.xmax;
         x0 += std::max<int64_t>(1, (box.xmax - box.xmin) / 13)) {
      const auto q = VerticalSegmentQuery::Line(x0);
      std::vector<Segment> got, want;
      ASSERT_TRUE(index_->Query(q, &got).ok());
      ASSERT_TRUE(oracle.Query(q, &want).ok());
      auto ids = [](std::vector<Segment> v) {
        std::vector<uint64_t> out;
        for (const auto& s : v) out.push_back(s.id);
        std::sort(out.begin(), out.end());
        return out;
      };
      EXPECT_EQ(ids(got), ids(want)) << "x0=" << x0;
    }
  }

  FaultInjectingDiskManager disk_;
  io::BufferPool pool_;
  std::unique_ptr<SegmentIndex> index_;
};

TEST_P(IndexFaultSweepTest, BulkLoadFaultAtEveryOpLeavesOldContents) {
  Rng rng(5);
  const auto universe = workload::GenMapLayer(rng, 260, 30000);
  const auto box = workload::ComputeBoundingBox(universe);
  const std::vector<Segment> a(universe.begin(), universe.begin() + 120);
  const std::vector<Segment> b(universe.begin() + 120, universe.end());

  baseline::OracleIndex oracle_a, oracle_b;
  ASSERT_TRUE(oracle_a.BulkLoad(a).ok());
  ASSERT_TRUE(oracle_b.BulkLoad(b).ok());
  ASSERT_TRUE(index_->BulkLoad(a).ok());

  const uint64_t failures = Sweep(
      [&] { return index_->BulkLoad(b); },
      [&](uint64_t k) {
        ASSERT_TRUE(index_->CheckInvariants().ok()) << "after op " << k;
        ASSERT_EQ(index_->size(), a.size()) << "after op " << k;
        if (k % 16 == 1) ExpectMatchesOracle(oracle_a, box);
      });
  EXPECT_GT(failures, 0u);  // a bulk load certainly allocates
  EXPECT_EQ(index_->size(), b.size());
  ASSERT_TRUE(index_->CheckInvariants().ok());
  ExpectMatchesOracle(oracle_b, box);
}

TEST_P(IndexFaultSweepTest, InsertFaultAtEveryOpIsAtomicAndRetryable) {
  Rng rng(6);
  const auto universe = workload::GenMapLayer(rng, 300, 30000);
  const auto box = workload::ComputeBoundingBox(universe);
  const std::vector<Segment> initial(universe.begin(), universe.begin() + 150);

  baseline::OracleIndex oracle;
  ASSERT_TRUE(oracle.BulkLoad(initial).ok());
  ASSERT_TRUE(index_->BulkLoad(initial).ok());

  uint64_t failures = 0;
  for (size_t i = 150; i < universe.size(); ++i) {
    const Segment& s = universe[i];
    const uint64_t before = index_->size();
    failures += Sweep(
        [&] { return index_->Insert(s); },
        [&](uint64_t k) {
          ASSERT_TRUE(index_->CheckInvariants().ok())
              << "insert " << s.id << " op " << k;
          ASSERT_EQ(index_->size(), before) << "insert " << s.id;
        });
    ASSERT_EQ(index_->size(), before + 1);
    ASSERT_TRUE(oracle.Insert(s).ok());
  }
  EXPECT_GT(failures, 0u);  // inserts allocate (leaf rewrites, splits...)
  ASSERT_TRUE(index_->CheckInvariants().ok());
  ExpectMatchesOracle(oracle, box);
}

TEST_P(IndexFaultSweepTest, EraseFaultAtEveryOpIsAtomicAndRetryable) {
  Rng rng(7);
  const auto universe = workload::GenMapLayer(rng, 300, 30000);
  const auto box = workload::ComputeBoundingBox(universe);

  baseline::OracleIndex oracle;
  ASSERT_TRUE(oracle.BulkLoad(universe).ok());
  ASSERT_TRUE(index_->BulkLoad(universe).ok());

  // Erase every third segment; sweep each erase's failure points.
  for (size_t i = 0; i < universe.size(); i += 3) {
    const Segment& s = universe[i];
    const uint64_t before = index_->size();
    Sweep(
        [&] { return index_->Erase(s); },
        [&](uint64_t k) {
          ASSERT_TRUE(index_->CheckInvariants().ok())
              << "erase " << s.id << " op " << k;
          ASSERT_EQ(index_->size(), before) << "erase " << s.id;
        });
    ASSERT_EQ(index_->size(), before - 1);
    ASSERT_TRUE(oracle.Erase(s).ok());
  }
  ASSERT_TRUE(index_->CheckInvariants().ok());
  ExpectMatchesOracle(oracle, box);
}

TEST_P(IndexFaultSweepTest, ColdQueryFaultAtEveryOpFailsCleanAndRetries) {
  Rng rng(8);
  const auto universe = workload::GenMapLayer(rng, 200, 30000);
  const auto box = workload::ComputeBoundingBox(universe);

  baseline::OracleIndex oracle;
  ASSERT_TRUE(oracle.BulkLoad(universe).ok());
  ASSERT_TRUE(index_->BulkLoad(universe).ok());

  const auto q =
      VerticalSegmentQuery::Line((box.xmin + box.xmax) / 2);
  std::vector<Segment> want;
  ASSERT_TRUE(oracle.Query(q, &want).ok());
  std::vector<uint64_t> want_ids;
  for (const auto& s : want) want_ids.push_back(s.id);
  std::sort(want_ids.begin(), want_ids.end());
  ASSERT_GT(want_ids.size(), 0u);

  const uint64_t failures = Sweep(
      [&] {
        // Cold cache each attempt so the k-th *read* is reachable.
        SEGDB_RETURN_IF_ERROR(pool_.EvictAll());
        std::vector<Segment> got;
        return index_->Query(q, &got);
      },
      [&](uint64_t k) {
        // A failed query must leave the structure readable: the paused
        // retry answers exactly.
        std::vector<Segment> got;
        ASSERT_TRUE(index_->Query(q, &got).ok()) << "retry after op " << k;
        std::vector<uint64_t> ids;
        for (const auto& s : got) ids.push_back(s.id);
        std::sort(ids.begin(), ids.end());
        ASSERT_EQ(ids, want_ids) << "retry after op " << k;
      });
  EXPECT_GT(failures, 0u);  // a cold query certainly reads
}

INSTANTIATE_TEST_SUITE_P(Indexes, IndexFaultSweepTest,
                         ::testing::Values(
                             IndexMaker{"two_level_binary", &MakeBinary},
                             IndexMaker{"two_level_interval", &MakeInterval}),
                         [](const auto& info) {
                           return std::string(info.param.label);
                         });

// ---------------------------------------------------------------------------
// Satellite 3: QueryEngine partial failure.

// Delegates to an oracle but fails selected queries (by x0) with a status
// naming the query — deterministic under any thread count.
class FlakyQueryIndex final : public SegmentIndex {
 public:
  FlakyQueryIndex(const baseline::OracleIndex* oracle,
                  std::vector<int64_t> failing_x0)
      : oracle_(oracle), failing_x0_(std::move(failing_x0)) {}

  Status BulkLoad(std::span<const Segment>) override {
    return Status::InvalidArgument("read-only test double");
  }
  Status Insert(const Segment&) override {
    return Status::InvalidArgument("read-only test double");
  }
  Status Query(const VerticalSegmentQuery& query,
               std::vector<Segment>* out) const override {
    if (std::find(failing_x0_.begin(), failing_x0_.end(), query.x0) !=
        failing_x0_.end()) {
      return Status::IoError("flaky x0=" + std::to_string(query.x0));
    }
    return oracle_->Query(query, out);
  }
  uint64_t size() const override { return oracle_->size(); }
  uint64_t page_count() const override { return 0; }
  std::string name() const override { return "flaky-oracle"; }

 private:
  const baseline::OracleIndex* oracle_;
  std::vector<int64_t> failing_x0_;
};

TEST(QueryEngineFaultTest, ReturnsFirstFailureInBatchOrder) {
  Rng rng(9);
  const auto universe = workload::GenMapLayer(rng, 150, 20000);
  baseline::OracleIndex oracle;
  ASSERT_TRUE(oracle.BulkLoad(universe).ok());
  const auto box = workload::ComputeBoundingBox(universe);

  std::vector<VerticalSegmentQuery> batch;
  for (int64_t i = 0; i < 16; ++i) {
    batch.push_back(VerticalSegmentQuery::Line(box.xmin + i));
  }
  // Failures at batch positions 11, 3 and 7: position 3 must win.
  const FlakyQueryIndex flaky(
      &oracle, {box.xmin + 11, box.xmin + 3, box.xmin + 7});

  for (uint32_t threads : {1u, 4u}) {
    core::QueryEngine engine({.threads = threads});
    std::vector<std::vector<Segment>> results;
    const Status s = engine.QueryBatch(flaky, batch, &results);
    ASSERT_FALSE(s.ok()) << "threads=" << threads;
    EXPECT_NE(s.ToString().find("x0=" + std::to_string(box.xmin + 3)),
              std::string::npos)
        << "threads=" << threads << ": " << s.ToString();
  }
}

TEST(QueryEngineFaultTest, SingleThreadIsBitIdenticalToSerialUnderFaults) {
  Rng rng(10);
  const auto universe = workload::GenMapLayer(rng, 200, 20000);
  const auto box = workload::ComputeBoundingBox(universe);

  FaultInjectingDiskManager disk(1024, FaultPlan{});
  disk.set_enabled(false);
  io::BufferPool pool(&disk, 4096);
  core::TwoLevelIntervalIndex index(&pool);
  ASSERT_TRUE(index.BulkLoad(universe).ok());

  std::vector<VerticalSegmentQuery> batch;
  for (int64_t i = 0; i < 24; ++i) {
    batch.push_back(VerticalSegmentQuery::Line(
        box.xmin + i * std::max<int64_t>(1, (box.xmax - box.xmin) / 24)));
  }

  FaultPlan plan;
  plan.seed = 123;
  plan.read_fault_rate = 0.05;

  // Serial reference: plain Query loop over a cold cache.
  ASSERT_TRUE(pool.EvictAll().ok());
  disk.ResetPlan(plan);
  disk.set_enabled(true);
  Status serial_status;
  std::vector<std::vector<Segment>> serial(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    serial_status = index.Query(batch[i], &serial[i]);
    if (!serial_status.ok()) break;
  }
  disk.set_enabled(false);
  const uint64_t serial_ops = disk.ops_seen();

  // Engine with threads=1 over an identically reset device and cache.
  ASSERT_TRUE(pool.EvictAll().ok());
  disk.ResetPlan(plan);
  disk.set_enabled(true);
  core::QueryEngine engine({.threads = 1});
  std::vector<std::vector<Segment>> engine_results;
  const Status engine_status = engine.QueryBatch(index, batch,
                                                 &engine_results);
  disk.set_enabled(false);

  // Codes must match; messages embed the device's lifetime op counter
  // (kept across ResetPlan by design), so they are not compared.
  EXPECT_EQ(engine_status.code(), serial_status.code());
  // Same fault stream, same op sequence: identical disk-op counts, and
  // identical per-query answers up to the first failure (if any).
  EXPECT_EQ(disk.ops_seen(), serial_ops * 2);
  for (size_t i = 0; i < batch.size(); ++i) {
    if (!serial_status.ok() && serial[i].empty() && engine_results[i].empty())
      continue;
    EXPECT_EQ(engine_results[i], serial[i]) << "query " << i;
  }
}

}  // namespace
}  // namespace segdb
