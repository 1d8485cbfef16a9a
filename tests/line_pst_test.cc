#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "geom/nct.h"
#include "geom/predicates.h"
#include "io/buffer_pool.h"
#include "io/disk_manager.h"
#include "pst/line_pst.h"
#include "util/math.h"
#include "util/random.h"
#include "workload/generators.h"

namespace segdb::pst {
namespace {

using geom::Segment;

// Sorted (id) view for order-insensitive comparison.
std::vector<uint64_t> Ids(const std::vector<Segment>& segs) {
  std::vector<uint64_t> ids;
  ids.reserve(segs.size());
  for (const Segment& s : segs) ids.push_back(s.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

// Oracle: brute-force filter restricted to the stored half-plane geometry.
std::vector<uint64_t> OracleIds(const std::vector<Segment>& segs, int64_t qx,
                                int64_t ylo, int64_t yhi) {
  std::vector<uint64_t> ids;
  for (const Segment& s : segs) {
    if (geom::IntersectsVerticalSegment(s, qx, ylo, yhi)) ids.push_back(s.id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

struct PstConfig {
  uint32_t page_size;
  uint32_t fanout;  // 0 = auto packed
};

class LinePstTest : public ::testing::TestWithParam<PstConfig> {
 protected:
  LinePstTest()
      : disk_(GetParam().page_size), pool_(&disk_, 512) {}

  LinePstOptions Opts() const {
    LinePstOptions o;
    o.fanout = GetParam().fanout;
    return o;
  }

  io::SimDiskManager disk_;
  io::BufferPool pool_;
};

TEST_P(LinePstTest, EmptyTreeQueries) {
  LinePst pst(&pool_, 0, Direction::kRight, Opts());
  std::vector<Segment> out;
  ASSERT_TRUE(pst.Query(10, -5, 5, &out).ok());
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(pst.CheckInvariants().ok());
}

TEST_P(LinePstTest, RejectsWrongHalfPlaneQuery) {
  LinePst pst(&pool_, 100, Direction::kRight, Opts());
  std::vector<Segment> out;
  EXPECT_FALSE(pst.Query(99, 0, 1, &out).ok());
  LinePst left(&pool_, 100, Direction::kLeft, Opts());
  EXPECT_FALSE(left.Query(101, 0, 1, &out).ok());
}

TEST_P(LinePstTest, RejectsNonCrossingInput) {
  LinePst pst(&pool_, 0, Direction::kRight, Opts());
  // Entirely right of the base line: does not touch it.
  EXPECT_FALSE(pst.Insert(Segment::Make({5, 0}, {10, 3}, 1)).ok());
  // Vertical on the base line belongs to a C structure, not the PST.
  EXPECT_FALSE(pst.Insert(Segment::Make({0, 0}, {0, 5}, 2)).ok());
  // Extends the wrong way.
  EXPECT_FALSE(pst.Insert(Segment::Make({-9, 0}, {0, 1}, 3)).ok());
}

TEST_P(LinePstTest, SmallHandQueries) {
  LinePst pst(&pool_, 0, Direction::kRight, Opts());
  std::vector<Segment> segs = {
      Segment::Make({0, 0}, {100, 0}, 1),    // flat long
      Segment::Make({0, 10}, {50, 60}, 2),   // rising mid
      Segment::Make({0, 20}, {10, 20}, 3),   // flat short
      Segment::Make({0, -10}, {80, -90}, 4)  // falling long
  };
  ASSERT_TRUE(pst.BulkLoad(segs).ok());
  ASSERT_TRUE(pst.CheckInvariants().ok());

  std::vector<Segment> out;
  ASSERT_TRUE(pst.Query(5, -5, 25, &out).ok());
  EXPECT_EQ(Ids(out), (std::vector<uint64_t>{1, 2, 3}));

  out.clear();
  ASSERT_TRUE(pst.Query(60, -100, 100, &out).ok());
  EXPECT_EQ(Ids(out), (std::vector<uint64_t>{1, 4}));

  out.clear();
  ASSERT_TRUE(pst.Query(100, 0, 0, &out).ok());  // exact endpoint touch
  EXPECT_EQ(Ids(out), (std::vector<uint64_t>{1}));

  out.clear();
  ASSERT_TRUE(pst.Query(5, 100, 200, &out).ok());  // above everything
  EXPECT_TRUE(out.empty());
}

TEST_P(LinePstTest, BulkLoadMatchesOracleOnRandomSets) {
  Rng rng(77);
  for (int round = 0; round < 3; ++round) {
    auto segs = workload::GenLineBasedRepaired(rng, 400, 0, 2000);
    ASSERT_TRUE(geom::ValidateNct(segs).ok());
    LinePst pst(&pool_, 0, Direction::kRight, Opts());
    ASSERT_TRUE(pst.BulkLoad(segs).ok());
    ASSERT_TRUE(pst.CheckInvariants().ok());
    EXPECT_EQ(pst.size(), segs.size());
    for (int q = 0; q < 50; ++q) {
      const int64_t qx = rng.UniformInt(0, 2100);
      const int64_t ylo = rng.UniformInt(-500, 6000);
      const int64_t yhi = ylo + rng.UniformInt(0, 800);
      std::vector<Segment> out;
      ASSERT_TRUE(pst.Query(qx, ylo, yhi, &out).ok());
      EXPECT_EQ(Ids(out), OracleIds(segs, qx, ylo, yhi))
          << "round " << round << " qx=" << qx << " y=[" << ylo << ","
          << yhi << "]";
    }
  }
}

TEST_P(LinePstTest, FanWorkloadTieBreaksCorrectly) {
  Rng rng(5);
  auto segs = workload::GenLineBasedFan(rng, 300, 10, 1500);
  LinePst pst(&pool_, 10, Direction::kRight, Opts());
  ASSERT_TRUE(pst.BulkLoad(segs).ok());
  ASSERT_TRUE(pst.CheckInvariants().ok());
  for (int q = 0; q < 40; ++q) {
    const int64_t qx = 10 + rng.UniformInt(0, 1600);
    const int64_t ylo = rng.UniformInt(-2000, 8000);
    const int64_t yhi = ylo + rng.UniformInt(0, 2000);
    std::vector<Segment> out;
    ASSERT_TRUE(pst.Query(qx, ylo, yhi, &out).ok());
    EXPECT_EQ(Ids(out), OracleIds(segs, qx, ylo, yhi));
  }
}

TEST_P(LinePstTest, LeftDirectionMirrors) {
  Rng rng(6);
  // Build a right-extending set, mirror it into a left-extending one.
  auto right = workload::GenLineBasedRepaired(rng, 200, 0, 1000);
  std::vector<Segment> left;
  for (const Segment& s : right) left.push_back(geom::MirrorX(s, 0));
  LinePst pst(&pool_, 0, Direction::kLeft, Opts());
  ASSERT_TRUE(pst.BulkLoad(left).ok());
  ASSERT_TRUE(pst.CheckInvariants().ok());
  for (int q = 0; q < 40; ++q) {
    const int64_t qx = -rng.UniformInt(0, 1100);
    const int64_t ylo = rng.UniformInt(-500, 4000);
    const int64_t yhi = ylo + rng.UniformInt(0, 700);
    std::vector<Segment> out;
    ASSERT_TRUE(pst.Query(qx, ylo, yhi, &out).ok());
    EXPECT_EQ(Ids(out), OracleIds(left, qx, ylo, yhi));
    // Reported segments must be the originals, not mirror images.
    for (const Segment& s : out) {
      EXPECT_TRUE(geom::IntersectsVerticalSegment(s, qx, ylo, yhi));
    }
  }
}

TEST_P(LinePstTest, QueryOnBaseLine) {
  Rng rng(7);
  auto segs = workload::GenLineBasedSorted(rng, 150, 42, 900);
  LinePst pst(&pool_, 42, Direction::kRight, Opts());
  ASSERT_TRUE(pst.BulkLoad(segs).ok());
  std::vector<Segment> out;
  ASSERT_TRUE(pst.Query(42, -10000, 10000, &out).ok());
  EXPECT_EQ(out.size(), segs.size());  // every segment touches its base
}

TEST_P(LinePstTest, InsertOnlyMatchesOracle) {
  Rng rng(8);
  auto segs = workload::GenLineBasedRepaired(rng, 300, 0, 1500);
  LinePst pst(&pool_, 0, Direction::kRight, Opts());
  for (const Segment& s : segs) ASSERT_TRUE(pst.Insert(s).ok());
  ASSERT_TRUE(pst.CheckInvariants().ok());
  EXPECT_EQ(pst.size(), segs.size());
  std::vector<Segment> all;
  ASSERT_TRUE(pst.CollectAll(&all).ok());
  EXPECT_EQ(Ids(all).size(), segs.size());
  for (int q = 0; q < 60; ++q) {
    const int64_t qx = rng.UniformInt(0, 1600);
    const int64_t ylo = rng.UniformInt(-500, 5000);
    const int64_t yhi = ylo + rng.UniformInt(0, 600);
    std::vector<Segment> out;
    ASSERT_TRUE(pst.Query(qx, ylo, yhi, &out).ok());
    EXPECT_EQ(Ids(out), OracleIds(segs, qx, ylo, yhi)) << "q " << q;
  }
}

TEST_P(LinePstTest, MixedBulkThenInsert) {
  Rng rng(9);
  // One NCT family, half bulk-loaded and half inserted (a mixture of two
  // independently generated families could cross between families).
  auto all = workload::GenLineBasedRepaired(rng, 350, 0, 1200);
  ASSERT_TRUE(geom::ValidateNct(all).ok());
  std::vector<Segment> initial(all.begin(), all.begin() + 200);
  LinePst pst(&pool_, 0, Direction::kRight, Opts());
  ASSERT_TRUE(pst.BulkLoad(initial).ok());
  for (size_t i = 200; i < all.size(); ++i) {
    ASSERT_TRUE(pst.Insert(all[i]).ok());
  }
  ASSERT_TRUE(pst.CheckInvariants().ok());
  for (int q = 0; q < 50; ++q) {
    const int64_t qx = rng.UniformInt(0, 1300);
    const int64_t ylo = rng.UniformInt(-1000, 9000);
    const int64_t yhi = ylo + rng.UniformInt(0, 1500);
    std::vector<Segment> out;
    ASSERT_TRUE(pst.Query(qx, ylo, yhi, &out).ok());
    EXPECT_EQ(Ids(out), OracleIds(all, qx, ylo, yhi));
  }
}

TEST_P(LinePstTest, ClearReleasesPages) {
  Rng rng(10);
  const uint64_t before = disk_.pages_in_use();
  LinePst pst(&pool_, 0, Direction::kRight, Opts());
  auto segs = workload::GenLineBasedSorted(rng, 500, 0, 800);
  ASSERT_TRUE(pst.BulkLoad(segs).ok());
  EXPECT_GT(disk_.pages_in_use(), before);
  ASSERT_TRUE(pst.Clear().ok());
  EXPECT_EQ(disk_.pages_in_use(), before);
  EXPECT_EQ(pst.size(), 0u);
  EXPECT_EQ(pst.page_count(), 0u);
}

TEST_P(LinePstTest, SpaceIsLinear) {
  Rng rng(11);
  auto segs = workload::GenLineBasedSorted(rng, 3000, 0, 5000);
  LinePst pst(&pool_, 0, Direction::kRight, Opts());
  ASSERT_TRUE(pst.BulkLoad(segs).ok());
  // Packed build: every node holds cap - slack records except on the
  // rightmost path, which has at most one partial node per level.
  const uint64_t fill = pst.node_capacity() - pst.insert_slack();
  const uint64_t packed = CeilDiv(3000, fill);
  uint64_t height = 0;
  for (uint64_t t = packed; t > 0; t = CeilDiv(t - 1, pst.fanout())) {
    ++height;
  }
  EXPECT_LE(pst.page_count(), packed + height);
}

TEST_P(LinePstTest, InsertSlackDefersNewPages) {
  // Horizontal segments never cross. The loaded ones reach >= 100; the
  // inserted ones reach 1 and lie below all of them in base order, so each
  // insert routes down the leftmost path and stays in the first node on it
  // that has room.
  const auto horizontal = [](int64_t y, int64_t reach, uint64_t id) {
    return Segment::Make({0, y}, {reach, y}, id);
  };
  LinePst probe(&pool_, 0, Direction::kRight, Opts());
  const uint64_t fill = probe.node_capacity() - probe.insert_slack();
  ASSERT_GT(probe.insert_slack(), 0u);
  // One node; then a root over `fanout` children of two nodes each, every
  // node full to `fill`, with the leftmost path three nodes deep.
  const uint64_t two_level = 1 + 2 * uint64_t{probe.fanout()};
  for (const auto& [nodes, depth] :
       {std::pair<uint64_t, uint64_t>{1, 1}, {two_level, 3}}) {
    LinePst pst(&pool_, 0, Direction::kRight, Opts());
    std::vector<Segment> segs;
    for (uint64_t i = 0; i < nodes * fill; ++i) {
      segs.push_back(horizontal(10 * static_cast<int64_t>(i),
                                100 + static_cast<int64_t>(i % 50), i));
    }
    ASSERT_TRUE(pst.BulkLoad(segs).ok());
    ASSERT_EQ(pst.page_count(), nodes);
    uint64_t id = 1 << 20;
    for (uint64_t i = 0; i < depth * pst.insert_slack(); ++i) {
      ASSERT_TRUE(
          pst.Insert(horizontal(-1 - static_cast<int64_t>(id), 1, id)).ok());
      ++id;
    }
    EXPECT_EQ(pst.page_count(), nodes) << "slack did not absorb the inserts";
    ASSERT_TRUE(
        pst.Insert(horizontal(-1 - static_cast<int64_t>(id), 1, id)).ok());
    EXPECT_EQ(pst.page_count(), nodes + 1);
    ASSERT_TRUE(pst.CheckInvariants().ok());
  }
}

TEST_P(LinePstTest, RayAndLineQueries) {
  Rng rng(12);
  auto segs = workload::GenLineBasedRepaired(rng, 250, 0, 1000);
  LinePst pst(&pool_, 0, Direction::kRight, Opts());
  ASSERT_TRUE(pst.BulkLoad(segs).ok());
  // Line query: everything reaching qx.
  const int64_t qx = 400;
  std::vector<Segment> out;
  ASSERT_TRUE(pst.Query(qx, INT64_MIN / 4, INT64_MAX / 4, &out).ok());
  EXPECT_EQ(Ids(out), OracleIds(segs, qx, INT64_MIN / 4, INT64_MAX / 4));
  // Ray query (unbounded above).
  out.clear();
  ASSERT_TRUE(pst.Query(qx, 100, INT64_MAX / 4, &out).ok());
  EXPECT_EQ(Ids(out), OracleIds(segs, qx, 100, INT64_MAX / 4));
}

INSTANTIATE_TEST_SUITE_P(
    Configs, LinePstTest,
    ::testing::Values(PstConfig{512, 2}, PstConfig{512, 0},
                      PstConfig{4096, 2}, PstConfig{4096, 0},
                      PstConfig{1024, 4}),
    [](const auto& info) {
      return "page" + std::to_string(info.param.page_size) + "_fan" +
             std::to_string(info.param.fanout);
    });

// --- I/O-complexity shape checks (Lemma 2 / Lemma 3) ----------------------

TEST(LinePstIoTest, QueryIosLogarithmicForSmallOutput) {
  io::SimDiskManager disk(4096);
  io::BufferPool pool(&disk, 4096);
  Rng rng(13);
  auto segs = workload::GenLineBasedSorted(rng, 60000, 0, 100000);
  LinePstOptions opts;
  opts.fanout = 2;
  LinePst pst(&pool, 0, Direction::kRight, opts);
  ASSERT_TRUE(pst.BulkLoad(segs).ok());
  ASSERT_TRUE(pool.FlushAll().ok());

  uint64_t total_misses = 0, total_out = 0;
  const int kQueries = 30;
  for (int q = 0; q < kQueries; ++q) {
    const int64_t qx = rng.UniformInt(1, 100000);
    const int64_t ylo = rng.UniformInt(-100000, 100000);
    ASSERT_TRUE(pool.EvictAll().ok());
    pool.ResetStats();
    std::vector<Segment> out;
    ASSERT_TRUE(pst.Query(qx, ylo, ylo + 50, &out).ok());
    total_misses += pool.stats().misses;
    total_out += out.size();
  }
  const double avg = static_cast<double>(total_misses) / kQueries;
  // Binary PST: height ~ log2(60000/cap) ~ 10..11. The fence-pruned search
  // should stay within a small multiple of the height plus output pages.
  const double bound =
      4.0 * (std::log2(60000.0 / pst.node_capacity()) + 2) +
      static_cast<double>(total_out) / kQueries / pst.node_capacity() + 4;
  EXPECT_LT(avg, bound) << "avg misses " << avg << " out " << total_out;
}

TEST(LinePstIoTest, PackedFanoutBeatsBinary) {
  io::SimDiskManager disk(4096);
  io::BufferPool pool(&disk, 8192);
  Rng rng(14);
  auto segs = workload::GenLineBasedSorted(rng, 120000, 0, 100000);

  auto measure = [&](uint32_t fanout) {
    LinePstOptions opts;
    opts.fanout = fanout;
    LinePst pst(&pool, 0, Direction::kRight, opts);
    EXPECT_TRUE(pst.BulkLoad(segs).ok());
    EXPECT_TRUE(pool.FlushAll().ok());
    Rng qrng(15);
    uint64_t misses = 0;
    for (int q = 0; q < 30; ++q) {
      const int64_t qx = qrng.UniformInt(1, 100000);
      const int64_t ylo = qrng.UniformInt(-100000, 100000);
      EXPECT_TRUE(pool.EvictAll().ok());
      pool.ResetStats();
      std::vector<Segment> out;
      EXPECT_TRUE(pst.Query(qx, ylo, ylo + 10, &out).ok());
      misses += pool.stats().misses;
    }
    return misses;
  };

  const uint64_t binary = measure(2);
  const uint64_t packed = measure(0);
  EXPECT_LT(packed, binary);
}

}  // namespace
}  // namespace segdb::pst
