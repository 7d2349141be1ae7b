/// Property tests for the sparse redistribution pricer: on randomized
/// moves — including degenerate one-row / one-column rectangles — across
/// all four interconnect models, redistribution_cost() must reproduce the
/// retired dense sender×receiver walk (redistribution_cost_dense()) on
/// every RedistCostSummary field, EXPECT_EQ / bit-for-bit, floats
/// included. A second group pins the asymptotic: intersection probes per
/// query grow logarithmically in P, and identity moves enumerate nothing.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/machine.hpp"
#include "redist/block_decomp.hpp"
#include "redist/interval_index.hpp"
#include "redist/redistributor.hpp"
#include "util/rng.hpp"

namespace stormtrack {
namespace {

Rect random_rect(Xoshiro256& rng, int grid_px, int grid_py) {
  const int w = static_cast<int>(rng.uniform_int(1, grid_px));
  const int h = static_cast<int>(rng.uniform_int(1, grid_py));
  return Rect{static_cast<int>(rng.uniform_int(0, grid_px - w)),
              static_cast<int>(rng.uniform_int(0, grid_py - h)), w, h};
}

/// Every few trials, degenerate single-row / single-column rectangles (the
/// shapes most likely to hit empty receiver blocks and off-by-one owner
/// lookups).
Rect random_rect_maybe_degenerate(Xoshiro256& rng, int grid_px, int grid_py,
                                  int trial) {
  if (trial % 5 == 3) {
    const int h = static_cast<int>(rng.uniform_int(1, grid_py));
    return Rect{static_cast<int>(rng.uniform_int(0, grid_px - 1)),
                static_cast<int>(rng.uniform_int(0, grid_py - h)), 1, h};
  }
  if (trial % 5 == 4) {
    const int w = static_cast<int>(rng.uniform_int(1, grid_px));
    return Rect{static_cast<int>(rng.uniform_int(0, grid_px - w)),
                static_cast<int>(rng.uniform_int(0, grid_py - 1)), w, 1};
  }
  return random_rect(rng, grid_px, grid_py);
}

void expect_matches_dense(const NestShape& nest, const Rect& a, const Rect& b,
                          int grid_px, int bpp, const SimComm* comm) {
  const RedistCostSummary sparse =
      redistribution_cost(nest, a, b, grid_px, bpp, comm);
  const RedistCostSummary dense =
      redistribution_cost_dense(nest, a, b, grid_px, bpp, comm);
  EXPECT_EQ(sparse.total_points, dense.total_points);
  EXPECT_EQ(sparse.overlap_points, dense.overlap_points);
  EXPECT_EQ(sparse.total_bytes, dense.total_bytes);
  EXPECT_EQ(sparse.hop_bytes, dense.hop_bytes);
  EXPECT_EQ(sparse.local_bytes, dense.local_bytes);
  EXPECT_EQ(sparse.num_messages, dense.num_messages);
  EXPECT_EQ(sparse.max_hops, dense.max_hops);
  // Bit-identical, not approximately equal: the sparse path must visit the
  // moved blocks in the dense order so even the order-dependent
  // worst_sender_time float accumulation agrees exactly.
  EXPECT_EQ(sparse.worst_pair_time, dense.worst_pair_time);
  EXPECT_EQ(sparse.worst_sender_time, dense.worst_sender_time);
  EXPECT_EQ(sparse.phase_time, dense.phase_time);
  EXPECT_EQ(sparse.overlap_fraction(), dense.overlap_fraction());
}

void sweep_machine(const Machine& machine, std::uint64_t seed, int trials) {
  Xoshiro256 rng(seed);
  for (int trial = 0; trial < trials; ++trial) {
    const NestShape nest{static_cast<int>(rng.uniform_int(20, 361)),
                         static_cast<int>(rng.uniform_int(20, 361))};
    const Rect a = random_rect_maybe_degenerate(rng, machine.grid_px(),
                                                machine.grid_py(), trial);
    const Rect b = random_rect_maybe_degenerate(rng, machine.grid_px(),
                                                machine.grid_py(), trial + 1);
    expect_matches_dense(nest, a, b, machine.grid_px(), 8, &machine.comm());
    // Also a same-rect "identity" move every few trials — the diffusion
    // steady state, and the path that enumerates nothing in the sparse
    // pricer.
    if (trial % 4 == 0)
      expect_matches_dense(nest, a, a, machine.grid_px(), 8, &machine.comm());
  }
}

class SparseCostSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SparseCostSweep, MatchesDenseOnTorus) {
  sweep_machine(Machine::bluegene(256), GetParam(), 15);
}

TEST_P(SparseCostSweep, MatchesDenseOnSwitched) {
  sweep_machine(Machine::fist_cluster(128), GetParam() + 17, 15);
}

TEST_P(SparseCostSweep, MatchesDenseOnDragonfly) {
  sweep_machine(Machine::dragonfly(256), GetParam() + 29, 15);
}

TEST_P(SparseCostSweep, MatchesDenseOnFatTree) {
  sweep_machine(Machine::fattree(192), GetParam() + 43, 15);
}

// 4 seeds × 4 topologies × 15 trials (plus identity-move extras) > 240
// randomized equivalence cases.
INSTANTIATE_TEST_SUITE_P(Seeds, SparseCostSweep,
                         ::testing::Values(0x5eedULL, 0xabcdefULL,
                                           0x1234567ULL, 0xfeedbeefULL));

TEST(SparseCost, MatchesDenseWithoutCommunicator) {
  Xoshiro256 rng(0xd15ea5eULL);
  for (int trial = 0; trial < 40; ++trial) {
    const NestShape nest{static_cast<int>(rng.uniform_int(20, 361)),
                         static_cast<int>(rng.uniform_int(20, 361))};
    const Rect a = random_rect_maybe_degenerate(rng, 16, 16, trial);
    const Rect b = random_rect_maybe_degenerate(rng, 16, 16, trial + 1);
    expect_matches_dense(nest, a, b, 16, kDefaultBytesPerPoint, nullptr);
  }
}

// ------------------------------------------------------ interval index

TEST(BlockIntervalIndex, AgreesWithOverlappingPartsEverywhere) {
  Xoshiro256 rng(0x10deeULL);
  for (int trial = 0; trial < 400; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(1, 500));
    const int parts = static_cast<int>(rng.uniform_int(1, 64));
    const BlockIntervalIndex index(n, parts);
    const int lo = static_cast<int>(rng.uniform_int(0, n - 1));
    const int hi = static_cast<int>(rng.uniform_int(lo, n));
    std::int64_t probes = 0;
    const PartRange got = index.overlapping(lo, hi, &probes);
    const PartRange want = overlapping_parts(lo, hi, n, parts);
    EXPECT_EQ(got.first, want.first)
        << "n=" << n << " parts=" << parts << " [" << lo << "," << hi << ")";
    EXPECT_EQ(got.last, want.last)
        << "n=" << n << " parts=" << parts << " [" << lo << "," << hi << ")";
  }
}

TEST(BlockIntervalIndex, ProbesAreLogarithmicInParts) {
  // One owner lookup bisects over parts: <= ceil(log2(parts)) probes.
  for (int parts : {1, 2, 3, 64, 1000, 1024, 4096}) {
    const BlockIntervalIndex index(1 << 20, parts);
    int log2ceil = 0;
    while ((1 << log2ceil) < parts) ++log2ceil;
    std::int64_t probes = 0;
    (void)index.owner_of((1 << 20) - 1, &probes);
    EXPECT_LE(probes, log2ceil) << "parts=" << parts;
  }
}

// ------------------------------------------------------ probe asymptotics

/// Intersection probes for one pricing query on a P-rank machine.
std::int64_t probes_for(int cores) {
  const ProcessGridShape g = choose_process_grid(cores);
  const NestShape nest{300, 300};
  // A genuine off-diagonal move spanning a constant fraction of the grid.
  const Rect a{0, 0, g.px / 2, g.py / 2};
  const Rect b{g.px / 4, g.py / 4, g.px / 2, g.py / 2};
  const std::int64_t before = redist_counters().intersection_probes;
  (void)redistribution_cost(nest, a, b, g.px, 8);
  return redist_counters().intersection_probes - before;
}

TEST(SparseCost, ProbeCountGrowsSubLinearlyInRanks) {
  // Quadrupling P must not even double probes-per-query: the per-axis work
  // is O(√P · log P), so the ratio should hover near 2·(log factor), far
  // below the 4× a linear walk would show and the 16× of the dense walk.
  const std::int64_t p1 = probes_for(1024);
  const std::int64_t p2 = probes_for(4096);
  const std::int64_t p3 = probes_for(16384);
  EXPECT_LT(p2, p1 * 3);
  EXPECT_LT(p3, p2 * 3);
  EXPECT_GT(p1, 0);
}

TEST(SparseCost, IdentityMoveEnumeratesNoBlocks) {
  const Machine machine = Machine::bluegene(1024);
  const NestShape nest{400, 400};
  const Rect r{5, 3, 20, 17};
  const RedistCounters before = redist_counters();
  const RedistCostSummary sum =
      redistribution_cost(nest, r, r, machine.grid_px(), 8, &machine.comm());
  const RedistCounters after = redist_counters();
  EXPECT_EQ(sum.num_messages, 0);
  EXPECT_EQ(after.moved_blocks_enumerated, before.moved_blocks_enumerated);
  EXPECT_EQ(after.cost_queries, before.cost_queries + 1);
}

TEST(SparseCost, MovedBlockCounterMatchesPlanSize) {
  const Machine machine = Machine::bluegene(256);
  const NestShape nest{240, 180};
  const Rect a{0, 0, 8, 8};
  const Rect b{4, 2, 10, 6};
  const RedistCounters before = redist_counters();
  (void)redistribution_cost(nest, a, b, machine.grid_px(), 8,
                            &machine.comm());
  const RedistCounters after = redist_counters();
  const RedistPlan plan =
      plan_redistribution(nest, a, b, machine.grid_px(), 8);
  std::int64_t off_rank = 0;
  for (const Message& m : plan.messages)
    if (m.src != m.dst) ++off_rank;
  EXPECT_EQ(after.moved_blocks_enumerated - before.moved_blocks_enumerated,
            off_rank);
}

}  // namespace
}  // namespace stormtrack
