#include "redist/redistributor.hpp"

#include <gtest/gtest.h>

#include <map>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace stormtrack {
namespace {

class RedistributorTest : public ::testing::Test {
 protected:
  Torus3D topo_{8, 8, 16};
  RowMajorMapping map_{1024};
  SimComm comm_{topo_, map_};
};

TEST_F(RedistributorTest, PlanConservesBytes) {
  const NestShape nest{100, 80};
  const RedistPlan plan = plan_redistribution(nest, Rect{0, 0, 4, 4},
                                              Rect{10, 10, 5, 3}, 32, 8);
  std::int64_t bytes = 0;
  for (const Message& m : plan.messages) bytes += m.bytes;
  EXPECT_EQ(bytes, static_cast<std::int64_t>(100) * 80 * 8);
  EXPECT_EQ(plan.total_points, 8000);
}

TEST_F(RedistributorTest, IdenticalRectsFullOverlap) {
  const NestShape nest{64, 64};
  const RedistPlan plan = plan_redistribution(nest, Rect{2, 2, 8, 8},
                                              Rect{2, 2, 8, 8}, 32, 8);
  EXPECT_DOUBLE_EQ(plan.overlap_fraction(), 1.0);
  // Every message is a self message.
  for (const Message& m : plan.messages) EXPECT_EQ(m.src, m.dst);
}

TEST_F(RedistributorTest, DisjointRectsZeroOverlap) {
  const NestShape nest{64, 64};
  const RedistPlan plan = plan_redistribution(nest, Rect{0, 0, 8, 8},
                                              Rect{16, 16, 8, 8}, 32, 8);
  EXPECT_DOUBLE_EQ(plan.overlap_fraction(), 0.0);
}

TEST_F(RedistributorTest, InPlaceResizePartialOverlap) {
  // Growing the rectangle in place (the diffusion strategy's boundary
  // shift, §IV-B) keeps many points on their old owner: ranks at the same
  // grid position own overlapping — though not identical — blocks.
  const NestShape nest{64, 64};
  const RedistPlan plan = plan_redistribution(nest, Rect{0, 0, 8, 8},
                                              Rect{0, 0, 10, 8}, 32, 8);
  EXPECT_GT(plan.overlap_fraction(), 0.0);
  EXPECT_LT(plan.overlap_fraction(), 1.0);
}

TEST_F(RedistributorTest, PureTranslationHasZeroOverlap) {
  // Translating the same-size rectangle moves every rank's block wholesale:
  // no nest point keeps its owner. This is exactly why the scratch method,
  // which relocates retained nests freely, loses on redistribution.
  const NestShape nest{64, 64};
  const RedistPlan plan = plan_redistribution(nest, Rect{0, 0, 8, 8},
                                              Rect{1, 0, 8, 8}, 32, 8);
  EXPECT_DOUBLE_EQ(plan.overlap_fraction(), 0.0);
}

TEST_F(RedistributorTest, MetricsFromComm) {
  const NestShape nest{64, 64};
  const RedistCostSummary m = redistribution_cost(
      nest, Rect{0, 0, 8, 8}, Rect{16, 16, 8, 8}, 32, 8, &comm_);
  EXPECT_GT(m.traffic().modeled_time, 0.0);
  EXPECT_GT(m.traffic().hop_bytes, 0);
  EXPECT_EQ(m.total_points, 64 * 64);
  EXPECT_DOUBLE_EQ(m.overlap_fraction(), 0.0);
}

TEST_F(RedistributorTest, FieldRoundTripPreservesValues) {
  // End-to-end conservation: scatter by the old decomposition, exchange,
  // reassemble — the field must survive bit-exactly.
  Xoshiro256 rng(5);
  Grid2D<double> field(37, 53);
  for (int y = 0; y < 53; ++y)
    for (int x = 0; x < 37; ++x) field(x, y) = rng.uniform();

  TrafficReport traffic;
  const Grid2D<double> out =
      redistribute_field(comm_, field, Rect{0, 0, 5, 7}, Rect{9, 3, 4, 4}, 32,
                         nullptr, &traffic);
  EXPECT_EQ(out, field);
  EXPECT_GT(traffic.total_bytes, 0);
  EXPECT_EQ(redistribution_cost(NestShape{37, 53}, Rect{0, 0, 5, 7},
                                Rect{9, 3, 4, 4}, 32, 8, &comm_)
                .total_points,
            37 * 53);
}

TEST_F(RedistributorTest, FieldRoundTripWithOverlappingRects) {
  Grid2D<double> field(40, 40);
  for (int y = 0; y < 40; ++y)
    for (int x = 0; x < 40; ++x) field(x, y) = x * 100.0 + y;
  TrafficReport traffic;
  const Grid2D<double> out =
      redistribute_field(comm_, field, Rect{0, 0, 6, 6}, Rect{0, 0, 8, 8}, 32,
                         nullptr, &traffic);
  EXPECT_EQ(out, field);
  EXPECT_GT(redistribution_cost(NestShape{40, 40}, Rect{0, 0, 6, 6},
                                Rect{0, 0, 8, 8}, 32, 8, &comm_)
                .overlap_fraction(),
            0.0);
}

TEST_F(RedistributorTest, OverlapGrowsWithRectOverlap) {
  const NestShape nest{200, 200};
  const auto no_move =
      plan_redistribution(nest, Rect{0, 0, 10, 10}, Rect{0, 0, 10, 10}, 32);
  const auto small_grow =
      plan_redistribution(nest, Rect{0, 0, 10, 10}, Rect{0, 0, 12, 10}, 32);
  const auto relocation =
      plan_redistribution(nest, Rect{0, 0, 10, 10}, Rect{8, 8, 10, 10}, 32);
  EXPECT_DOUBLE_EQ(no_move.overlap_fraction(), 1.0);
  EXPECT_GT(no_move.overlap_fraction(), small_grow.overlap_fraction());
  EXPECT_GT(small_grow.overlap_fraction(), relocation.overlap_fraction());
  EXPECT_DOUBLE_EQ(relocation.overlap_fraction(), 0.0);
}

TEST_F(RedistributorTest, ShrinkAndGrowProcessorCounts) {
  // Paper Fig. 3: 16 senders -> 4 receivers; also test the reverse.
  const NestShape nest{80, 80};
  const RedistPlan shrink = plan_redistribution(nest, Rect{0, 0, 4, 4},
                                                Rect{20, 20, 2, 2}, 32, 8);
  const RedistPlan grow = plan_redistribution(nest, Rect{20, 20, 2, 2},
                                              Rect{0, 0, 4, 4}, 32, 8);
  std::int64_t b1 = 0, b2 = 0;
  for (const Message& m : shrink.messages) b1 += m.bytes;
  for (const Message& m : grow.messages) b2 += m.bytes;
  EXPECT_EQ(b1, b2);
  // Each receiver in the shrink case hears from exactly 4 senders.
  std::map<int, int> senders_per_receiver;
  for (const Message& m : shrink.messages) senders_per_receiver[m.dst]++;
  for (const auto& [dst, n] : senders_per_receiver) EXPECT_EQ(n, 4);
}

TEST_F(RedistributorTest, MoreProcsThanPointsStillConserves) {
  const NestShape nest{3, 3};
  const RedistPlan plan = plan_redistribution(nest, Rect{0, 0, 5, 5},
                                              Rect{10, 0, 6, 6}, 32, 8);
  std::int64_t bytes = 0;
  for (const Message& m : plan.messages) bytes += m.bytes;
  EXPECT_EQ(bytes, 9 * 8);
}

TEST_F(RedistributorTest, BadBytesPerPointThrows) {
  EXPECT_THROW((void)redistribution_cost(NestShape{4, 4}, Rect{0, 0, 2, 2},
                                         Rect{0, 0, 2, 2}, 32, 0, &comm_),
               CheckError);
  EXPECT_THROW((void)plan_redistribution(NestShape{4, 4}, Rect{0, 0, 2, 2},
                                         Rect{0, 0, 2, 2}, 32, -1),
               CheckError);
}

TEST(RedistributorTopoEffect, FoldedMappingLowersHopBytes) {
  // The §V-C rationale for topology-aware mapping: the same redistribution
  // plan costs fewer hop-bytes under the folding mapping than under a
  // random placement.
  Torus3D topo(8, 8, 16);
  FoldingMapping fold(32, 32, topo);
  RandomMapping rnd(1024, 7);
  SimComm folded(topo, fold);
  SimComm random(topo, rnd);
  const NestShape nest{300, 300};
  const RedistCostSummary m_fold = redistribution_cost(
      nest, Rect{0, 0, 13, 16}, Rect{2, 2, 13, 16}, 32, 8, &folded);
  const RedistCostSummary m_rand = redistribution_cost(
      nest, Rect{0, 0, 13, 16}, Rect{2, 2, 13, 16}, 32, 8, &random);
  EXPECT_LT(m_fold.traffic().hop_bytes, m_rand.traffic().hop_bytes);
}

}  // namespace
}  // namespace stormtrack
