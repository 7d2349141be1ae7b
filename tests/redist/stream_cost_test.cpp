/// Randomized equivalence: the streaming cost aggregator
/// (redistribution_cost) must match the materialized plan
/// (plan_redistribution + SimComm::alltoallv accounting + the message-list
/// RedistTimeModel overload) bit-for-bit on every aggregate, the
/// ground-truth phase time included — that is the whole contract that lets
/// the pipeline price and charge candidates without allocating message
/// vectors.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/machine.hpp"
#include "perfmodel/redist_model.hpp"
#include "redist/redistributor.hpp"
#include "util/rng.hpp"

namespace stormtrack {
namespace {

struct PlanTotals {
  std::int64_t total_bytes = 0;
  std::int64_t local_bytes = 0;
  std::int64_t num_messages = 0;
};

PlanTotals totals_of(const RedistPlan& plan) {
  PlanTotals t;
  for (const Message& m : plan.messages) {
    if (m.src == m.dst)
      t.local_bytes += m.bytes;
    else {
      t.total_bytes += m.bytes;
      t.num_messages += 1;
    }
  }
  return t;
}

Rect random_rect(Xoshiro256& rng, int grid_px, int grid_py) {
  const int w = static_cast<int>(rng.uniform_int(1, grid_px));
  const int h = static_cast<int>(rng.uniform_int(1, grid_py));
  return Rect{static_cast<int>(rng.uniform_int(0, grid_px - w)),
              static_cast<int>(rng.uniform_int(0, grid_py - h)), w, h};
}

/// Every few trials, degenerate single-row / single-column rectangles.
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

void expect_summary_matches(const NestShape& nest, const Rect& a,
                            const Rect& b, int grid_px, int bpp,
                            const SimComm& comm, const RedistTimeModel& model) {
  const RedistPlan plan = plan_redistribution(nest, a, b, grid_px, bpp);
  const RedistCostSummary sum =
      redistribution_cost(nest, a, b, grid_px, bpp, &comm);
  const PlanTotals t = totals_of(plan);
  const TrafficReport traffic = comm.alltoallv(plan.messages);

  EXPECT_EQ(static_cast<std::int64_t>(plan.messages.size()),
            count_redist_messages(nest, a, b, grid_px));
  EXPECT_EQ(sum.total_points, plan.total_points);
  EXPECT_EQ(sum.overlap_points, plan.overlap_points);
  EXPECT_EQ(sum.overlap_fraction(), plan.overlap_fraction());
  EXPECT_EQ(sum.total_bytes, t.total_bytes);
  EXPECT_EQ(sum.local_bytes, t.local_bytes);
  EXPECT_EQ(sum.num_messages, t.num_messages);
  // SimComm's own accounting of the materialized phase.
  EXPECT_EQ(sum.total_bytes, traffic.total_bytes);
  EXPECT_EQ(sum.hop_bytes, traffic.hop_bytes);
  EXPECT_EQ(sum.local_bytes, traffic.local_bytes);
  EXPECT_EQ(sum.num_messages, traffic.num_messages);
  EXPECT_EQ(sum.max_hops, traffic.max_hops);
  // The ground-truth phase, bit-for-bit: per-sender and per-receiver sums
  // accumulate in the plan's message order.
  EXPECT_EQ(sum.phase_time, traffic.modeled_time);
  const TrafficReport streamed = sum.traffic();
  EXPECT_EQ(streamed.modeled_time, traffic.modeled_time);
  EXPECT_EQ(streamed.total_bytes, traffic.total_bytes);
  EXPECT_EQ(streamed.hop_bytes, traffic.hop_bytes);
  EXPECT_EQ(streamed.local_bytes, traffic.local_bytes);
  EXPECT_EQ(streamed.num_messages, traffic.num_messages);
  EXPECT_EQ(streamed.max_hops, traffic.max_hops);
  // The dense reference walk charges the same phase.
  const RedistCostSummary dense =
      redistribution_cost_dense(nest, a, b, grid_px, bpp, &comm);
  EXPECT_EQ(dense.phase_time, traffic.modeled_time);
  EXPECT_EQ(dense.worst_sender_time, sum.worst_sender_time);
  EXPECT_EQ(dense.worst_pair_time, sum.worst_pair_time);
  // The two predict overloads must agree bit-for-bit (EXPECT_EQ, not
  // NEAR): the streaming path accumulates in the message-list order.
  EXPECT_EQ(model.predict(sum), model.predict(plan.messages));
}

class StreamCostSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StreamCostSweep, MatchesMaterializedPlanOnDirectNetwork) {
  const Machine machine = Machine::bluegene(256);
  ASSERT_TRUE(machine.comm().topology().is_direct_network());
  const RedistTimeModel model(machine.comm());
  Xoshiro256 rng(GetParam());
  for (int trial = 0; trial < 25; ++trial) {
    const NestShape nest{static_cast<int>(rng.uniform_int(20, 361)),
                         static_cast<int>(rng.uniform_int(20, 361))};
    const Rect a = random_rect_maybe_degenerate(
        rng, machine.grid_px(), machine.grid_py(), trial);
    const Rect b = random_rect_maybe_degenerate(
        rng, machine.grid_px(), machine.grid_py(), trial + 1);
    expect_summary_matches(nest, a, b, machine.grid_px(), 8, machine.comm(),
                           model);
  }
}

TEST_P(StreamCostSweep, MatchesMaterializedPlanOnSwitchedNetwork) {
  const Machine machine = Machine::fist_cluster(128);
  ASSERT_FALSE(machine.comm().topology().is_direct_network());
  const RedistTimeModel model(machine.comm());
  Xoshiro256 rng(GetParam() + 7);
  for (int trial = 0; trial < 25; ++trial) {
    const NestShape nest{static_cast<int>(rng.uniform_int(20, 361)),
                         static_cast<int>(rng.uniform_int(20, 361))};
    const Rect a = random_rect_maybe_degenerate(
        rng, machine.grid_px(), machine.grid_py(), trial);
    const Rect b = random_rect_maybe_degenerate(
        rng, machine.grid_px(), machine.grid_py(), trial + 1);
    expect_summary_matches(nest, a, b, machine.grid_px(),
                           kDefaultBytesPerPoint, machine.comm(), model);
  }
}

// 4 seeds × 2 networks × 25 trials = 200 randomized cases.
INSTANTIATE_TEST_SUITE_P(Seeds, StreamCostSweep,
                         ::testing::Values(0x5eedULL, 0xabcdefULL,
                                           0x1234567ULL, 0xfeedbeefULL));

/// The sweep's machines: the four named ones, plus two custom builds that
/// take redistribution_cost's hop kernels off their default paths — a 2D
/// mesh (the one topology no named machine uses) and a dragonfly under a
/// random placement, so receiver nodes follow no tiled layout.
Machine sweep_machine(const std::string& name, int ranks) {
  const ProcessGridShape grid = choose_process_grid(ranks);
  if (name == "mesh2d")
    return Machine(std::make_unique<Mesh2D>(grid.px, grid.py),
                   std::make_unique<RowMajorMapping>(ranks), grid.px, grid.py,
                   "mesh2d");
  if (name == "dragonfly_random")
    return Machine(make_dragonfly(ranks),
                   std::make_unique<RandomMapping>(ranks, 0xd4a6ULL), grid.px,
                   grid.py, "dragonfly-random");
  return Machine::by_name(name, ranks);
}

/// Every interconnect model at 1024 and 16384 ranks. Besides random
/// moves (nests from 20 to 800 points a side, so rectangles wider than
/// their nest occur), every trial also checks an identity move and a
/// one-column shift of the old rectangle — the diffusion steady state and
/// its most common perturbation.
class StreamCostTopologySweep
    : public ::testing::TestWithParam<std::tuple<const char*, int>> {};

TEST_P(StreamCostTopologySweep, PhaseTimeMatchesMaterializedAlltoallv) {
  const auto [topo, ranks] = GetParam();
  const Machine machine = sweep_machine(topo, ranks);
  const RedistTimeModel model(machine.comm());
  const int px = machine.grid_px();
  const int py = machine.grid_py();
  Xoshiro256 rng(0x9a5eULL ^ static_cast<std::uint64_t>(ranks) ^
                 std::hash<std::string>{}(topo));
  for (int trial = 0; trial < 12; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const NestShape nest{static_cast<int>(rng.uniform_int(20, 800)),
                         static_cast<int>(rng.uniform_int(20, 800))};
    const Rect a = random_rect_maybe_degenerate(rng, px, py, trial);
    const Rect b = random_rect_maybe_degenerate(rng, px, py, trial + 1);
    expect_summary_matches(nest, a, b, px, kDefaultBytesPerPoint,
                           machine.comm(), model);
    expect_summary_matches(nest, a, a, px, kDefaultBytesPerPoint,
                           machine.comm(), model);
    const Rect shifted{a.x_end() < px ? a.x + 1 : a.x - 1, a.y, a.w, a.h};
    if (shifted.x >= 0)
      expect_summary_matches(nest, a, shifted, px, kDefaultBytesPerPoint,
                             machine.comm(), model);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, StreamCostTopologySweep,
    ::testing::Combine(::testing::Values("bgl", "fist", "fattree",
                                         "dragonfly", "mesh2d",
                                         "dragonfly_random"),
                       ::testing::Values(1024, 16384)),
    [](const ::testing::TestParamInfo<std::tuple<const char*, int>>& p) {
      return std::string(std::get<0>(p.param)) + "_" +
             std::to_string(std::get<1>(p.param));
    });

/// Places rank r on node r + shift: with a shift, the top ranks land on
/// nodes the topology does not have.
class ShiftedMapping final : public Mapping {
 public:
  ShiftedMapping(int num_ranks, int shift) : n_(num_ranks), shift_(shift) {}
  [[nodiscard]] int node_of_rank(int rank) const override {
    ST_CHECK_MSG(rank >= 0 && rank < n_, "rank " << rank << " out of range");
    return rank + shift_;
  }
  [[nodiscard]] int num_ranks() const override { return n_; }
  [[nodiscard]] std::string name() const override { return "shifted"; }

 private:
  int n_, shift_;
};

TEST(StreamCost, NodeOutsideTopologyIsRefused) {
  // 1024 ranks on a 1024-node dragonfly, the upper half mapped past its
  // last node: a move whose sender or receiver sits in that half must be
  // refused, as the virtual hop call refuses it, never priced.
  const Machine machine(make_dragonfly(1024),
                        std::make_unique<ShiftedMapping>(1024, 512), 32, 32,
                        "dragonfly-shifted");
  const NestShape nest{200, 160};
  const Rect low{0, 0, 8, 8};        // ranks on nodes < 1024
  const Rect low_moved{4, 2, 8, 8};
  const Rect high{0, 20, 8, 8};      // ranks on nodes >= 1024
  const Rect low_edge{0, 15, 32, 1};  // the last row on valid nodes
  EXPECT_THROW((void)machine.comm().hops(0, 32 * 20), CheckError);
  for (int rep = 0; rep < 2; ++rep) {  // the refusal is never cached
    SCOPED_TRACE("repetition " + std::to_string(rep));
    EXPECT_THROW((void)redistribution_cost(nest, low, high, 32, 8,
                                           &machine.comm()),
                 CheckError);
    EXPECT_THROW((void)redistribution_cost(nest, high, low, 32, 8,
                                           &machine.comm()),
                 CheckError);
    EXPECT_THROW((void)redistribution_cost(nest, low_edge, high, 32, 8,
                                           &machine.comm()),
                 CheckError);
    EXPECT_THROW((void)redistribution_cost_dense(nest, low, high, 32, 8,
                                                 &machine.comm()),
                 CheckError);
    // Moves within the valid half still price, and match the oracle.
    const RedistCostSummary sum =
        redistribution_cost(nest, low, low_moved, 32, 8, &machine.comm());
    const RedistCostSummary dense = redistribution_cost_dense(
        nest, low, low_moved, 32, 8, &machine.comm());
    EXPECT_GT(sum.num_messages, 0);
    EXPECT_EQ(sum.phase_time, dense.phase_time);
    EXPECT_EQ(sum.hop_bytes, dense.hop_bytes);
  }
}

/// Places any rank, valid or not, on node rank mod nodes.
class WrappingMapping final : public Mapping {
 public:
  explicit WrappingMapping(int num_ranks) : n_(num_ranks) {}
  [[nodiscard]] int node_of_rank(int rank) const override { return rank % n_; }
  [[nodiscard]] int num_ranks() const override { return n_; }
  [[nodiscard]] std::string name() const override { return "wrapping"; }

 private:
  int n_;
};

TEST(StreamCost, RankOutsideCommunicatorIsRefused) {
  // A process-grid width wider than the machine's names ranks the
  // communicator does not have. The pricing pass refuses them itself, even
  // under a mapping that would place them.
  const Machine machine(make_dragonfly(1024),
                        std::make_unique<WrappingMapping>(1024), 32, 32,
                        "dragonfly-wrapping");
  const NestShape nest{200, 160};
  EXPECT_THROW((void)redistribution_cost(nest, Rect{0, 0, 8, 8},
                                         Rect{0, 20, 8, 8}, 64, 8,
                                         &machine.comm()),
               CheckError);
  EXPECT_THROW((void)redistribution_cost(nest, Rect{0, 20, 8, 8},
                                         Rect{0, 0, 8, 8}, 64, 8,
                                         &machine.comm()),
               CheckError);
  const RedistCostSummary sum = redistribution_cost(
      nest, Rect{0, 0, 8, 8}, Rect{2, 1, 8, 8}, 64, 8, &machine.comm());
  EXPECT_GT(sum.num_messages, 0);
}

TEST(StreamCost, NodeKeysFollowTheCommunicator) {
  // Node keys persist across queries on one communicator. Interleaving
  // machines of one shape but different placements, and pricing on a
  // communicator built after another one died, must each price from their
  // own mapping: every query matches the dense oracle.
  const Machine tiled = Machine::dragonfly(1024);
  const Machine random(make_dragonfly(1024),
                       std::make_unique<RandomMapping>(1024, 0x5eedULL), 32,
                       32, "dragonfly-random");
  const NestShape nest{300, 240};
  const Rect a{0, 0, 16, 12};
  const Rect b{5, 3, 20, 14};
  const auto expect_oracle = [&](const SimComm& comm) {
    const RedistCostSummary sum = redistribution_cost(nest, a, b, 32, 8, &comm);
    const RedistCostSummary dense =
        redistribution_cost_dense(nest, a, b, 32, 8, &comm);
    EXPECT_EQ(sum.hop_bytes, dense.hop_bytes);
    EXPECT_EQ(sum.max_hops, dense.max_hops);
    EXPECT_EQ(sum.phase_time, dense.phase_time);
    EXPECT_EQ(sum.worst_pair_time, dense.worst_pair_time);
    return sum.hop_bytes;
  };
  const std::int64_t tiled_hops = expect_oracle(tiled.comm());
  const std::int64_t random_hops = expect_oracle(random.comm());
  EXPECT_NE(tiled_hops, random_hops);
  EXPECT_EQ(expect_oracle(tiled.comm()), tiled_hops);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const RandomMapping mapping(1024, seed);
    const SimComm comm(tiled.topology(), mapping);
    (void)expect_oracle(comm);
  }
}

TEST(StreamCost, NodeKeysSurviveATableRelease) {
  // Pricing on a communicator far smaller than the key table releases the
  // table; pricing on the large machine again refills it from scratch.
  const Machine large = Machine::dragonfly(262144);
  const Machine small = Machine::dragonfly(1024);
  const NestShape nest{300, 240};
  const auto expect_oracle = [&](const Machine& m, const Rect& a,
                                 const Rect& b) {
    const int grid_px = m.grid_px();
    const RedistCostSummary sum =
        redistribution_cost(nest, a, b, grid_px, 8, &m.comm());
    const RedistCostSummary dense =
        redistribution_cost_dense(nest, a, b, grid_px, 8, &m.comm());
    EXPECT_EQ(sum.hop_bytes, dense.hop_bytes);
    EXPECT_EQ(sum.max_hops, dense.max_hops);
    EXPECT_EQ(sum.phase_time, dense.phase_time);
    EXPECT_EQ(sum.worst_pair_time, dense.worst_pair_time);
    return sum.hop_bytes;
  };
  // Rectangles at the far corner of the 512x512 grid touch its top ranks.
  const Rect far_a{490, 495, 16, 12};
  const Rect far_b{480, 490, 20, 14};
  const std::int64_t large_hops = expect_oracle(large, far_a, far_b);
  (void)expect_oracle(small, Rect{0, 0, 16, 12}, Rect{5, 3, 20, 14});
  EXPECT_EQ(expect_oracle(large, far_a, far_b), large_hops);
}

/// A ring network: a topology class with no hop kernel.
class RingTopology final : public ITopology {
 public:
  explicit RingTopology(int nodes)
      : ITopology(Torus3D::bgl_links()), nodes_(nodes) {}
  [[nodiscard]] int num_nodes() const override { return nodes_; }
  [[nodiscard]] int hops(int a, int b) const override {
    require_node(a);
    require_node(b);
    const int d = a > b ? a - b : b - a;
    return std::min(d, nodes_ - d);
  }
  [[nodiscard]] bool is_direct_network() const override { return true; }
  [[nodiscard]] double aggregate_capacity() const override {
    return nodes_ * link().bandwidth;
  }
  [[nodiscard]] std::string name() const override { return "ring"; }

 private:
  int nodes_;
};

TEST(StreamCost, TopologyWithoutHopKernelIsRefused) {
  // Only the dense oracle prices through the virtual hops(); the streaming
  // walk refuses a topology it has no kernel for instead of pricing it
  // some other way.
  const RingTopology ring(64);
  const RowMajorMapping mapping(64);
  const SimComm comm(ring, mapping);
  const NestShape nest{80, 80};
  const Rect a{0, 0, 4, 4};
  const Rect b{2, 2, 6, 6};
  EXPECT_THROW((void)redistribution_cost(nest, a, b, 8, 8, &comm),
               CheckError);
  EXPECT_GT(redistribution_cost_dense(nest, a, b, 8, 8, &comm).hop_bytes, 0);
  // Without a moved block the topology is never consulted.
  EXPECT_EQ(redistribution_cost(nest, a, a, 8, 8, &comm).phase_time, 0.0);
}

TEST(StreamCost, MessageCountSkipsEmptyReceiverBlocks) {
  // A receiver rectangle with more processors along an axis than the nest
  // has points leaves some receiver blocks empty. A narrow sender's block
  // covers several points, so its overlapping part range spans those empty
  // blocks too; no message goes there, so the exact count must skip them.
  const int grid_px = 128;
  const NestShape nest{20, 30};
  const Rect a{0, 0, 4, 6};
  const Rect b{10, 5, 100, 90};
  for (const auto& [from, to] : {std::pair{a, b}, std::pair{b, a}}) {
    const RedistPlan plan = plan_redistribution(nest, from, to, grid_px, 8);
    EXPECT_EQ(count_redist_messages(nest, from, to, grid_px),
              static_cast<std::int64_t>(plan.messages.size()));
  }
}

TEST(StreamCost, WithoutCommOnlyTrafficAggregates) {
  const NestShape nest{100, 80};
  const Rect a{0, 0, 4, 4};
  const Rect b{2, 2, 6, 3};
  const RedistCostSummary sum = redistribution_cost(nest, a, b, 16, 8);
  const RedistPlan plan = plan_redistribution(nest, a, b, 16, 8);
  const PlanTotals t = totals_of(plan);
  EXPECT_EQ(sum.total_bytes, t.total_bytes);
  EXPECT_EQ(sum.num_messages, t.num_messages);
  EXPECT_EQ(sum.overlap_points, plan.overlap_points);
  // No communicator → no topology-dependent fields.
  EXPECT_EQ(sum.hop_bytes, 0);
  EXPECT_EQ(sum.max_hops, 0);
  EXPECT_EQ(sum.worst_pair_time, 0.0);
  EXPECT_EQ(sum.worst_sender_time, 0.0);
  EXPECT_EQ(sum.phase_time, 0.0);
}

TEST(StreamCost, IdentityMoveIsAllLocal) {
  const Machine machine = Machine::bluegene(256);
  const Rect r{3, 2, 5, 4};
  const NestShape nest{200, 200};
  const RedistCostSummary sum = redistribution_cost(
      nest, r, r, machine.grid_px(), 8, &machine.comm());
  EXPECT_EQ(sum.overlap_points, sum.total_points);
  EXPECT_EQ(sum.total_bytes, 0);
  EXPECT_EQ(sum.num_messages, 0);
  EXPECT_EQ(sum.local_bytes, static_cast<std::int64_t>(200) * 200 * 8);
  EXPECT_EQ(sum.overlap_fraction(), 1.0);
}

TEST(StreamCost, CountsCostQueriesNotPlans) {
  const RedistCounters before = redist_counters();
  (void)redistribution_cost(NestShape{50, 50}, Rect{0, 0, 4, 4},
                            Rect{1, 1, 4, 4}, 8, 8);
  const RedistCounters mid = redist_counters();
  EXPECT_EQ(mid.cost_queries, before.cost_queries + 1);
  EXPECT_EQ(mid.plans_built, before.plans_built);
  EXPECT_EQ(mid.messages_materialized, before.messages_materialized);

  const RedistPlan plan =
      plan_redistribution(NestShape{50, 50}, Rect{0, 0, 4, 4},
                          Rect{1, 1, 4, 4}, 8, 8);
  const RedistCounters after = redist_counters();
  EXPECT_EQ(after.plans_built, mid.plans_built + 1);
  EXPECT_EQ(after.messages_materialized,
            mid.messages_materialized +
                static_cast<std::int64_t>(plan.messages.size()));
  EXPECT_EQ(after.cost_queries, mid.cost_queries);
}

}  // namespace
}  // namespace stormtrack
