#include "wsim/dynamics.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "redist/redistributor.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace stormtrack {
namespace {

Grid2D<double> random_field(int nx, int ny, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Grid2D<double> f(nx, ny);
  for (int y = 0; y < ny; ++y)
    for (int x = 0; x < nx; ++x) f(x, y) = rng.uniform(0.0, 1.0);
  return f;
}

TEST(Dynamics, ConstantFieldIsFixedPoint) {
  const Grid2D<double> f(20, 15, 3.7);
  const Grid2D<double> next = step_reference(f, DynamicsParams{});
  for (double v : next.data()) EXPECT_NEAR(v, 3.7, 1e-12);
}

TEST(Dynamics, PureDiffusionConservesMassWithNeumann) {
  // Zero advection + Neumann boundaries: total mass is invariant.
  DynamicsParams p;
  p.u = 0.0;
  p.v = 0.0;
  p.diffusion = 0.2;
  Grid2D<double> f = random_field(24, 18, 5);
  double before = 0.0;
  for (double v : f.data()) before += v;
  for (int s = 0; s < 10; ++s) f = step_reference(f, p);
  double after = 0.0;
  for (double v : f.data()) after += v;
  EXPECT_NEAR(after, before, 1e-9 * before);
}

TEST(Dynamics, DiffusionSmoothsExtremes) {
  DynamicsParams p;
  p.u = 0.0;
  p.v = 0.0;
  p.diffusion = 0.25;
  Grid2D<double> f(21, 21, 0.0);
  f(10, 10) = 100.0;
  for (int s = 0; s < 20; ++s) f = step_reference(f, p);
  EXPECT_LT(f(10, 10), 50.0);
  EXPECT_GT(f(9, 10), 0.0);
}

TEST(Dynamics, AdvectionMovesBlobDownwind) {
  DynamicsParams p;
  p.u = 1.0;
  p.v = 0.0;
  p.diffusion = 0.0;
  Grid2D<double> f(30, 5, 0.0);
  f(5, 2) = 10.0;
  for (int s = 0; s < 10; ++s) f = step_reference(f, p);
  // Pure unit upwind advection translates exactly.
  EXPECT_DOUBLE_EQ(f(15, 2), 10.0);
  EXPECT_DOUBLE_EQ(f(5, 2), 0.0);
}

TEST(Dynamics, MaximumPrincipleHolds) {
  // Upwind + FTCS within stability bounds never overshoots the initial
  // min/max under Neumann boundaries.
  Grid2D<double> f = random_field(32, 32, 11);
  const DynamicsParams p{0.5, -0.3, 0.05};
  for (int s = 0; s < 30; ++s) f = step_reference(f, p);
  for (double v : f.data()) {
    EXPECT_GE(v, -1e-12);
    EXPECT_LE(v, 1.0 + 1e-12);
  }
}

TEST(Dynamics, UnstableParamsRejected) {
  const Grid2D<double> f(8, 8, 0.0);
  EXPECT_THROW((void)step_reference(f, DynamicsParams{1.5, 0.0, 0.1}),
               CheckError);
  EXPECT_THROW((void)step_reference(f, DynamicsParams{0.5, 0.0, 0.3}),
               CheckError);
  // Per-term fine, combined CFL violated.
  EXPECT_THROW((void)step_reference(f, DynamicsParams{0.8, 0.6, 0.1}),
               CheckError);
}

class DistributedDynamics : public ::testing::Test {
 protected:
  Torus3D topo_{8, 8, 4};
  RowMajorMapping map_{256};
  SimComm comm_{topo_, map_};
};

TEST_F(DistributedDynamics, MatchesSequentialReferenceExactly) {
  const NestShape nest{37, 29};
  Grid2D<double> distributed = random_field(nest.nx, nest.ny, 21);
  Grid2D<double> reference = distributed;
  const DynamicsParams p{0.5, 0.25, 0.05};
  DistributedNestStepper stepper(comm_, nest, Rect{2, 3, 5, 4}, 16, p);
  for (int s = 0; s < 8; ++s) {
    (void)stepper.step(distributed);
    reference = step_reference(reference, p);
    ASSERT_EQ(distributed, reference) << "step " << s;
  }
}

TEST_F(DistributedDynamics, HaloTrafficAccounted) {
  const NestShape nest{64, 64};
  Grid2D<double> f = random_field(64, 64, 33);
  DistributedNestStepper stepper(comm_, nest, Rect{0, 0, 4, 4}, 16);
  const TrafficReport t = stepper.step(f);
  EXPECT_GT(t.total_bytes, 0);
  EXPECT_GT(t.num_messages, 0);
  // 4x4 blocks: 2*4*3 shared edges, two messages each, 16 cells deep.
  EXPECT_EQ(t.num_messages, 48);
  EXPECT_EQ(t.total_bytes, 48 * 16 * 8);
}

TEST_F(DistributedDynamics, SingleProcessorNeedsNoHalo) {
  const NestShape nest{16, 16};
  Grid2D<double> f = random_field(16, 16, 44);
  DistributedNestStepper stepper(comm_, nest, Rect{5, 5, 1, 1}, 16);
  const TrafficReport t = stepper.step(f);
  EXPECT_EQ(t.total_bytes, 0);
}

TEST_F(DistributedDynamics, StepAfterRedistributionStaysExact) {
  // The full nest life: step on the old rectangle, redistribute, keep
  // stepping on the new rectangle — always equal to the reference.
  const NestShape nest{45, 33};
  Grid2D<double> field = random_field(nest.nx, nest.ny, 55);
  Grid2D<double> reference = field;
  const DynamicsParams p{0.4, 0.4, 0.05};

  const Rect old_rect{0, 0, 6, 5};
  const Rect new_rect{9, 2, 4, 7};
  DistributedNestStepper before(comm_, nest, old_rect, 16, p);
  for (int s = 0; s < 3; ++s) {
    (void)before.step(field);
    reference = step_reference(reference, p);
  }
  field = redistribute_field(comm_, field, old_rect, new_rect, 16);
  DistributedNestStepper after(comm_, nest, new_rect, 16, p);
  for (int s = 0; s < 3; ++s) {
    (void)after.step(field);
    reference = step_reference(reference, p);
  }
  EXPECT_EQ(field, reference);
}

TEST_F(DistributedDynamics, MoreProcsThanCellsStillExact) {
  const NestShape nest{5, 5};
  Grid2D<double> f = random_field(5, 5, 66);
  Grid2D<double> ref = f;
  DistributedNestStepper stepper(comm_, nest, Rect{0, 0, 8, 8}, 16);
  (void)stepper.step(f);
  ref = step_reference(ref, DynamicsParams{});
  EXPECT_EQ(f, ref);
}

/// One step's halo messages, rebuilt from the decomposition in the
/// stepper's emission order (block-major; west, east, south, north), so the
/// priced report must match field for field.
std::vector<Message> halo_messages(const BlockDecomposition& d) {
  const Rect pr = d.proc_rect();
  std::vector<Message> msgs;
  for (int j = 0; j < pr.h; ++j) {
    for (int i = 0; i < pr.w; ++i) {
      const Rect mine = d.owned_region(i, j);
      if (mine.empty()) continue;
      const std::pair<int, int> neighbours[] = {
          {i - 1, j}, {i + 1, j}, {i, j - 1}, {i, j + 1}};
      for (const auto& [ni, nj] : neighbours) {
        if (ni < 0 || ni >= pr.w || nj < 0 || nj >= pr.h) continue;
        if (d.owned_region(ni, nj).empty()) continue;
        const int cells = ni != i ? mine.h : mine.w;
        msgs.push_back(
            Message{d.rank_at(i, j), d.rank_at(ni, nj), std::int64_t{cells} * 8});
      }
    }
  }
  return msgs;
}

void expect_same_traffic(const TrafficReport& got, const TrafficReport& want) {
  EXPECT_EQ(got.modeled_time, want.modeled_time);
  EXPECT_EQ(got.total_bytes, want.total_bytes);
  EXPECT_EQ(got.hop_bytes, want.hop_bytes);
  EXPECT_EQ(got.local_bytes, want.local_bytes);
  EXPECT_EQ(got.num_messages, want.num_messages);
  EXPECT_EQ(got.max_hops, want.max_hops);
}

TEST_F(DistributedDynamics, BitIdenticalAcrossDecompositionsAndFlowSigns) {
  struct Layout {
    const char* name;
    NestShape nest;
    Rect proc_rect;  // on a 16-wide process grid
  };
  const Layout layouts[] = {
      {"1x1", {23, 17}, Rect{4, 4, 1, 1}},
      {"1xN", {23, 17}, Rect{0, 2, 1, 6}},
      {"Nx1", {23, 17}, Rect{3, 0, 7, 1}},
      {"more ranks than points", {5, 3}, Rect{0, 0, 8, 6}},
      {"rect at the grid edge", {31, 26}, Rect{11, 13, 5, 3}},
  };
  const DynamicsParams flows[] = {
      {0.5, 0.25, 0.05},   {-0.5, 0.25, 0.05}, {0.5, -0.25, 0.05},
      {-0.5, -0.25, 0.05}, {0.3, -0.6, 0.0},
  };
  std::uint64_t seed = 100;
  for (const Layout& layout : layouts) {
    for (const DynamicsParams& p : flows) {
      SCOPED_TRACE(std::string(layout.name) + ", u " + std::to_string(p.u) +
                   " v " + std::to_string(p.v) + " diffusion " +
                   std::to_string(p.diffusion));
      Grid2D<double> distributed =
          random_field(layout.nest.nx, layout.nest.ny, ++seed);
      Grid2D<double> reference = distributed;
      DistributedNestStepper stepper(comm_, layout.nest, layout.proc_rect,
                                     16, p);
      const TrafficReport want =
          comm_.alltoallv(halo_messages(stepper.decomposition()));
      for (int s = 0; s < 8; ++s) {
        const TrafficReport got = stepper.step(distributed);
        reference = step_reference(reference, p);
        ASSERT_EQ(distributed, reference) << "step " << s;
        expect_same_traffic(got, want);
      }
    }
  }
}

TEST_F(DistributedDynamics, RejectsAFieldOfTheWrongShape) {
  DistributedNestStepper stepper(comm_, NestShape{8, 6}, Rect{0, 0, 2, 2}, 16);
  Grid2D<double> f(6, 8, 1.0);
  EXPECT_THROW((void)stepper.step(f), CheckError);
}

}  // namespace
}  // namespace stormtrack
