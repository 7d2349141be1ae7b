/// Property sweep over random redistribution plans: the invariants that
/// make the §V metrics meaningful must hold for arbitrary rectangle pairs.

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "redist/redistributor.hpp"
#include "util/rng.hpp"

namespace stormtrack {
namespace {

constexpr int kGridPx = 32;

Rect random_rect(Xoshiro256& rng) {
  const int w = static_cast<int>(rng.uniform_int(1, 16));
  const int h = static_cast<int>(rng.uniform_int(1, 16));
  return Rect{static_cast<int>(rng.uniform_int(0, kGridPx - w)),
              static_cast<int>(rng.uniform_int(0, kGridPx - h)), w, h};
}

class PlanSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PlanSweep, ConservationAndBounds) {
  Xoshiro256 rng(GetParam());
  for (int trial = 0; trial < 25; ++trial) {
    const NestShape nest{static_cast<int>(rng.uniform_int(20, 361)),
                         static_cast<int>(rng.uniform_int(20, 361))};
    const Rect a = random_rect(rng);
    const Rect b = random_rect(rng);
    const RedistPlan plan = plan_redistribution(nest, a, b, kGridPx, 8);

    // Conservation: every nest point is shipped exactly once.
    std::int64_t bytes = 0;
    for (const Message& m : plan.messages) bytes += m.bytes;
    EXPECT_EQ(bytes, static_cast<std::int64_t>(nest.nx) * nest.ny * 8);

    // Overlap is a fraction.
    EXPECT_GE(plan.overlap_fraction(), 0.0);
    EXPECT_LE(plan.overlap_fraction(), 1.0);

    // Each (sender, receiver) pair appears at most once.
    std::map<std::pair<int, int>, int> seen;
    for (const Message& m : plan.messages) seen[{m.src, m.dst}]++;
    for (const auto& [pair, count] : seen) EXPECT_EQ(count, 1);

    // Every receiver's incoming bytes equal its new block size.
    const BlockDecomposition new_d(nest, b, kGridPx);
    std::map<int, std::int64_t> incoming;
    for (const Message& m : plan.messages) incoming[m.dst] += m.bytes;
    for (int j = 0; j < b.h; ++j) {
      for (int i = 0; i < b.w; ++i) {
        const Rect region = new_d.owned_region(i, j);
        EXPECT_EQ(incoming[new_d.rank_at(i, j)], region.area() * 8);
      }
    }
  }
}

TEST_P(PlanSweep, ReverseMoveConservesBytesAndOverlap) {
  Xoshiro256 rng(GetParam() + 42);
  for (int trial = 0; trial < 25; ++trial) {
    const NestShape nest{static_cast<int>(rng.uniform_int(20, 300)),
                         static_cast<int>(rng.uniform_int(20, 300))};
    const Rect a = random_rect(rng);
    const Rect b = random_rect(rng);
    const RedistPlan forward = plan_redistribution(nest, a, b, kGridPx, 8);
    const RedistPlan back = plan_redistribution(nest, b, a, kGridPx, 8);
    std::int64_t fb = 0, bb = 0;
    for (const Message& m : forward.messages) fb += m.bytes;
    for (const Message& m : back.messages) bb += m.bytes;
    EXPECT_EQ(fb, bb);
    // Staying points are symmetric: owner(a)==owner(b) either direction.
    EXPECT_EQ(forward.overlap_points, back.overlap_points);
  }
}

TEST_P(PlanSweep, FieldRoundTripOnRandomRects) {
  Xoshiro256 rng(GetParam() + 77);
  Torus3D topo(8, 8, 16);
  RowMajorMapping map(1024);
  SimComm comm(topo, map);
  for (int trial = 0; trial < 5; ++trial) {
    const int nx = static_cast<int>(rng.uniform_int(10, 80));
    const int ny = static_cast<int>(rng.uniform_int(10, 80));
    Grid2D<double> field(nx, ny);
    for (int y = 0; y < ny; ++y)
      for (int x = 0; x < nx; ++x) field(x, y) = rng.uniform();
    const Rect a = random_rect(rng);
    const Rect b = random_rect(rng);
    EXPECT_EQ(redistribute_field(comm, field, a, b, kGridPx), field);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanSweep,
                         ::testing::Values(11u, 22u, 33u, 44u));

}  // namespace
}  // namespace stormtrack
