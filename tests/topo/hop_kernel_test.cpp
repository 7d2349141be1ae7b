/// The hop kernel of every final topology class (key() + hops(Key, Key),
/// what redistribution_cost prices with) must give exactly the virtual
/// hops(a, b) of the same class, on random node pairs and on the edge pairs
/// of each hop rule; the virtual call must still range-check its nodes.

#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

#include "topo/topology.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace stormtrack {
namespace {

/// (node a, node b, expected hops) — the edge cases of one hop rule.
using EdgePair = std::tuple<int, int, int>;

template <class Topo>
void expect_kernel_matches_virtual(const Topo& topo,
                                   const std::vector<EdgePair>& edges,
                                   std::uint64_t seed) {
  const ITopology& base = topo;
  for (const auto& [a, b, expected] : edges) {
    SCOPED_TRACE(testing::Message() << topo.name() << " edge pair " << a
                                    << ", " << b);
    EXPECT_EQ(base.hops(a, b), expected);
    EXPECT_EQ(topo.hops(topo.key(a), topo.key(b)), expected);
    EXPECT_EQ(topo.hops(topo.key(b), topo.key(a)), expected);
  }
  Xoshiro256 rng(seed);
  const int last = topo.num_nodes() - 1;
  for (int trial = 0; trial < 2000; ++trial) {
    const int a = static_cast<int>(rng.uniform_int(0, last));
    const int b = static_cast<int>(rng.uniform_int(0, last));
    ASSERT_EQ(topo.hops(topo.key(a), topo.key(b)), base.hops(a, b))
        << topo.name() << " nodes " << a << ", " << b;
  }
  EXPECT_THROW((void)base.hops(-1, 0), CheckError);
  EXPECT_THROW((void)base.hops(0, topo.num_nodes()), CheckError);
  EXPECT_THROW((void)base.hops(topo.num_nodes(), topo.num_nodes()),
               CheckError);
}

TEST(HopKernel, Torus3DMatchesVirtualHops) {
  const Torus3D t(8, 6, 16);
  const auto at = [&](int x, int y, int z) { return t.node(Coord3{x, y, z}); };
  expect_kernel_matches_virtual(
      t,
      {
          {at(2, 3, 5), at(2, 3, 5), 0},
          {at(0, 0, 0), at(1, 0, 0), 1},
          // Wraparound: the ring distance of dim - 1 is 1, and dim / 2 is
          // the farthest a ring reaches.
          {at(0, 0, 0), at(7, 0, 0), 1},
          {at(0, 0, 0), at(4, 0, 0), 4},
          {at(0, 0, 0), at(0, 5, 0), 1},
          {at(0, 0, 0), at(0, 3, 0), 3},
          {at(0, 0, 0), at(0, 0, 15), 1},
          {at(0, 0, 0), at(0, 0, 8), 8},
          {at(1, 1, 1), at(5, 4, 9), 4 + 3 + 8},
      },
      0x70705ULL);
}

TEST(HopKernel, Mesh2DMatchesVirtualHops) {
  const Mesh2D m(8, 6);
  const auto at = [](int x, int y) { return y * 8 + x; };
  expect_kernel_matches_virtual(m,
                                {
                                    {at(3, 2), at(3, 2), 0},
                                    {at(0, 0), at(1, 0), 1},
                                    // No wraparound on a mesh.
                                    {at(0, 0), at(7, 0), 7},
                                    {at(0, 0), at(0, 5), 5},
                                    {at(0, 0), at(7, 5), 12},
                                    {at(7, 0), at(0, 5), 12},
                                },
                                0x3e54ULL);
}

TEST(HopKernel, SwitchedNetworkMatchesVirtualHops) {
  const SwitchedNetwork sw(100, 16);  // last switch half full
  expect_kernel_matches_virtual(sw,
                                {
                                    {5, 5, 0},
                                    {0, 15, 2},   // same leaf switch
                                    {15, 16, 4},  // across the core
                                    {96, 99, 2},
                                    {0, 99, 4},
                                },
                                0x5a17ULL);
}

TEST(HopKernel, DragonflyMatchesVirtualHops) {
  const Dragonfly d(4, 16, 4);  // 64-node groups of 4-node routers
  expect_kernel_matches_virtual(d,
                                {
                                    {7, 7, 0},
                                    {4, 7, 2},     // same router
                                    {3, 4, 4},     // same group
                                    {0, 63, 4},
                                    {63, 64, 6},   // different groups
                                    {0, 255, 6},
                                    {192, 195, 2},
                                },
                                0xd7a6ULL);
}

TEST(HopKernel, FatTreeMatchesVirtualHops) {
  const FatTree f(300, 16, 8);  // 128-node pods, last pod partial
  expect_kernel_matches_virtual(f,
                                {
                                    {9, 9, 0},
                                    {0, 15, 2},     // same leaf
                                    {15, 16, 4},    // same pod
                                    {0, 127, 4},
                                    {127, 128, 6},  // across the core
                                    {256, 299, 4},
                                    {0, 299, 6},
                                },
                                0xfa77ULL);
}

}  // namespace
}  // namespace stormtrack
