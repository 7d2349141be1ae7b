#include "redist/block_decomp.hpp"

#include <gtest/gtest.h>

#include <set>

#include "util/check.hpp"

namespace stormtrack {
namespace {

TEST(BlockRange, EvenSplit) {
  EXPECT_EQ(block_range(0, 12, 4).begin, 0);
  EXPECT_EQ(block_range(0, 12, 4).count, 3);
  EXPECT_EQ(block_range(3, 12, 4).begin, 9);
}

TEST(BlockRange, UnevenSplitCoversAll) {
  int covered = 0;
  int prev_end = 0;
  for (int k = 0; k < 5; ++k) {
    const Span1D s = block_range(k, 13, 5);
    EXPECT_EQ(s.begin, prev_end);
    covered += s.count;
    prev_end = s.end();
  }
  EXPECT_EQ(covered, 13);
}

TEST(BlockRange, MorePartsThanItems) {
  int nonempty = 0;
  for (int k = 0; k < 8; ++k)
    if (block_range(k, 3, 8).count > 0) ++nonempty;
  EXPECT_EQ(nonempty, 3);
}

TEST(OverlappingParts, ExactRange) {
  // 12 items in 4 parts of 3: [0,3) [3,6) [6,9) [9,12).
  const PartRange r = overlapping_parts(2, 7, 12, 4);
  EXPECT_EQ(r.first, 0);
  EXPECT_EQ(r.last, 2);
  const PartRange single = overlapping_parts(3, 6, 12, 4);
  EXPECT_EQ(single.first, 1);
  EXPECT_EQ(single.last, 1);
}

TEST(OverlappingParts, EmptyRange) {
  const PartRange r = overlapping_parts(5, 5, 12, 4);
  EXPECT_GT(r.first, r.last);
}

TEST(OverlappingParts, AgreesWithBlockRangeExhaustively) {
  for (const int n : {7, 12, 100}) {
    for (const int parts : {1, 3, 5, 8}) {
      for (int lo = 0; lo < n; ++lo) {
        for (int hi = lo + 1; hi <= n; ++hi) {
          const PartRange r = overlapping_parts(lo, hi, n, parts);
          for (int k = 0; k < parts; ++k) {
            const Span1D s = block_range(k, n, parts);
            const bool intersects = s.count > 0 && s.begin < hi &&
                                    s.end() > lo;
            const bool in_range = k >= r.first && k <= r.last;
            // Empty blocks inside the range are harmless (they contribute
            // empty intersections); non-empty intersecting blocks must be
            // covered and non-intersecting non-empty blocks excluded.
            if (intersects) {
              EXPECT_TRUE(in_range);
            }
            if (!intersects && s.count > 0 && in_range) {
              // allowed only if block is empty — contradiction
              ADD_FAILURE() << "non-intersecting block " << k
                            << " inside range for n=" << n
                            << " parts=" << parts << " [" << lo << "," << hi
                            << ")";
            }
          }
        }
      }
    }
  }
}

TEST(BlockDecomposition, PaperFig3Example) {
  // Nest over a 4×4 processor rectangle at grid origin, then over a 2×2
  // one: receiver block (0,0) of the 2×2 overlaps senders 0,1,4,5.
  const NestShape nest{8, 8};
  const BlockDecomposition old_d(nest, Rect{0, 0, 4, 4}, 4);
  const BlockDecomposition new_d(nest, Rect{0, 0, 2, 2}, 4);
  const Rect recv = new_d.owned_region(0, 0);
  EXPECT_EQ(recv, (Rect{0, 0, 4, 4}));
  std::set<int> senders;
  for (int y = 0; y < recv.h; ++y)
    for (int x = 0; x < recv.w; ++x)
      senders.insert(old_d.owner_rank(recv.x + x, recv.y + y));
  EXPECT_EQ(senders, (std::set<int>{0, 1, 4, 5}));
}

TEST(BlockDecomposition, RegionsTileNest) {
  const NestShape nest{202, 349};
  const BlockDecomposition d(nest, Rect{3, 5, 13, 16}, 32);
  std::int64_t area = 0;
  for (int j = 0; j < 16; ++j)
    for (int i = 0; i < 13; ++i) area += d.owned_region(i, j).area();
  EXPECT_EQ(area, static_cast<std::int64_t>(202) * 349);
}

TEST(BlockDecomposition, OwnerRankConsistentWithRegions) {
  const NestShape nest{37, 29};
  const BlockDecomposition d(nest, Rect{2, 1, 5, 7}, 16);
  for (int j = 0; j < 7; ++j) {
    for (int i = 0; i < 5; ++i) {
      const Rect r = d.owned_region(i, j);
      for (int y = r.y; y < r.y_end(); ++y)
        for (int x = r.x; x < r.x_end(); ++x)
          EXPECT_EQ(d.owner_rank(x, y), d.rank_at(i, j));
    }
  }
}

TEST(BlockDecomposition, GlobalRankRowMajor) {
  const BlockDecomposition d(NestShape{10, 10}, Rect{13, 13, 19, 19}, 32);
  EXPECT_EQ(d.rank_at(0, 0), 429);  // paper nest 5's start rank
  EXPECT_EQ(d.rank_at(1, 0), 430);
  EXPECT_EQ(d.rank_at(0, 1), 461);
}

TEST(BlockDecomposition, InvalidArgsThrow) {
  EXPECT_THROW(BlockDecomposition(NestShape{0, 5}, Rect{0, 0, 2, 2}, 4),
               CheckError);
  EXPECT_THROW(BlockDecomposition(NestShape{5, 5}, Rect{0, 0, 0, 2}, 4),
               CheckError);
  EXPECT_THROW(BlockDecomposition(NestShape{5, 5}, Rect{3, 0, 2, 2}, 4),
               CheckError);
}

}  // namespace
}  // namespace stormtrack
