/// PricingCache contract, as the daemon shares one instance across
/// sessions and machines: memoized pricing is bit-identical to direct
/// sparse pricing (also through capacity flushes), hits still count as
/// cost queries (the hot-path instrumentation invariant), distinct keys
/// and scopes (machine fingerprints) never leak summaries into each other,
/// and the instance hit/miss stats account every query.

#include "redist/pricing_cache.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "core/machine.hpp"
#include "redist/redistributor.hpp"
#include "util/rng.hpp"

namespace stormtrack {
namespace {

void expect_equal(const RedistCostSummary& a, const RedistCostSummary& b) {
  EXPECT_EQ(a.total_points, b.total_points);
  EXPECT_EQ(a.overlap_points, b.overlap_points);
  EXPECT_EQ(a.total_bytes, b.total_bytes);
  EXPECT_EQ(a.hop_bytes, b.hop_bytes);
  EXPECT_EQ(a.local_bytes, b.local_bytes);
  EXPECT_EQ(a.num_messages, b.num_messages);
  EXPECT_EQ(a.max_hops, b.max_hops);
  EXPECT_EQ(a.worst_pair_time, b.worst_pair_time);
  EXPECT_EQ(a.worst_sender_time, b.worst_sender_time);
}

TEST(SharedPricingCache, HitIsBitIdenticalToDirectPricing) {
  const Machine machine = Machine::bluegene(256);
  const std::uint64_t scope = machine.fingerprint();
  PricingCache cache;
  const NestShape nest{200, 160};
  const Rect a{0, 0, 6, 5};
  const Rect b{2, 1, 7, 4};

  const RedistCostSummary direct =
      redistribution_cost(nest, a, b, machine.grid_px(), 8, &machine.comm());
  const RedistCostSummary miss =
      cache.price(scope, nest, a, b, machine.grid_px(), 8, &machine.comm());
  const RedistCostSummary hit =
      cache.price(scope, nest, a, b, machine.grid_px(), 8, &machine.comm());

  expect_equal(miss, direct);
  expect_equal(hit, direct);
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_DOUBLE_EQ(cache.stats().hit_rate(), 0.5);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(SharedPricingCache, HitServesIdenticalSummaryAndCountsAsQuery) {
  const Machine machine = Machine::bluegene(256);
  const std::uint64_t scope = machine.fingerprint();
  PricingCache cache;
  const NestShape nest{200, 160};
  const Rect a{0, 0, 6, 5};
  const Rect b{2, 1, 7, 4};

  const RedistCostSummary direct =
      redistribution_cost(nest, a, b, machine.grid_px(), 8, &machine.comm());
  const RedistCounters c0 = redist_counters();
  const RedistCostSummary miss =
      cache.price(scope, nest, a, b, machine.grid_px(), 8, &machine.comm());
  const RedistCounters c1 = redist_counters();
  const RedistCostSummary hit =
      cache.price(scope, nest, a, b, machine.grid_px(), 8, &machine.comm());
  const RedistCounters c2 = redist_counters();

  expect_equal(miss, direct);
  expect_equal(hit, direct);
  // Miss: one computed query; hit: one served query, no probes.
  EXPECT_EQ(c1.cost_queries, c0.cost_queries + 1);
  EXPECT_EQ(c1.cost_cache_misses, c0.cost_cache_misses + 1);
  EXPECT_EQ(c2.cost_queries, c1.cost_queries + 1);
  EXPECT_EQ(c2.cost_cache_hits, c1.cost_cache_hits + 1);
  EXPECT_EQ(c2.cost_cache_misses, c1.cost_cache_misses);
  EXPECT_EQ(c2.intersection_probes, c1.intersection_probes);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(SharedPricingCache, DistinctKeysDoNotCollide) {
  const Machine machine = Machine::bluegene(256);
  const std::uint64_t scope = machine.fingerprint();
  PricingCache cache;
  Xoshiro256 rng(0xcac4eULL);
  for (int trial = 0; trial < 60; ++trial) {
    const NestShape nest{static_cast<int>(rng.uniform_int(20, 300)),
                         static_cast<int>(rng.uniform_int(20, 300))};
    const int w = static_cast<int>(rng.uniform_int(1, machine.grid_px()));
    const int h = static_cast<int>(rng.uniform_int(1, machine.grid_py()));
    const Rect a{static_cast<int>(rng.uniform_int(0, machine.grid_px() - w)),
                 static_cast<int>(rng.uniform_int(0, machine.grid_py() - h)),
                 w, h};
    const Rect b{static_cast<int>(rng.uniform_int(0, machine.grid_px() - w)),
                 static_cast<int>(rng.uniform_int(0, machine.grid_py() - h)),
                 w, h};
    const RedistCostSummary direct = redistribution_cost(
        nest, a, b, machine.grid_px(), 8, &machine.comm());
    // First query computes; the re-query must hit with the same value.
    for (int pass = 0; pass < 2; ++pass) {
      expect_equal(cache.price(scope, nest, a, b, machine.grid_px(), 8,
                               &machine.comm()),
                   direct);
    }
  }
}

TEST(SharedPricingCache, CapacityFlushNeverChangesResults) {
  const Machine machine = Machine::bluegene(256);
  const std::uint64_t scope = machine.fingerprint();
  PricingCache cache(2);  // flush after every couple of entries
  const NestShape nest{128, 128};
  const Rect rects[] = {Rect{0, 0, 4, 4}, Rect{1, 1, 4, 4}, Rect{2, 2, 4, 4},
                        Rect{3, 3, 4, 4}};
  for (int round = 0; round < 3; ++round)
    for (const Rect& r : rects)
      expect_equal(cache.price(scope, nest, rects[0], r, machine.grid_px(), 8,
                               &machine.comm()),
                   redistribution_cost(nest, rects[0], r, machine.grid_px(),
                                       8, &machine.comm()));
  EXPECT_LE(cache.size(), 2u);
}

TEST(SharedPricingCache, ScopesNeverShareSummaries) {
  // Same process grid, same pricing key — different interconnects. The
  // torus and the fat-tree disagree on hop structure, so serving one
  // scope's summary for the other would be a real corruption, not a
  // hit-rate detail.
  const Machine torus = Machine::bluegene(256);
  const Machine fattree = Machine::fattree(256);
  ASSERT_EQ(torus.grid_px(), fattree.grid_px());
  ASSERT_NE(torus.fingerprint(), fattree.fingerprint());

  PricingCache cache;
  const NestShape nest{200, 160};
  const Rect a{0, 0, 6, 5};
  const Rect b{4, 2, 8, 6};

  const RedistCostSummary torus_priced =
      cache.price(torus.fingerprint(), nest, a, b, torus.grid_px(), 8,
                  &torus.comm());
  // Both scope queries must be misses: the second machine cannot be
  // served from the first machine's entry.
  EXPECT_EQ(cache.stats().misses, 1);
  const RedistCostSummary fattree_priced =
      cache.price(fattree.fingerprint(), nest, a, b, fattree.grid_px(), 8,
                  &fattree.comm());
  EXPECT_EQ(cache.stats().misses, 2);
  EXPECT_EQ(cache.stats().hits, 0);
  EXPECT_EQ(cache.size(), 2u);

  expect_equal(torus_priced, redistribution_cost(nest, a, b, torus.grid_px(),
                                                 8, &torus.comm()));
  expect_equal(fattree_priced,
               redistribution_cost(nest, a, b, fattree.grid_px(), 8,
                                   &fattree.comm()));
}

TEST(SharedPricingCache, MachineFingerprintIsStableAndDiscriminating) {
  // Equal construction → equal fingerprint (the property that makes the
  // scope a safe cross-session key); different machine or core count →
  // different fingerprint.
  EXPECT_EQ(Machine::bluegene(256).fingerprint(),
            Machine::bluegene(256).fingerprint());
  EXPECT_EQ(Machine::by_name("bgl", 256).fingerprint(),
            Machine::bluegene(256).fingerprint());
  EXPECT_NE(Machine::bluegene(256).fingerprint(),
            Machine::bluegene(1024).fingerprint());
  EXPECT_NE(Machine::bluegene(256).fingerprint(),
            Machine::fist_cluster(256).fingerprint());
  EXPECT_NE(Machine::fattree(256).fingerprint(),
            Machine::dragonfly(256).fingerprint());
}

}  // namespace
}  // namespace stormtrack
