/// The pipeline's memoized pricing is a pure optimization: runs on the
/// pipeline's own cache and on an injected, already-warm cache are
/// bit-identical (fingerprints, outcomes, and metric totals), a steady
/// trace actually produces hits, and the pipeline.stable_subtrees metric
/// surfaces the incremental structure.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/experiment.hpp"
#include "core/machine.hpp"
#include "core/traces.hpp"
#include "redist/pricing_cache.hpp"
#include "redist/redistributor.hpp"

namespace stormtrack {
namespace {

Trace test_trace() {
  SyntheticTraceConfig cfg;
  cfg.num_events = 14;
  cfg.seed = 0xcac4e;
  return generate_synthetic_trace(cfg);
}

/// A trace whose active set never changes after the first event — the
/// diffusion steady state, where every pricing repeats.
Trace steady_trace(int events) {
  Trace t = test_trace();
  Trace steady;
  for (int i = 0; i < events; ++i) steady.push_back(t.front());
  return steady;
}

TEST(PricingCache, WarmInjectedCacheMatchesOwnCache) {
  // The uncached oracle is StrategyGolden.PipelineMatchesPreRefactorEnumPaths
  // (strategy_test.cpp), whose values predate any pricing cache. Here the
  // pipeline's own cache is checked against an injected one that an
  // identical run has already warmed: every pricing is then a hit.
  const ModelStack models;
  const Machine machine = Machine::bluegene(256);
  const Trace trace = test_trace();

  const TraceRunResult own = run_trace(machine, models.model, models.truth,
                                       "dynamic", trace, ManagerConfig{});
  PricingCache shared;
  ManagerConfig injected;
  injected.pricing_cache = &shared;
  (void)run_trace(machine, models.model, models.truth, "dynamic", trace,
                  injected);
  const RedistCounters before = redist_counters();
  const TraceRunResult warm = run_trace(machine, models.model, models.truth,
                                        "dynamic", trace, injected);
  const RedistCounters after = redist_counters();

  EXPECT_EQ(own.final_state_fingerprint, warm.final_state_fingerprint);
  ASSERT_EQ(own.outcomes.size(), warm.outcomes.size());
  for (std::size_t i = 0; i < own.outcomes.size(); ++i) {
    EXPECT_EQ(own.outcomes[i].chosen, warm.outcomes[i].chosen) << i;
    EXPECT_EQ(own.outcomes[i].committed.predicted_redist,
              warm.outcomes[i].committed.predicted_redist)
        << i;
    EXPECT_EQ(own.outcomes[i].traffic.hop_bytes,
              warm.outcomes[i].traffic.hop_bytes)
        << i;
    EXPECT_EQ(own.outcomes[i].overlap_fraction,
              warm.outcomes[i].overlap_fraction)
        << i;
  }
  // Same pricing totals too: served and computed queries count alike.
  EXPECT_EQ(own.metrics.get("pipeline.cost_queries").count,
            warm.metrics.get("pipeline.cost_queries").count);
  EXPECT_EQ(own.metrics.get("pipeline.stable_subtrees").count,
            warm.metrics.get("pipeline.stable_subtrees").count);
  // Nothing recomputed: the warm run priced through the injected cache.
  EXPECT_EQ(after.cost_cache_misses, before.cost_cache_misses);
  EXPECT_EQ(after.cost_cache_hits - before.cost_cache_hits,
            warm.metrics.get("pipeline.cost_queries").count);
}

TEST(PricingCache, SteadyTraceServesRepeatsFromCache) {
  const ModelStack models;
  const Machine machine = Machine::bluegene(256);
  const Trace trace = steady_trace(10);

  const RedistCounters before = redist_counters();
  const TraceRunResult r =
      run_trace(machine, models.model, models.truth, "diffusion", trace);
  const RedistCounters after = redist_counters();

  // Events 2..10 re-price the exact rectangles event 1 committed.
  EXPECT_GT(after.cost_cache_hits - before.cost_cache_hits, 0);
  // Hits + misses cover every pricing the pipeline reported.
  EXPECT_EQ((after.cost_cache_hits - before.cost_cache_hits) +
                (after.cost_cache_misses - before.cost_cache_misses),
            r.metrics.get("pipeline.cost_queries").count);
  // Steady state: retained nests' subtrees survive diffusion untouched.
  EXPECT_GT(r.metrics.get("pipeline.stable_subtrees").count, 0);
}

TEST(PricingCache, HotpathCounterInvariantHoldsWithCacheOn) {
  // The instrumentation contract (hotpath_instrumentation_test) must hold
  // with memoization enabled, on the pipeline's own cache and on an
  // injected one: every pricing, hit or miss, is a cost query.
  const ModelStack models;
  const Machine machine = Machine::bluegene(256);
  const Trace trace = steady_trace(6);
  PricingCache shared;
  ManagerConfig injected;
  injected.pricing_cache = &shared;

  for (const ManagerConfig& config : {ManagerConfig{}, injected}) {
    const RedistCounters before = redist_counters();
    const TraceRunResult r = run_trace(machine, models.model, models.truth,
                                       "dynamic", trace, config);
    const RedistCounters after = redist_counters();
    const std::int64_t queries = r.metrics.get("pipeline.cost_queries").count;
    EXPECT_EQ(after.cost_queries - before.cost_queries, queries);
    EXPECT_EQ((after.cost_cache_hits - before.cost_cache_hits) +
                  (after.cost_cache_misses - before.cost_cache_misses),
              queries);
  }
}

}  // namespace
}  // namespace stormtrack
