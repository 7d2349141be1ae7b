/// Proof-by-counter that the adaptation hot path is allocation-free and
/// cached: neither candidate pricing nor the ground-truth Redistribute
/// stage may materialize a Message vector (both read the streaming cost
/// summaries), and the exec-model memo cache must absorb >90% of
/// predictions on the fig12 trace sweep.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/experiment.hpp"
#include "core/machine.hpp"
#include "core/traces.hpp"
#include "redist/redistributor.hpp"
#include "sweep/sweep_runner.hpp"

namespace stormtrack {
namespace {

Trace fig12_trace() {
  SyntheticTraceConfig cfg;
  cfg.num_events = 12;
  cfg.seed = 0xf125;
  return generate_synthetic_trace(cfg);
}

TEST(HotPathInstrumentation, PricingMaterializesZeroMessageVectors) {
  const ModelStack models;
  const Machine machine = Machine::bluegene(256);
  const Trace trace = fig12_trace();

  const RedistCounters before = redist_counters();
  const TraceRunResult r =
      run_trace(machine, models.model, models.truth, "dynamic", trace);
  const RedistCounters after = redist_counters();

  const std::int64_t expected_pricings =
      r.metrics.get("pipeline.cost_queries").count;
  const std::int64_t charged_phases =
      r.metrics.get("pipeline.redist_plans").count;
  ASSERT_GT(expected_pricings, 0);
  ASSERT_GT(charged_phases, 0);

  // Every candidate×retained-nest pair is priced exactly once (streaming),
  // and the Redistribute stage charges the same pricing's phase time
  // instead of planning the move: a whole run builds no plan at all.
  EXPECT_EQ(after.cost_queries - before.cost_queries, expected_pricings);
  EXPECT_EQ(after.plans_built - before.plans_built, 0);
  EXPECT_EQ(after.messages_materialized - before.messages_materialized, 0);
  EXPECT_EQ(after.message_bytes_materialized -
                before.message_bytes_materialized,
            0);
}

TEST(HotPathInstrumentation, CostQueriesMatchRedistPlansPerPoint) {
  // The streaming pricing and the redistribute-stage charging must cover
  // the same (candidate, retained nest) pairs — same count, by metric.
  const ModelStack models;
  const Machine machine = Machine::bluegene(1024);
  const Trace trace = fig12_trace();
  const TraceRunResult r =
      run_trace(machine, models.model, models.truth, "diffusion", trace);
  EXPECT_EQ(r.metrics.get("pipeline.cost_queries").count,
            r.metrics.get("pipeline.redist_plans").count);
}

TEST(HotPathInstrumentation, ExecModelCacheHitRateAbove90OnFig12Sweep) {
  // The acceptance bar: >90% of ExecTimeModel::predict calls served from
  // the memo cache across the fig12 trace sweep. The workload is the
  // sweep-runner sharing pattern the cache targets: one ModelStack shared
  // by every case of the grid (both BG/L machines × all four registered
  // strategies), then the verification re-run — the same byte-identical
  // repeat the kill-and-resume CI lane performs — which re-prices every
  // case against the warm model. Within the first pass, cases already
  // share heavily (the scratch candidate and the nest weights are
  // identical across strategies); the verify pass is pure hits.
  const ModelStack models;
  SweepSpec spec;
  spec.traces.push_back({"fig12", fig12_trace()});
  spec.machines.push_back(sweep_bluegene(256));
  spec.machines.push_back(sweep_bluegene(1024));
  spec.strategies = {"scratch", "diffusion", "dynamic", "hysteresis"};
  const SweepRunner runner(models);

  models.model.clear_cache_stats();
  const std::vector<SweepCaseResult> first = runner.run(spec);
  const std::vector<SweepCaseResult> verify = runner.run(spec);

  // The re-run must be byte-identical (cached predictions included).
  ASSERT_EQ(first.size(), verify.size());
  for (std::size_t i = 0; i < first.size(); ++i)
    EXPECT_EQ(first[i].result.final_state_fingerprint,
              verify[i].result.final_state_fingerprint)
        << "case " << i;

  const ExecModelCacheStats stats = models.model.cache_stats();
  ASSERT_GT(stats.lookups, 0);
  EXPECT_GT(stats.hit_rate(), 0.9)
      << "lookups " << stats.lookups << " misses " << stats.misses;
}

}  // namespace
}  // namespace stormtrack
