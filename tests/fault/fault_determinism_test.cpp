#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/coupled.hpp"
#include "core/experiment.hpp"
#include "core/pipeline.hpp"
#include "core/traces.hpp"
#include "exec/executor.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "sweep/sweep_runner.hpp"

namespace stormtrack {
namespace {

FaultEvent task_event(int point, const char* site, int index, int attempts) {
  FaultEvent e;
  e.kind = FaultKind::kTaskFault;
  e.point = point;
  e.site = site;
  e.index = index;
  e.attempts = attempts;
  return e;
}

/// A campaign that drives every rung of the degradation ladder plus a rank
/// death, so the serial-vs-threaded comparison covers all recovery paths.
FaultPlan ladder_campaign(int dead_rank) {
  FaultPlan plan;
  plan.events.push_back(task_event(1, "build_candidates", 1, 1));  // retried
  FaultEvent death;
  death.kind = FaultKind::kRankDeath;
  death.point = 2;
  death.rank = dead_rank;
  plan.events.push_back(death);
  plan.events.push_back(task_event(3, "build_candidates", 1, 0));  // scratch
  plan.events.push_back(task_event(4, "commit", 0, 0));            // skipped
  plan.validate();
  return plan;
}

TEST(FaultDeterminism, SerialAndThreadedPipelinesAgreePointwise) {
  const Machine machine = Machine::bluegene(256);
  const ModelStack models;
  SyntheticTraceConfig sc;
  sc.num_events = 6;
  sc.seed = 99;
  const Trace trace = generate_synthetic_trace(sc);
  const FaultPlan plan =
      ladder_campaign(machine.grid_px() * machine.grid_py() - 1);

  FaultInjector serial_inj(plan);
  ManagerConfig serial_cfg;
  serial_cfg.injector = &serial_inj;
  AdaptationPipeline serial(machine, models.model, models.truth, serial_cfg);

  ThreadPoolExecutor pool(8);
  FaultInjector threaded_inj(plan);
  ManagerConfig threaded_cfg;
  threaded_cfg.injector = &threaded_inj;
  threaded_cfg.executor = &pool;
  AdaptationPipeline threaded(machine, models.model, models.truth,
                              threaded_cfg);

  for (std::size_t e = 0; e < trace.size(); ++e) {
    const StepOutcome a = serial.apply(trace[e]);
    const StepOutcome b = threaded.apply(trace[e]);
    EXPECT_EQ(a.chosen, b.chosen) << "point " << e;
    EXPECT_EQ(a.degraded, b.degraded) << "point " << e;
    EXPECT_EQ(a.degradation, b.degradation) << "point " << e;
    EXPECT_EQ(a.ranks_lost, b.ranks_lost) << "point " << e;
    EXPECT_EQ(a.committed.actual_total(), b.committed.actual_total())
        << "point " << e;
    EXPECT_EQ(serial.state_fingerprint(), threaded.state_fingerprint())
        << "state diverged at point " << e;
  }

  // The campaign genuinely fired, identically in both runs.
  EXPECT_GT(serial_inj.stats().task_faults, 0);
  EXPECT_EQ(serial_inj.stats().task_faults, threaded_inj.stats().task_faults);
  EXPECT_EQ(serial.metrics().get("recovery.retried_points").count, 1);
  EXPECT_EQ(serial.metrics().get("recovery.scratch_fallbacks").count, 1);
  EXPECT_EQ(serial.metrics().get("recovery.skipped_points").count, 1);
  EXPECT_EQ(serial.metrics().get("fault.rank_deaths").count, 1);
}

TEST(FaultDeterminism, SweepUnderFaultPlanIsThreadCountInvariant) {
  const ModelStack models;
  SyntheticTraceConfig sc;
  sc.num_events = 6;
  sc.seed = 31;
  SweepSpec spec;
  spec.traces.push_back({"t31", generate_synthetic_trace(sc)});
  sc.seed = 32;
  spec.traces.push_back({"t32", generate_synthetic_trace(sc)});
  spec.machines.push_back(sweep_bluegene(256));
  spec.strategies = {"scratch", "diffusion"};
  const FaultPlan plan = ladder_campaign(255);
  spec.fault_plan = &plan;

  const SweepRunner runner(models);
  spec.threads = 1;
  const std::vector<SweepCaseResult> one = runner.run(spec);
  spec.threads = 4;
  const std::vector<SweepCaseResult> four = runner.run(spec);

  ASSERT_EQ(one.size(), four.size());
  ASSERT_EQ(one.size(), spec.num_cases());
  for (std::size_t c = 0; c < one.size(); ++c) {
    const TraceRunResult& a = one[c].result;
    const TraceRunResult& b = four[c].result;
    ASSERT_EQ(a.outcomes.size(), b.outcomes.size()) << "case " << c;
    for (std::size_t e = 0; e < a.outcomes.size(); ++e) {
      EXPECT_EQ(a.outcomes[e].chosen, b.outcomes[e].chosen)
          << "case " << c << " point " << e;
      EXPECT_EQ(a.outcomes[e].degradation, b.outcomes[e].degradation)
          << "case " << c << " point " << e;
      EXPECT_EQ(a.outcomes[e].allocation.rects(),
                b.outcomes[e].allocation.rects())
          << "case " << c << " point " << e;
    }
    EXPECT_EQ(a.total_redist(), b.total_redist()) << "case " << c;
    EXPECT_EQ(a.total_exec(), b.total_exec()) << "case " << c;
  }

  // Every case saw the campaign (each runs under its own injector).
  const MetricsRegistry merged = merged_metrics(one);
  EXPECT_EQ(merged.get("recovery.skipped_points").count,
            static_cast<std::int64_t>(spec.num_cases()));
  EXPECT_EQ(merged.get("recovery.skipped_points").count,
            merged_metrics(four).get("recovery.skipped_points").count);
}

TEST(FaultDeterminism, CoupledRunsAgreeAcrossExecutors) {
  const Machine machine = Machine::bluegene(256);
  const ModelStack models;
  FaultPlan plan;
  plan.events.push_back(task_event(2, "build_candidates", 1, 1));
  for (int point = 1; point < 6; ++point) {
    FaultEvent drop;
    drop.kind = FaultKind::kPayloadDrop;
    drop.point = point;
    drop.attempts = 0;  // every matching payload, scheduling-independent
    plan.events.push_back(drop);
  }
  plan.validate();

  auto config = [] {
    CoupledConfig c;
    c.scenario.weather.domain.resolution_km = 24.0;
    c.scenario.sim_px = 16;
    c.scenario.sim_py = 16;
    c.scenario.pda.analysis_procs = 16;
    c.manager.steps_per_interval = 3;
    return c;
  };

  FaultInjector serial_inj(plan);
  CoupledConfig serial_cfg = config();
  serial_cfg.manager.injector = &serial_inj;
  CoupledSimulation serial(machine, models.model, models.truth, serial_cfg);

  ThreadPoolExecutor pool(8);
  FaultInjector threaded_inj(plan);
  CoupledConfig threaded_cfg = config();
  threaded_cfg.manager.injector = &threaded_inj;
  threaded_cfg.manager.executor = &pool;
  CoupledSimulation threaded(machine, models.model, models.truth,
                             threaded_cfg);

  for (int i = 0; i < 6; ++i) {
    const IntervalReport a = serial.advance();
    const IntervalReport b = threaded.advance();
    EXPECT_EQ(a.realloc.chosen, b.realloc.chosen) << "interval " << i;
    EXPECT_EQ(a.realloc.degradation, b.realloc.degradation)
        << "interval " << i;
    EXPECT_EQ(serial.allocation().rects(), threaded.allocation().rects())
        << "interval " << i;
    ASSERT_EQ(serial.nests().size(), threaded.nests().size())
        << "interval " << i;
    for (const auto& [id, nest] : serial.nests()) {
      const auto it = threaded.nests().find(id);
      ASSERT_NE(it, threaded.nests().end()) << "nest " << id;
      EXPECT_EQ(nest.field.data(), it->second.field.data())
          << "interval " << i << " nest " << id;
    }
  }
  EXPECT_GT(serial_inj.stats().payload_drops, 0);
  EXPECT_EQ(serial_inj.stats().payload_drops,
            threaded_inj.stats().payload_drops);
}

}  // namespace
}  // namespace stormtrack
