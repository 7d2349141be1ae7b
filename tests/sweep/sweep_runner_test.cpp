#include "sweep/sweep_runner.hpp"

#include <gtest/gtest.h>

#include <string>

#include "exec/executor.hpp"
#include "util/check.hpp"

namespace stormtrack {
namespace {

SweepSpec small_grid() {
  SweepSpec spec;
  SyntheticTraceConfig a;
  a.num_events = 6;
  a.seed = 21;
  SyntheticTraceConfig b;
  b.num_events = 9;
  b.seed = 42;
  spec.traces.push_back({"a", generate_synthetic_trace(a)});
  spec.traces.push_back({"b", generate_synthetic_trace(b)});
  spec.machines.push_back(sweep_bluegene(256));
  spec.machines.push_back(sweep_fist_cluster(256));
  spec.strategies = {"scratch", "diffusion", "dynamic"};
  return spec;
}

/// Asserts every observable field of \p x and \p y is identical,
/// including the exact bit pattern of every double and every committed
/// allocation rectangle.
void expect_identical(const std::vector<SweepCaseResult>& x,
                      const std::vector<SweepCaseResult>& y) {
  ASSERT_EQ(x.size(), y.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    SCOPED_TRACE("case " + std::to_string(i));
    EXPECT_EQ(x[i].trace_name, y[i].trace_name);
    EXPECT_EQ(x[i].machine_name, y[i].machine_name);
    EXPECT_EQ(x[i].machine_label, y[i].machine_label);
    EXPECT_EQ(x[i].strategy, y[i].strategy);
    const TraceRunResult& rx = x[i].result;
    const TraceRunResult& ry = y[i].result;
    ASSERT_EQ(rx.outcomes.size(), ry.outcomes.size());
    EXPECT_EQ(rx.total_exec(), ry.total_exec());
    EXPECT_EQ(rx.total_redist(), ry.total_redist());
    EXPECT_EQ(rx.total_hop_bytes(), ry.total_hop_bytes());
    for (std::size_t e = 0; e < rx.outcomes.size(); ++e) {
      const StepOutcome& ox = rx.outcomes[e];
      const StepOutcome& oy = ry.outcomes[e];
      EXPECT_EQ(ox.chosen, oy.chosen);
      EXPECT_EQ(ox.committed.actual_exec, oy.committed.actual_exec);
      EXPECT_EQ(ox.committed.actual_redist, oy.committed.actual_redist);
      EXPECT_EQ(ox.committed.predicted_exec, oy.committed.predicted_exec);
      EXPECT_EQ(ox.committed.predicted_redist, oy.committed.predicted_redist);
      EXPECT_EQ(ox.traffic.total_bytes, oy.traffic.total_bytes);
      EXPECT_EQ(ox.traffic.hop_bytes, oy.traffic.hop_bytes);
      EXPECT_EQ(ox.overlap_fraction, oy.overlap_fraction);
      EXPECT_EQ(ox.allocation.rects(), oy.allocation.rects());
    }
  }
}

TEST(SweepRunner, ThreadedRunIsByteIdenticalToSerial) {
  const ModelStack models;
  const SweepRunner runner(models);

  SweepSpec serial = small_grid();
  serial.threads = 1;
  SweepSpec threaded = small_grid();
  threaded.threads = 4;

  const std::vector<SweepCaseResult> s = runner.run(serial);
  const std::vector<SweepCaseResult> t = runner.run(threaded);
  ASSERT_EQ(s.size(), 12u);
  expect_identical(s, t);
}

TEST(SweepRunner, ResultsOrderedTraceMajorThenMachineThenStrategy) {
  const ModelStack models;
  SweepSpec spec = small_grid();
  spec.threads = 2;
  const std::vector<SweepCaseResult> r = SweepRunner(models).run(spec);
  ASSERT_EQ(r.size(), spec.num_cases());
  std::size_t i = 0;
  for (std::size_t ti = 0; ti < spec.traces.size(); ++ti)
    for (std::size_t mi = 0; mi < spec.machines.size(); ++mi)
      for (std::size_t si = 0; si < spec.strategies.size(); ++si, ++i) {
        EXPECT_EQ(r[i].trace_index, ti);
        EXPECT_EQ(r[i].machine_index, mi);
        EXPECT_EQ(r[i].strategy_index, si);
        EXPECT_EQ(r[i].trace_name, spec.traces[ti].name);
        EXPECT_EQ(r[i].machine_name, spec.machines[mi].name);
        EXPECT_EQ(r[i].strategy, spec.strategies[si]);
        EXPECT_EQ(r[i].result.outcomes.size(),
                  spec.traces[ti].trace.size());
      }
}

TEST(SweepRunner, FindCaseByNameAndErrors) {
  const ModelStack models;
  SweepSpec spec;
  SyntheticTraceConfig t;
  t.num_events = 3;
  spec.traces.push_back({"only", generate_synthetic_trace(t)});
  spec.machines.push_back(sweep_bluegene(256));
  spec.strategies = {"diffusion"};
  spec.threads = 1;
  const std::vector<SweepCaseResult> r = SweepRunner(models).run(spec);
  const SweepCaseResult& c = find_case(r, "only", "bluegene-256", "diffusion");
  EXPECT_EQ(c.machine_label, Machine::bluegene(256).label());
  EXPECT_THROW((void)find_case(r, "only", "bluegene-256", "scratch"),
               CheckError);
  EXPECT_THROW((void)find_case(r, "nope", "bluegene-256", "diffusion"),
               CheckError);
}

TEST(SweepRunner, UnknownStrategyRejectedBeforeAnyWorkRuns) {
  const ModelStack models;
  SweepSpec spec;
  SyntheticTraceConfig t;
  t.num_events = 2;
  spec.traces.push_back({"only", generate_synthetic_trace(t)});
  spec.machines.push_back(sweep_bluegene(256));
  spec.strategies = {"diffusion", "not-a-strategy"};
  EXPECT_THROW((void)SweepRunner(models).run(spec), CheckError);
}

TEST(SweepRunner, ExecutorInSpecConfigIsRefused) {
  // The runner owns the executor; SweepSpec::threads is the only knob.
  const ModelStack models;
  SerialExecutor serial;
  SweepSpec spec = small_grid();
  spec.config.executor = &serial;
  try {
    (void)SweepRunner(models).run(spec);
    FAIL() << "a spec naming its own executor must be refused";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("config.executor must be null"),
              std::string::npos)
        << e.what();
  }
}

TEST(SweepRunner, EmptyGridYieldsNoResults) {
  const ModelStack models;
  const SweepSpec spec;  // no traces, machines or strategies
  EXPECT_TRUE(SweepRunner(models).run(spec).empty());
}

TEST(SweepRunner, MergedMetricsAccumulateAcrossCases) {
  const ModelStack models;
  SweepSpec spec;
  SyntheticTraceConfig t;
  t.num_events = 4;
  spec.traces.push_back({"only", generate_synthetic_trace(t)});
  spec.machines.push_back(sweep_bluegene(256));
  spec.strategies = {"scratch", "diffusion"};
  spec.threads = 2;
  const std::vector<SweepCaseResult> r = SweepRunner(models).run(spec);
  const MetricsRegistry merged = merged_metrics(r);
  // 2 cases x 4 adaptation points, every stage timed at each point.
  for (int s = 0; s < kNumPipelineStages; ++s)
    EXPECT_EQ(merged.get(stage_metric_name(static_cast<PipelineStage>(s)))
                  .count,
              8);
  EXPECT_EQ(merged.get("pipeline.adaptation_points").count, 8);
}

}  // namespace
}  // namespace stormtrack
