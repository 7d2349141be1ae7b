#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "util/check.hpp"

namespace stormtrack {
namespace {

class ManagerTest : public ::testing::Test {
 protected:
  ManagerTest() : machine_(Machine::bluegene(256)) {}

  NestSpec nest(int id, int nx, int ny) const {
    NestSpec n;
    n.id = id;
    n.region = Rect{0, 0, nx / 3, ny / 3};
    n.shape = NestShape{nx, ny};
    return n;
  }

  ModelStack models_;
  Machine machine_;
};

TEST_F(ManagerTest, FirstEventAllInserted) {
  AdaptationPipeline mgr(machine_, models_.model, models_.truth,
                          ManagerConfig{});
  const std::vector<NestSpec> active{nest(1, 200, 200), nest(2, 300, 250)};
  const StepOutcome out = mgr.apply(active);
  EXPECT_EQ(out.num_inserted, 2);
  EXPECT_EQ(out.num_retained, 0);
  EXPECT_EQ(out.num_deleted, 0);
  EXPECT_DOUBLE_EQ(out.committed.actual_redist, 0.0);  // nothing to move
  EXPECT_GT(out.committed.actual_exec, 0.0);
  EXPECT_EQ(out.allocation.num_nests(), 2u);
}

TEST_F(ManagerTest, RetainedNestsPayRedistribution) {
  AdaptationPipeline mgr(machine_, models_.model, models_.truth,
                          ManagerConfig{});
  mgr.apply(std::vector<NestSpec>{nest(1, 200, 200), nest(2, 300, 250)});
  // Delete 2, keep 1, add a much bigger 3: nest 1's processor share shrinks
  // substantially, so its rectangle must change -> redistribution traffic.
  const StepOutcome out =
      mgr.apply(std::vector<NestSpec>{nest(1, 200, 200), nest(3, 350, 350)});
  EXPECT_EQ(out.num_retained, 1);
  EXPECT_EQ(out.num_deleted, 1);
  EXPECT_EQ(out.num_inserted, 1);
  EXPECT_GT(out.committed.actual_redist, 0.0);
  EXPECT_GT(out.traffic.total_bytes + out.traffic.local_bytes, 0);
}

TEST_F(ManagerTest, DiffusionOverlapAtLeastScratchOnAverage) {
  ManagerConfig cfg;
  cfg.strategy = "diffusion";
  AdaptationPipeline diff(machine_, models_.model, models_.truth, cfg);
  cfg.strategy = "scratch";
  AdaptationPipeline scratch(machine_, models_.model, models_.truth, cfg);

  double d_sum = 0.0, s_sum = 0.0;
  std::vector<std::vector<NestSpec>> steps{
      {nest(1, 200, 200), nest(2, 300, 250), nest(3, 250, 300)},
      {nest(1, 200, 200), nest(3, 250, 300), nest(4, 220, 220)},
      {nest(3, 250, 300), nest(4, 220, 220), nest(5, 330, 180)},
      {nest(3, 250, 300), nest(5, 330, 180)},
      {nest(3, 250, 300), nest(5, 330, 180), nest(6, 200, 340)},
  };
  for (const auto& s : steps) {
    d_sum += diff.apply(s).overlap_fraction;
    s_sum += scratch.apply(s).overlap_fraction;
  }
  EXPECT_GE(d_sum, s_sum);
}

TEST_F(ManagerTest, StrategiesCommitTheirNamesake) {
  ManagerConfig cfg;
  cfg.strategy = "scratch";
  AdaptationPipeline scratch(machine_, models_.model, models_.truth, cfg);
  const std::vector<NestSpec> a{nest(1, 200, 200), nest(2, 300, 250)};
  EXPECT_EQ(scratch.apply(a).chosen, "scratch");

  cfg.strategy = "diffusion";
  AdaptationPipeline diff(machine_, models_.model, models_.truth, cfg);
  EXPECT_EQ(diff.apply(a).chosen, "diffusion");
}

TEST_F(ManagerTest, DynamicPicksSmallerPredictedTotal) {
  ManagerConfig cfg;
  cfg.strategy = "dynamic";
  AdaptationPipeline mgr(machine_, models_.model, models_.truth, cfg);
  mgr.apply(std::vector<NestSpec>{nest(1, 200, 200), nest(2, 300, 250)});
  const StepOutcome out =
      mgr.apply(std::vector<NestSpec>{nest(1, 200, 200), nest(3, 260, 260)});
  const bool diffusion_cheaper =
      out.diffusion.predicted_total() <= out.scratch.predicted_total();
  EXPECT_EQ(out.chosen, diffusion_cheaper ? "diffusion" : "scratch");
  EXPECT_DOUBLE_EQ(out.committed.actual_total(),
                   (diffusion_cheaper ? out.diffusion : out.scratch)
                       .actual_total());
}

TEST_F(ManagerTest, EmptyActiveSetClearsAllocation) {
  AdaptationPipeline mgr(machine_, models_.model, models_.truth,
                          ManagerConfig{});
  mgr.apply(std::vector<NestSpec>{nest(1, 200, 200)});
  const StepOutcome out = mgr.apply(std::vector<NestSpec>{});
  EXPECT_EQ(out.num_deleted, 1);
  EXPECT_EQ(out.allocation.num_nests(), 0u);
  EXPECT_DOUBLE_EQ(out.committed.actual_exec, 0.0);
}

TEST_F(ManagerTest, DuplicateIdsRejected) {
  AdaptationPipeline mgr(machine_, models_.model, models_.truth,
                          ManagerConfig{});
  const std::vector<NestSpec> dup{nest(1, 200, 200), nest(1, 300, 300)};
  EXPECT_THROW((void)mgr.apply(dup), CheckError);
}

TEST_F(ManagerTest, PredictedRedistNeverExceedsSimulatedActual) {
  // The §IV-C-1 predictor (pair max) lower-bounds the simulated network's
  // single-port+contention charge on direct networks.
  AdaptationPipeline mgr(machine_, models_.model, models_.truth,
                          ManagerConfig{});
  mgr.apply(std::vector<NestSpec>{nest(1, 200, 200), nest(2, 300, 250)});
  const StepOutcome out =
      mgr.apply(std::vector<NestSpec>{nest(1, 200, 200), nest(3, 350, 350)});
  EXPECT_GT(out.committed.predicted_redist, 0.0);
  EXPECT_LE(out.committed.predicted_redist,
            out.committed.actual_redist * (1.0 + 1e-12));
}

TEST(RunTrace, AggregatesOutcomes) {
  ModelStack models;
  const Machine machine = Machine::bluegene(256);
  SyntheticTraceConfig tcfg;
  tcfg.num_events = 8;
  tcfg.seed = 5;
  const Trace trace = generate_synthetic_trace(tcfg);
  const TraceRunResult r = run_trace(machine, models.model, models.truth,
                                     "diffusion", trace);
  EXPECT_EQ(r.outcomes.size(), 8u);
  EXPECT_GT(r.total_exec(), 0.0);
  EXPECT_GE(r.total_redist(), 0.0);
  EXPECT_EQ(r.diffusion_picks(), 8);
}

TEST(PipelineStageNames, OrderedAndDistinct) {
  EXPECT_EQ(to_string(PipelineStage::kDiffNests), "diff_nests");
  EXPECT_EQ(to_string(PipelineStage::kDeriveWeights), "derive_weights");
  EXPECT_EQ(to_string(PipelineStage::kBuildCandidates), "build_candidates");
  EXPECT_EQ(to_string(PipelineStage::kPredictCosts), "predict_costs");
  EXPECT_EQ(to_string(PipelineStage::kCommit), "commit");
  EXPECT_EQ(to_string(PipelineStage::kRedistribute), "redistribute");
  // Metric keys sort in execution order so per-stage tables read top-down.
  for (int s = 1; s < kNumPipelineStages; ++s)
    EXPECT_LT(stage_metric_name(static_cast<PipelineStage>(s - 1)),
              stage_metric_name(static_cast<PipelineStage>(s)));
}

TEST(PipelineMetrics, EveryStageTimedEveryAdaptationPoint) {
  ModelStack models;
  const Machine machine = Machine::bluegene(256);
  SyntheticTraceConfig tcfg;
  tcfg.num_events = 5;
  tcfg.seed = 11;
  const TraceRunResult r =
      run_trace(machine, models.model, models.truth, "dynamic",
                generate_synthetic_trace(tcfg));
  for (int s = 0; s < kNumPipelineStages; ++s) {
    const MetricsRegistry::Entry e =
        r.metrics.get(stage_metric_name(static_cast<PipelineStage>(s)));
    EXPECT_EQ(e.count, 5) << to_string(static_cast<PipelineStage>(s));
    EXPECT_GE(e.seconds, 0.0);
  }
  EXPECT_EQ(r.metrics.get("pipeline.adaptation_points").count, 5);
  EXPECT_EQ(r.metrics.get("pipeline.candidates_built").count, 10);
}

TEST(AdaptationPipeline, UnknownStrategyNameThrows) {
  ModelStack models;
  const Machine machine = Machine::bluegene(256);
  ManagerConfig cfg;
  cfg.strategy = "no-such-strategy";
  EXPECT_THROW(AdaptationPipeline(machine, models.model, models.truth, cfg),
               CheckError);
}

}  // namespace
}  // namespace stormtrack
