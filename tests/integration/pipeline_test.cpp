/// End-to-end integration: weather simulation → split files → PDA → nest
/// tracking → reallocation (both strategies) → redistribution on the
/// simulated Blue Gene/L, asserting the paper's qualitative claims hold for
/// the whole pipeline, not just for isolated modules.

#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "core/traces.hpp"
#include "util/stats.hpp"
#include "wsim/nest.hpp"

namespace stormtrack {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  static RealScenarioConfig scenario() {
    RealScenarioConfig cfg;
    cfg.weather.domain.resolution_km = 24.0;  // test-sized parent grid
    cfg.num_intervals = 12;
    cfg.sim_px = 16;
    cfg.sim_py = 16;
    cfg.pda.analysis_procs = 16;
    return cfg;
  }
};

TEST_F(PipelineTest, RealTraceThroughBothStrategies) {
  const Trace trace = generate_real_trace(scenario());
  ModelStack models;
  const Machine bgl = Machine::bluegene(256);

  const TraceRunResult diff = run_trace(bgl, models.model, models.truth,
                                        "diffusion", trace);
  const TraceRunResult scratch = run_trace(bgl, models.model, models.truth,
                                           "scratch", trace);
  ASSERT_EQ(diff.outcomes.size(), trace.size());

  // §V-D/E: diffusion must not lose on redistribution, hop-bytes or
  // overlap over a whole trace.
  EXPECT_LE(diff.total_redist(), scratch.total_redist() * 1.001);
  EXPECT_LE(diff.total_hop_bytes(), scratch.total_hop_bytes());
  EXPECT_GE(diff.mean_overlap_fraction(),
            scratch.mean_overlap_fraction() - 1e-12);
}

TEST_F(PipelineTest, DynamicNeverWorseThanBothOnPredictions) {
  const Trace trace = generate_real_trace(scenario());
  ModelStack models;
  const Machine bgl = Machine::bluegene(256);
  const TraceRunResult dyn = run_trace(bgl, models.model, models.truth,
                                       "dynamic", trace);
  for (const StepOutcome& o : dyn.outcomes) {
    EXPECT_LE(o.committed.predicted_total(),
              std::min(o.scratch.predicted_total(),
                       o.diffusion.predicted_total()) +
                  1e-12);
  }
}

TEST_F(PipelineTest, NestFieldsSurviveRedistribution) {
  // Spawn a nest over a detected ROI, interpolate its field, move it
  // between the allocations of two consecutive adaptation points, and
  // verify bit-exact conservation.
  RealScenarioConfig cfg = scenario();
  RealScenarioDriver driver(cfg);
  RealScenarioStep step;
  for (int i = 0; i < 5; ++i) step = driver.next();
  ASSERT_FALSE(step.active.empty());

  const NestSpec nest = step.active.front();
  const NestField field(driver.weather().qcloud(), nest.region);

  const Machine bgl = Machine::bluegene(256);
  const Grid2D<double> moved =
      redistribute_field(bgl.comm(), field.data(), Rect{0, 0, 8, 8},
                         Rect{4, 9, 6, 5}, bgl.grid_px());
  EXPECT_EQ(moved, field.data());
  EXPECT_EQ(redistribution_cost(field.shape(), Rect{0, 0, 8, 8},
                                Rect{4, 9, 6, 5}, bgl.grid_px(),
                                kDefaultBytesPerPoint, &bgl.comm())
                .total_points,
            static_cast<std::int64_t>(field.shape().nx) * field.shape().ny);
}

TEST_F(PipelineTest, SyntheticTraceAggregateImprovement) {
  // Table IV direction on a small synthetic batch: diffusion improves
  // redistribution time vs scratch.
  SyntheticTraceConfig tcfg;
  tcfg.num_events = 20;
  tcfg.seed = 4242;
  const Trace trace = generate_synthetic_trace(tcfg);
  ModelStack models;
  const Machine bgl = Machine::bluegene(256);
  const TraceRunResult diff = run_trace(bgl, models.model, models.truth,
                                        "diffusion", trace);
  const TraceRunResult scratch = run_trace(bgl, models.model, models.truth,
                                           "scratch", trace);
  EXPECT_LT(diff.total_redist(), scratch.total_redist());
  // §V-D: diffusion pays a small execution-time penalty, but bounded.
  EXPECT_LT(diff.total_exec(), scratch.total_exec() * 1.15);
}

TEST_F(PipelineTest, AllocationsAlwaysDisjointAndComplete) {
  SyntheticTraceConfig tcfg;
  tcfg.num_events = 15;
  tcfg.seed = 77;
  const Trace trace = generate_synthetic_trace(tcfg);
  ModelStack models;
  const Machine bgl = Machine::bluegene(256);
  const TraceRunResult r = run_trace(bgl, models.model, models.truth,
                                     "diffusion", trace);
  for (std::size_t e = 0; e < trace.size(); ++e) {
    // Allocation construction validates disjointness; assert coverage of
    // every active nest here.
    for (const NestSpec& n : trace[e])
      EXPECT_TRUE(r.outcomes[e].allocation.find(n.id).has_value())
          << "event " << e << " nest " << n.id;
  }
}

}  // namespace
}  // namespace stormtrack
