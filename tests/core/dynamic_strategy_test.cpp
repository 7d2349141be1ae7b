/// Focused tests of the §IV-C dynamic selection logic across random traces.

#include <gtest/gtest.h>

#include "core/experiment.hpp"

namespace stormtrack {
namespace {

class DynamicStrategyTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  DynamicStrategyTest() : machine_(Machine::bluegene(256)) {}
  ModelStack models_;
  Machine machine_;
};

TEST_P(DynamicStrategyTest, CommittedMetricsAreOneOfTheCandidates) {
  SyntheticTraceConfig cfg;
  cfg.num_events = 10;
  cfg.seed = GetParam();
  const Trace trace = generate_synthetic_trace(cfg);
  const TraceRunResult r = run_trace(machine_, models_.model, models_.truth,
                                     "dynamic", trace);
  for (const StepOutcome& o : r.outcomes) {
    const CandidateMetrics& expect =
        o.chosen == "diffusion" ? o.diffusion : o.scratch;
    EXPECT_DOUBLE_EQ(o.committed.predicted_redist, expect.predicted_redist);
    EXPECT_DOUBLE_EQ(o.committed.predicted_exec, expect.predicted_exec);
    EXPECT_DOUBLE_EQ(o.committed.actual_redist, expect.actual_redist);
    EXPECT_DOUBLE_EQ(o.committed.actual_exec, expect.actual_exec);
  }
}

TEST_P(DynamicStrategyTest, AlwaysPicksSmallerPredictedTotal) {
  SyntheticTraceConfig cfg;
  cfg.num_events = 10;
  cfg.seed = GetParam() + 1000;
  const Trace trace = generate_synthetic_trace(cfg);
  const TraceRunResult r = run_trace(machine_, models_.model, models_.truth,
                                     "dynamic", trace);
  for (const StepOutcome& o : r.outcomes) {
    EXPECT_LE(o.committed.predicted_total(),
              std::min(o.scratch.predicted_total(),
                       o.diffusion.predicted_total()) +
                  1e-12);
  }
}

TEST_P(DynamicStrategyTest, PredictionsAreInformative) {
  // Decisions based on the predictions must beat a coin flip against the
  // ground truth over a longer trace.
  SyntheticTraceConfig cfg;
  cfg.num_events = 30;
  cfg.seed = GetParam() + 2000;
  const Trace trace = generate_synthetic_trace(cfg);
  const TraceRunResult r = run_trace(machine_, models_.model, models_.truth,
                                     "dynamic", trace);
  int correct = 0, decided = 0;
  for (const StepOutcome& o : r.outcomes) {
    // Skip events where the two candidates are effectively tied in truth.
    const double da = o.diffusion.actual_total();
    const double sa = o.scratch.actual_total();
    if (std::abs(da - sa) < 1e-3 * std::max(da, sa)) continue;
    ++decided;
    const bool tree_best = da < sa;
    if ((o.chosen == "diffusion") == tree_best) ++correct;
  }
  if (decided >= 8) {
    EXPECT_GT(static_cast<double>(correct) / decided, 0.5);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DynamicStrategyTest,
                         ::testing::Values(1u, 2u, 3u));

TEST(DynamicStrategyAggregates, TracksBestCandidatePerEvent) {
  // Dynamic's committed actual total per event never exceeds the worse
  // candidate's actual total (it commits one of the two).
  ModelStack models;
  const Machine machine = Machine::bluegene(256);
  SyntheticTraceConfig cfg;
  cfg.num_events = 15;
  cfg.seed = 99;
  const Trace trace = generate_synthetic_trace(cfg);
  const TraceRunResult r = run_trace(machine, models.model, models.truth,
                                     "dynamic", trace);
  for (const StepOutcome& o : r.outcomes) {
    EXPECT_LE(o.committed.actual_total(),
              std::max(o.scratch.actual_total(),
                       o.diffusion.actual_total()) +
                  1e-12);
  }
}

}  // namespace
}  // namespace stormtrack
