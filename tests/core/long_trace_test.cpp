/// Endurance tests: long traces, extreme nest counts, and machine-size
/// edges that the per-feature tests do not reach.

#include <gtest/gtest.h>

#include <set>

#include "core/experiment.hpp"
#include "util/check.hpp"

namespace stormtrack {
namespace {

TEST(LongTrace, HundredEventsAllStrategiesStayConsistent) {
  ModelStack models;
  const Machine machine = Machine::bluegene(256);
  SyntheticTraceConfig cfg;
  cfg.num_events = 100;
  cfg.seed = 0x100c;
  const Trace trace = generate_synthetic_trace(cfg);
  for (const char* s :
       {"scratch", "diffusion", "dynamic"}) {
    const TraceRunResult r =
        run_trace(machine, models.model, models.truth, s, trace);
    ASSERT_EQ(r.outcomes.size(), 100u);
    for (std::size_t e = 0; e < trace.size(); ++e) {
      const StepOutcome& o = r.outcomes[e];
      // Allocation construction enforces disjointness; check coverage and
      // non-negative metrics here.
      EXPECT_EQ(o.allocation.num_nests(), trace[e].size());
      EXPECT_GE(o.committed.actual_redist, 0.0);
      EXPECT_GE(o.overlap_fraction, 0.0);
      EXPECT_LE(o.overlap_fraction, 1.0);
      EXPECT_EQ(o.num_retained + o.num_inserted,
                static_cast<int>(trace[e].size()));
    }
  }
}

TEST(LongTrace, ManyNestsOnSmallMachine) {
  // 20 concurrent nests on 64 cores: every nest still gets >= 1 processor
  // and redistribution stays conservative.
  ModelStack models;
  const Machine machine = Machine::bluegene(64);
  SyntheticTraceConfig cfg;
  cfg.num_events = 20;
  cfg.min_nests = 12;
  cfg.max_nests = 20;
  cfg.min_size = 60;
  cfg.max_size = 120;
  cfg.seed = 0xfeed;
  const Trace trace = generate_synthetic_trace(cfg);
  const TraceRunResult r = run_trace(machine, models.model, models.truth,
                                     "diffusion", trace);
  for (std::size_t e = 0; e < trace.size(); ++e) {
    for (const NestSpec& n : trace[e]) {
      const auto rect = r.outcomes[e].allocation.find(n.id);
      ASSERT_TRUE(rect.has_value());
      EXPECT_GE(rect->area(), 1);
    }
  }
}

TEST(LongTrace, SingleNestDegenerateTrace) {
  ModelStack models;
  const Machine machine = Machine::bluegene(256);
  Trace trace;
  for (int e = 0; e < 5; ++e) {
    NestSpec n;
    n.id = 1;
    n.region = Rect{0, 0, 80, 80};
    n.shape = NestShape{240, 240};
    trace.push_back({n});
  }
  const TraceRunResult r = run_trace(machine, models.model, models.truth,
                                     "diffusion", trace);
  // One nest owns the whole grid forever: zero redistribution after the
  // first event.
  for (std::size_t e = 1; e < trace.size(); ++e) {
    EXPECT_DOUBLE_EQ(r.outcomes[e].committed.actual_redist, 0.0);
    EXPECT_DOUBLE_EQ(r.outcomes[e].overlap_fraction, 1.0);
  }
}

TEST(LongTrace, AlternatingEmptyAndFullSets) {
  ModelStack models;
  const Machine machine = Machine::bluegene(256);
  ManagerConfig cfg;
  AdaptationPipeline manager(machine, models.model, models.truth, cfg);
  NestSpec n;
  n.region = Rect{0, 0, 70, 70};
  n.shape = NestShape{210, 210};
  for (int cycle = 0; cycle < 5; ++cycle) {
    n.id = cycle + 1;
    const StepOutcome filled = manager.apply(std::vector<NestSpec>{n});
    EXPECT_EQ(filled.num_inserted, 1);
    const StepOutcome empty = manager.apply(std::vector<NestSpec>{});
    EXPECT_EQ(empty.num_deleted, 1);
    EXPECT_EQ(empty.allocation.num_nests(), 0u);
  }
}

TEST(LongTrace, Bluegene64To4096MachinesConstructible) {
  for (const int cores : {64, 128, 2048, 4096}) {
    const Machine m = Machine::bluegene(cores);
    EXPECT_EQ(m.cores(), cores);
    EXPECT_EQ(m.comm().size(), cores);
  }
}

}  // namespace
}  // namespace stormtrack
