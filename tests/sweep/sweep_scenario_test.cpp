// The scenario first axis: full coupled runs (weather + PDA + realloc +
// workload payload) swept over {scenario × machine × strategy} through the
// same runner, journal shape, and determinism contract as trace sweeps.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "sweep/sweep_runner.hpp"
#include "util/check.hpp"

namespace stormtrack {
namespace {

RealScenarioConfig small_scenario(std::uint64_t seed = 0x2005'07'26) {
  RealScenarioConfig sc;
  sc.weather.domain.resolution_km = 24.0;
  sc.sim_px = 16;
  sc.sim_py = 16;
  sc.pda.analysis_procs = 16;
  sc.num_intervals = 5;
  sc.seed = seed;
  return sc;
}

SweepSpec scenario_grid() {
  SweepSpec spec;
  spec.scenarios.push_back({"mumbai-small", small_scenario()});
  spec.machines.push_back(sweep_bluegene(256));
  spec.strategies = {"scratch", "diffusion"};
  spec.workload = "particles";
  spec.config.steps_per_interval = 3;
  return spec;
}

TEST(SweepScenario, RunsCoupledCasesWithWorkloadCounters) {
  const ModelStack models;
  SweepSpec spec = scenario_grid();
  spec.threads = 1;
  const std::vector<SweepCaseResult> r = SweepRunner(models).run(spec);
  ASSERT_EQ(r.size(), 2u);
  for (const SweepCaseResult& c : r) {
    SCOPED_TRACE(c.strategy);
    EXPECT_EQ(c.trace_name, "mumbai-small");  // scenario rides the axis slot
    EXPECT_EQ(c.result.outcomes.size(), 5u);
    EXPECT_NE(c.result.final_state_fingerprint, 0u);
    // The particle payload genuinely ran: its counters are in the case's
    // merged metrics.
    EXPECT_GT(c.result.metrics.get("workload.advected_particle_steps").count,
              0);
    EXPECT_GT(c.result.metrics.get("workload.active_ranks").count, 0);
  }
  // Both strategy cells ran (a short run may legitimately land both
  // strategies on the same committed state, so the fingerprints are not
  // required to differ — only to be reported per case).
  EXPECT_EQ(r[0].strategy, "scratch");
  EXPECT_EQ(r[1].strategy, "diffusion");
}

TEST(SweepScenario, ThreadedRunIsByteIdenticalToSerial) {
  const ModelStack models;
  const SweepRunner runner(models);
  SweepSpec serial = scenario_grid();
  serial.threads = 1;
  SweepSpec threaded = scenario_grid();
  threaded.threads = 4;

  const std::vector<SweepCaseResult> s = runner.run(serial);
  const std::vector<SweepCaseResult> t = runner.run(threaded);
  ASSERT_EQ(s.size(), t.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    SCOPED_TRACE("case " + std::to_string(i));
    EXPECT_EQ(s[i].result.final_state_fingerprint,
              t[i].result.final_state_fingerprint);
    EXPECT_EQ(s[i].result.total_exec(), t[i].result.total_exec());
    EXPECT_EQ(s[i].result.total_redist(), t[i].result.total_redist());
    EXPECT_EQ(s[i].result.total_hop_bytes(), t[i].result.total_hop_bytes());
    ASSERT_EQ(s[i].result.outcomes.size(), t[i].result.outcomes.size());
    for (std::size_t e = 0; e < s[i].result.outcomes.size(); ++e) {
      EXPECT_EQ(s[i].result.outcomes[e].chosen, t[i].result.outcomes[e].chosen);
      EXPECT_EQ(s[i].result.outcomes[e].allocation.rects(),
                t[i].result.outcomes[e].allocation.rects());
    }
  }
}

TEST(SweepScenario, SpecValidationCatchesAxisAndWorkloadProblems) {
  SweepSpec spec = scenario_grid();
  SyntheticTraceConfig tc;
  tc.num_events = 3;
  spec.traces.push_back({"t", generate_synthetic_trace(tc)});
  spec.workload = "voxels";
  spec.scenarios.push_back({"mumbai-small", small_scenario()});  // duplicate

  const std::vector<std::string> problems = sweep_spec_problems(spec);
  auto mentions = [&](const std::string& needle) {
    for (const std::string& p : problems)
      if (p.find(needle) != std::string::npos) return true;
    return false;
  };
  EXPECT_TRUE(mentions("not both"));
  EXPECT_TRUE(mentions("voxels"));
  EXPECT_TRUE(mentions("duplicate scenario"));
  EXPECT_THROW(validate_sweep_spec(spec), CheckError);
}

TEST(SweepScenario, EmptySpecStillReportsMissingFirstAxis) {
  SweepSpec spec;
  spec.machines.push_back(sweep_bluegene(256));
  spec.strategies = {"scratch"};
  const std::vector<std::string> problems = sweep_spec_problems(spec);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("no traces or scenarios"), std::string::npos);
}

TEST(SweepScenario, FingerprintBindsScenarioAxisAndWorkload) {
  const SweepSpec base = scenario_grid();
  const std::uint64_t fp = sweep_spec_fingerprint(base);

  SweepSpec other_workload = scenario_grid();
  other_workload.workload = "field";
  EXPECT_NE(sweep_spec_fingerprint(other_workload), fp);

  SweepSpec other_seed = scenario_grid();
  other_seed.scenarios[0].scenario.seed = 99;
  EXPECT_NE(sweep_spec_fingerprint(other_seed), fp);

  // Execution knobs must never orphan a journal.
  SweepSpec threaded = scenario_grid();
  threaded.threads = 8;
  EXPECT_EQ(sweep_spec_fingerprint(threaded), fp);

  // Pure-trace specs ignore the workload field entirely, so old trace
  // journals stay valid across the workload-layer change.
  SweepSpec trace_spec;
  SyntheticTraceConfig tc;
  tc.num_events = 4;
  trace_spec.traces.push_back({"t", generate_synthetic_trace(tc)});
  trace_spec.machines.push_back(sweep_bluegene(256));
  trace_spec.strategies = {"scratch"};
  const std::uint64_t trace_fp = sweep_spec_fingerprint(trace_spec);
  trace_spec.workload = "particles";
  EXPECT_EQ(sweep_spec_fingerprint(trace_spec), trace_fp);
}

TEST(SweepScenario, FingerprintBindsWholeScenario) {
  // A journal must not resume cases run under other OLR physics or PDA
  // settings: every scenario field reaches the fingerprint.
  const std::uint64_t fp = sweep_spec_fingerprint(scenario_grid());

  SweepSpec darker = scenario_grid();
  darker.scenarios[0].scenario.weather.olr_depression += 10.0;
  EXPECT_NE(sweep_spec_fingerprint(darker), fp);

  SweepSpec retries = scenario_grid();
  retries.scenarios[0].scenario.pda.max_read_retries += 1;
  EXPECT_NE(sweep_spec_fingerprint(retries), fp);
}

TEST(SweepScenario, SupervisedScenarioSweepJournalsAndReplays) {
  const ModelStack models;
  SweepSpec spec = scenario_grid();
  spec.threads = 1;
  spec.supervision.journal =
      std::filesystem::temp_directory_path() / "st_scenario_sweep.journal";
  std::filesystem::remove(spec.supervision.journal);

  const SweepRunReport first = SweepRunner(models).run_supervised(spec);
  ASSERT_EQ(first.results.size(), 2u);
  for (const SweepCaseResult& c : first.results)
    EXPECT_EQ(c.status, SweepCaseStatus::kOk);

  spec.supervision.resume = true;
  const SweepRunReport replayed = SweepRunner(models).run_supervised(spec);
  for (std::size_t i = 0; i < replayed.results.size(); ++i) {
    EXPECT_TRUE(replayed.results[i].from_journal);
    EXPECT_EQ(replayed.results[i].result.final_state_fingerprint,
              first.results[i].result.final_state_fingerprint);
  }
  std::filesystem::remove(spec.supervision.journal);
}

}  // namespace
}  // namespace stormtrack
