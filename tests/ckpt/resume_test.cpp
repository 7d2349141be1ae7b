#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <optional>
#include <string>

#include "ckpt/checkpoint.hpp"
#include "ckpt/trace_run.hpp"
#include "core/experiment.hpp"
#include "exec/cancel.hpp"
#include "exec/executor.hpp"
#include "fault/fault_plan.hpp"
#include "util/check.hpp"

namespace stormtrack {
namespace {

namespace fs = std::filesystem;

Trace test_trace(int events, std::uint64_t seed = 17) {
  SyntheticTraceConfig cfg;
  cfg.num_events = events;
  cfg.seed = seed;
  return generate_synthetic_trace(cfg);
}

/// Counter totals by name (wall-time seconds are timing noise; every count
/// in the registry is deterministic and must survive a kill+resume).
std::map<std::string, std::int64_t> counts(const MetricsRegistry& metrics) {
  std::map<std::string, std::int64_t> out;
  for (const auto& [name, entry] : metrics.entries())
    out[name] = entry.count;
  return out;
}

/// Simulate a SIGKILL after \p survivor_step: delete every checkpoint the
/// reference run wrote after it, leaving the directory exactly as a death
/// at that point would.
void kill_after_step(const fs::path& dir, std::int64_t survivor_step,
                     std::int64_t max_step) {
  for (std::int64_t s = survivor_step + 1; s <= max_step; ++s)
    fs::remove(checkpoint_file_path(dir, s));
}

class ResumeTest : public ::testing::Test {
 protected:
  ResumeTest() : machine_(Machine::bluegene(256)) {}

  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("st_resume_" + std::string(::testing::UnitTest::GetInstance()
                                           ->current_test_info()
                                           ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  ModelStack models_;
  Machine machine_;
  fs::path dir_;
};

TEST_F(ResumeTest, KilledTraceRunResumesByteIdentical) {
  const Trace trace = test_trace(8);
  CheckpointPolicy policy;
  policy.dir = dir_;
  policy.every = 2;
  policy.keep = 0;  // keep everything so the test can pick the survivor

  // Uninterrupted reference.
  const TraceRunResult reference = run_trace_checkpointed(
      machine_, models_.model, models_.truth, "diffusion", trace,
      ManagerConfig{}, policy);

  // Die after step 4; resume and finish.
  kill_after_step(dir_, 4, static_cast<std::int64_t>(trace.size()));
  ResumeReport report;
  const TraceRunResult resumed = run_trace_checkpointed(
      machine_, models_.model, models_.truth, "diffusion", trace,
      ManagerConfig{}, policy, &report);

  EXPECT_TRUE(report.resumed);
  EXPECT_EQ(report.step, 4);
  EXPECT_EQ(resumed.final_state_fingerprint,
            reference.final_state_fingerprint);
  EXPECT_EQ(resumed.total_exec(), reference.total_exec());
  EXPECT_EQ(resumed.total_redist(), reference.total_redist());
  EXPECT_EQ(resumed.total_hop_bytes(), reference.total_hop_bytes());
  ASSERT_EQ(resumed.outcomes.size(), reference.outcomes.size());
  for (std::size_t i = 0; i < reference.outcomes.size(); ++i) {
    SCOPED_TRACE("outcome " + std::to_string(i));
    EXPECT_EQ(resumed.outcomes[i].chosen, reference.outcomes[i].chosen);
    EXPECT_EQ(resumed.outcomes[i].committed.actual_exec,
              reference.outcomes[i].committed.actual_exec);
    EXPECT_EQ(resumed.outcomes[i].allocation.rects(),
              reference.outcomes[i].allocation.rects());
  }
  // Every counter — including ckpt.writes — matches the uninterrupted run.
  EXPECT_EQ(counts(resumed.metrics), counts(reference.metrics));
}

TEST_F(ResumeTest, KilledTraceRunResumesByteIdenticalWithEightThreads) {
  const Trace trace = test_trace(8);
  CheckpointPolicy policy;
  policy.dir = dir_;
  policy.every = 3;
  policy.keep = 0;

  ThreadPoolExecutor pool(8);
  ManagerConfig config;
  config.executor = &pool;

  const TraceRunResult reference = run_trace_checkpointed(
      machine_, models_.model, models_.truth, "diffusion", trace, config,
      policy);
  kill_after_step(dir_, 3, static_cast<std::int64_t>(trace.size()));
  ResumeReport report;
  const TraceRunResult resumed = run_trace_checkpointed(
      machine_, models_.model, models_.truth, "diffusion", trace, config,
      policy, &report);

  EXPECT_TRUE(report.resumed);
  EXPECT_EQ(report.step, 3);
  EXPECT_EQ(resumed.final_state_fingerprint,
            reference.final_state_fingerprint);
  EXPECT_EQ(resumed.total_exec(), reference.total_exec());
  EXPECT_EQ(counts(resumed.metrics), counts(reference.metrics));
}

TEST_F(ResumeTest, ResumeCarriesHysteresisStrategyState) {
  // The hysteresis incumbent lives across adaptation points; losing it on
  // resume would change later decisions. Kill right after a decision point.
  const Trace trace = test_trace(10, 23);
  CheckpointPolicy policy;
  policy.dir = dir_;
  policy.every = 1;
  policy.keep = 0;

  const TraceRunResult reference = run_trace_checkpointed(
      machine_, models_.model, models_.truth, "hysteresis", trace,
      ManagerConfig{}, policy);
  kill_after_step(dir_, 5, static_cast<std::int64_t>(trace.size()));
  const TraceRunResult resumed = run_trace_checkpointed(
      machine_, models_.model, models_.truth, "hysteresis", trace,
      ManagerConfig{}, policy);
  EXPECT_EQ(resumed.final_state_fingerprint,
            reference.final_state_fingerprint);
  ASSERT_EQ(resumed.outcomes.size(), reference.outcomes.size());
  for (std::size_t i = 0; i < reference.outcomes.size(); ++i)
    EXPECT_EQ(resumed.outcomes[i].chosen, reference.outcomes[i].chosen);
}

TEST_F(ResumeTest, KilledRunUnderFaultInjectionResumesExactly) {
  const Trace trace = test_trace(8);
  FaultPlan::RandomConfig rc;
  rc.num_events = 6;
  rc.num_points = 8;
  rc.num_ranks = 256;
  rc.seed = 9;
  const FaultPlan plan = FaultPlan::random(rc);

  CheckpointPolicy policy;
  policy.dir = dir_;
  policy.every = 2;
  policy.keep = 0;

  FaultInjector ref_injector(plan);
  ManagerConfig ref_config;
  ref_config.injector = &ref_injector;
  const TraceRunResult reference = run_trace_checkpointed(
      machine_, models_.model, models_.truth, "diffusion", trace, ref_config,
      policy);

  kill_after_step(dir_, 4, static_cast<std::int64_t>(trace.size()));
  FaultInjector res_injector(plan);
  ManagerConfig res_config;
  res_config.injector = &res_injector;
  ResumeReport report;
  const TraceRunResult resumed = run_trace_checkpointed(
      machine_, models_.model, models_.truth, "diffusion", trace, res_config,
      policy, &report);

  EXPECT_TRUE(report.resumed);
  EXPECT_EQ(resumed.final_state_fingerprint,
            reference.final_state_fingerprint);
  // The injector's interpreter position was restored, so fault and
  // recovery counters agree too — faults neither replayed nor skipped.
  EXPECT_EQ(counts(resumed.metrics), counts(reference.metrics));
}

TEST_F(ResumeTest, DifferentConfigurationStartsFreshInsteadOfResuming) {
  const Trace trace = test_trace(6);
  CheckpointPolicy policy;
  policy.dir = dir_;

  (void)run_trace_checkpointed(machine_, models_.model, models_.truth,
                               "diffusion", trace, ManagerConfig{}, policy);
  // Same directory, different trace: the config fingerprint differs, so
  // nothing resumes and the run starts from step 0.
  ResumeReport report;
  (void)run_trace_checkpointed(machine_, models_.model, models_.truth,
                               "diffusion", test_trace(6, 99),
                               ManagerConfig{}, policy, &report);
  EXPECT_FALSE(report.resumed);
}

TEST_F(ResumeTest, CancelledRunThrowsCancelledErrorNotCheckError) {
  const Trace trace = test_trace(4);
  CancelToken token;
  token.cancel("watchdog");
  ManagerConfig config;
  config.cancel = &token;
  EXPECT_THROW((void)run_trace(machine_, models_.model, models_.truth,
                               "diffusion", trace, config),
               CancelledError);
}

TEST_F(ResumeTest, KilledCoupledRunResumesToTheSameFingerprint) {
  CoupledConfig config;
  config.scenario.num_intervals = 6;
  config.scenario.seed = 31;
  const std::uint64_t fp = coupled_config_fingerprint(machine_, config);
  CheckpointPolicy policy;
  policy.dir = dir_;
  policy.every = 1;
  policy.keep = 0;

  // Uninterrupted reference with checkpointing on.
  CoupledCheckpointer ref_hook(policy, fp);
  CoupledConfig ref_config = config;
  ref_config.hook = &ref_hook;
  CoupledSimulation reference(machine_, models_.model, models_.truth,
                              ref_config);
  for (int i = 0; i < 6; ++i) reference.advance();
  ref_hook.checkpoint_now(reference);
  EXPECT_GT(ref_hook.bytes_written(), 0);

  // Death after interval 3: drop the later checkpoints, resume, finish.
  kill_after_step(dir_, 3, 6);
  CoupledCheckpointer res_hook(policy, fp);
  CoupledConfig res_config = config;
  res_config.hook = &res_hook;
  CoupledSimulation resumed(machine_, models_.model, models_.truth,
                            res_config);
  const ResumeReport report = resume_coupled(resumed, dir_, fp);
  ASSERT_TRUE(report.resumed);
  EXPECT_EQ(report.step, 3);
  EXPECT_EQ(resumed.interval(), 3);
  for (int i = 3; i < 6; ++i) resumed.advance();
  res_hook.checkpoint_now(resumed);

  EXPECT_EQ(resumed.state_fingerprint(), reference.state_fingerprint());
  EXPECT_EQ(counts(resumed.pipeline().metrics()),
            counts(reference.pipeline().metrics()));
}

TEST_F(ResumeTest, CancelledCoupledIntervalLeavesTheLastCompletedState) {
  // A stormtrack_cli SIGTERM: the token trips between intervals, advance()
  // throws, and the run is checkpointed where it stands. Nothing of the
  // cancelled interval may be in that state, or the resumed run skips it.
  CoupledConfig config;
  config.scenario.num_intervals = 6;
  config.scenario.seed = 31;
  const std::uint64_t fp = coupled_config_fingerprint(machine_, config);
  CheckpointPolicy policy;
  policy.dir = dir_;
  policy.every = 100;  // only the explicit checkpoint below is written

  CoupledSimulation reference(machine_, models_.model, models_.truth, config);
  for (int i = 0; i < 6; ++i) reference.advance();

  CancelToken token;
  CoupledConfig cancelled_config = config;
  cancelled_config.manager.cancel = &token;
  CoupledSimulation cancelled(machine_, models_.model, models_.truth,
                              cancelled_config);
  for (int i = 0; i < 3; ++i) cancelled.advance();
  const std::uint64_t before = cancelled.state_fingerprint();
  token.cancel("SIGTERM");
  EXPECT_THROW((void)cancelled.advance(), CancelledError);
  EXPECT_EQ(cancelled.interval(), 3);
  EXPECT_EQ(cancelled.state_fingerprint(), before);
  CoupledCheckpointer hook(policy, fp);
  EXPECT_EQ(hook.checkpoint_now(cancelled), before);

  CoupledSimulation resumed(machine_, models_.model, models_.truth, config);
  const ResumeReport report = resume_coupled(resumed, dir_, fp);
  ASSERT_TRUE(report.resumed);
  EXPECT_EQ(report.step, 3);
  for (int i = 3; i < 6; ++i) resumed.advance();
  EXPECT_EQ(resumed.state_fingerprint(), reference.state_fingerprint());
  EXPECT_EQ(counts(resumed.pipeline().metrics())["pipeline.adaptation_points"],
            6);
}

TEST_F(ResumeTest, CheckpointNowIsIdempotentPerStep) {
  CoupledConfig config;
  config.scenario.num_intervals = 3;
  const std::uint64_t fp = coupled_config_fingerprint(machine_, config);
  CheckpointPolicy policy;
  policy.dir = dir_;
  CoupledCheckpointer hook(policy, fp);
  CoupledSimulation sim(machine_, models_.model, models_.truth, config);
  sim.advance();
  hook.checkpoint_now(sim);
  hook.checkpoint_now(sim);  // same step: must not write again
  EXPECT_EQ(hook.writes(), 1);
}

TEST_F(ResumeTest, CheckpointNowReturnsTheRecordedFingerprint) {
  CoupledConfig config;
  config.scenario.num_intervals = 3;
  const std::uint64_t fp = coupled_config_fingerprint(machine_, config);
  CheckpointPolicy policy;
  policy.dir = dir_;
  policy.every = 2;
  policy.keep = 0;
  CoupledCheckpointer hook(policy, fp);
  CoupledConfig hooked = config;
  hooked.hook = &hook;
  CoupledSimulation sim(machine_, models_.model, models_.truth, hooked);

  // Write path: interval 1 is not due, so checkpoint_now writes it.
  sim.advance();
  ASSERT_EQ(hook.writes(), 0);
  const std::uint64_t written = hook.checkpoint_now(sim);
  EXPECT_EQ(hook.writes(), 1);
  EXPECT_EQ(written, sim.state_fingerprint());
  EXPECT_EQ(load_checkpoint(checkpoint_file_path(dir_, 1)).state_fingerprint,
            written);

  // Guard path: interval 2 is due, so the hook already wrote it and
  // checkpoint_now hands back the value recorded then.
  sim.advance();
  ASSERT_EQ(hook.writes(), 2);
  const std::uint64_t guarded = hook.checkpoint_now(sim);
  EXPECT_EQ(hook.writes(), 2);
  EXPECT_EQ(guarded, sim.state_fingerprint());
  EXPECT_EQ(load_checkpoint(checkpoint_file_path(dir_, 2)).state_fingerprint,
            guarded);
  EXPECT_NE(guarded, written);
}

TEST_F(ResumeTest, CheckpointNowAtTheResumedStepWritesNothing) {
  // A run resumed at its final interval (or interrupted before its first
  // resumed interval) calls checkpoint_now where it resumed: that
  // checkpoint is on disk already, so nothing is rewritten or counted, and
  // the fingerprint it hands back is the recorded one.
  CoupledConfig config;
  config.scenario.num_intervals = 3;
  config.scenario.seed = 31;
  const std::uint64_t fp = coupled_config_fingerprint(machine_, config);
  CheckpointPolicy policy;
  policy.dir = dir_;
  policy.keep = 0;

  CoupledCheckpointer ref_hook(policy, fp);
  CoupledConfig ref_config = config;
  ref_config.hook = &ref_hook;
  CoupledSimulation reference(machine_, models_.model, models_.truth,
                              ref_config);
  for (int i = 0; i < 3; ++i) reference.advance();
  const std::uint64_t expected = ref_hook.checkpoint_now(reference);
  const std::int64_t expected_writes =
      reference.metrics().get("ckpt.writes").count;
  ASSERT_EQ(expected_writes, 3);
  const fs::file_time_type written_at =
      fs::last_write_time(checkpoint_file_path(dir_, 3));

  CoupledCheckpointer res_hook(policy, fp);
  CoupledConfig res_config = config;
  res_config.hook = &res_hook;
  CoupledSimulation resumed(machine_, models_.model, models_.truth,
                            res_config);
  const ResumeReport report = resume_coupled(resumed, dir_, fp);
  ASSERT_TRUE(report.resumed);
  ASSERT_EQ(report.step, 3);
  EXPECT_EQ(res_hook.checkpoint_now(resumed), expected);
  EXPECT_EQ(res_hook.writes(), 0);
  EXPECT_EQ(resumed.metrics().get("ckpt.writes").count, expected_writes);
  EXPECT_EQ(fs::last_write_time(checkpoint_file_path(dir_, 3)), written_at);
}

TEST_F(ResumeTest, EmptyDirectoryMeansNoResume) {
  CoupledConfig config;
  config.scenario.num_intervals = 2;
  CoupledSimulation sim(machine_, models_.model, models_.truth, config);
  const ResumeReport report =
      resume_coupled(sim, dir_, coupled_config_fingerprint(machine_, config));
  EXPECT_FALSE(report.resumed);
  EXPECT_EQ(report.step, -1);
}

TEST_F(ResumeTest, FreshTraceRunKeepsItsFinalCheckpointBesideANewerRun) {
  CheckpointPolicy policy;
  policy.dir = dir_;
  policy.keep = 3;
  (void)run_trace_checkpointed(machine_, models_.model, models_.truth,
                               "diffusion", test_trace(10), ManagerConfig{},
                               policy);
  // Same directory, a shorter trace under another seed: the run starts
  // fresh, and every checkpoint it writes is older than the first run's.
  const Trace second = test_trace(4, 99);
  const TraceRunResult result = run_trace_checkpointed(
      machine_, models_.model, models_.truth, "diffusion", second,
      ManagerConfig{}, policy);
  const std::optional<LatestCheckpoint> latest = latest_valid_checkpoint(
      dir_, trace_run_fingerprint(machine_, "diffusion", second,
                                  ManagerConfig{}));
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->checkpoint.step, 4);
  EXPECT_EQ(latest->checkpoint.state_fingerprint,
            result.final_state_fingerprint);
}

TEST_F(ResumeTest, FreshCoupledRunKeepsItsFinalCheckpointBesideANewerRun) {
  CheckpointPolicy policy;
  policy.dir = dir_;
  policy.keep = 2;
  CoupledConfig first;
  first.scenario.num_intervals = 5;
  first.scenario.seed = 31;
  {
    CoupledCheckpointer hook(policy,
                             coupled_config_fingerprint(machine_, first));
    first.hook = &hook;
    CoupledSimulation sim(machine_, models_.model, models_.truth, first);
    for (int i = 0; i < 5; ++i) sim.advance();
    hook.checkpoint_now(sim);
  }
  CoupledConfig second;
  second.scenario.num_intervals = 3;
  second.scenario.seed = 32;
  const std::uint64_t fp = coupled_config_fingerprint(machine_, second);
  CoupledCheckpointer hook(policy, fp);
  second.hook = &hook;
  CoupledSimulation sim(machine_, models_.model, models_.truth, second);
  for (int i = 0; i < 3; ++i) sim.advance();
  const std::uint64_t final_fp = hook.checkpoint_now(sim);
  const std::optional<LatestCheckpoint> latest =
      latest_valid_checkpoint(dir_, fp);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->checkpoint.step, 3);
  EXPECT_EQ(latest->checkpoint.state_fingerprint, final_fp);
}

TEST_F(ResumeTest, ResumingAFinishedTraceRunWritesNoCheckpointTwice) {
  const Trace trace = test_trace(6);
  CheckpointPolicy policy;
  policy.dir = dir_;
  policy.every = 4;  // the final checkpoint (6) is off the cadence
  const TraceRunResult reference = run_trace_checkpointed(
      machine_, models_.model, models_.truth, "diffusion", trace,
      ManagerConfig{}, policy);
  ResumeReport report;
  const TraceRunResult resumed = run_trace_checkpointed(
      machine_, models_.model, models_.truth, "diffusion", trace,
      ManagerConfig{}, policy, &report);
  EXPECT_EQ(report.step, 6);
  EXPECT_EQ(resumed.final_state_fingerprint,
            reference.final_state_fingerprint);
  EXPECT_EQ(counts(resumed.metrics), counts(reference.metrics));
}

}  // namespace
}  // namespace stormtrack
