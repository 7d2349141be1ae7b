/// \file write_behind_test.cpp
/// Coupled and trace runs write checkpoints behind the run: the frame is
/// encoded on the calling thread and written, fsynced and pruned on a
/// thread of the CheckpointWriter. These tests pin what that must not
/// change (file bytes, durability at the drain points, counters) and that
/// a failed background write surfaces by name from the next checkpoint
/// instead of being lost.

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "ckpt/trace_run.hpp"
#include "core/experiment.hpp"
#include "exec/cancel.hpp"
#include "exec/executor.hpp"
#include "util/atomic_file.hpp"
#include "util/check.hpp"
#include "util/fs_fault.hpp"

namespace stormtrack {
namespace {

namespace fs = std::filesystem;

constexpr int kIntervals = 6;

Trace small_trace() {
  SyntheticTraceConfig cfg;
  cfg.num_events = kIntervals;
  cfg.seed = 11;
  return generate_synthetic_trace(cfg);
}

/// Serial executor that trips \p token in its \p calls-th parallel_for.
/// The pipeline polls the token at the next adaptation point, so the run
/// is cancelled at a point fixed by the trace alone.
class CancellingExecutor final : public Executor {
 public:
  using Executor::parallel_for;

  CancellingExecutor(CancelToken& token, int calls)
      : token_(token), calls_left_(calls) {}
  [[nodiscard]] int concurrency() const override { return 1; }
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& body) override {
    if (--calls_left_ == 0) token_.cancel("test");
    for (std::size_t i = 0; i < n; ++i) body(i);
  }
  [[nodiscard]] ExecutorStats stats() const override { return {}; }

 private:
  CancelToken& token_;
  int calls_left_;
};

class WriteBehindTest : public ::testing::Test {
 protected:
  WriteBehindTest() : machine_(Machine::bluegene(256)) {
    config_.scenario.num_intervals = kIntervals;
    config_.scenario.seed = 31;
    policy_.every = 1;
    policy_.keep = 0;
  }

  void SetUp() override {
    fs_fault_clear();
    dir_ = fs::temp_directory_path() /
           ("st_wb_" + std::string(::testing::UnitTest::GetInstance()
                                       ->current_test_info()
                                       ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    policy_.dir = dir_;
  }
  void TearDown() override {
    fs_fault_clear();
    fs::remove_all(dir_);
  }

  std::uint64_t config_fp() const {
    return coupled_config_fingerprint(machine_, config_);
  }

  CoupledConfig hooked(CoupledCheckpointer& hook) const {
    CoupledConfig cfg = config_;
    cfg.hook = &hook;
    return cfg;
  }

  /// Final fingerprint of an uninterrupted run without checkpoints.
  std::uint64_t reference_fingerprint() const {
    CoupledSimulation sim(machine_, models_.model, models_.truth, config_);
    for (int i = 0; i < kIntervals; ++i) sim.advance();
    return sim.state_fingerprint();
  }

  TraceRunResult run_trace_run(const Trace& trace,
                               const ManagerConfig& config = {},
                               ResumeReport* report = nullptr) const {
    return run_trace_checkpointed(machine_, models_.model, models_.truth,
                                  "hysteresis", trace, config, policy_,
                                  report);
  }

  /// Final fingerprint of an uninterrupted trace run without checkpoints.
  std::uint64_t reference_trace_fingerprint(const Trace& trace) const {
    ManagerConfig config;
    config.strategy = "hysteresis";
    return run_trace(machine_, models_.model, models_.truth, "hysteresis",
                     trace, config)
        .final_state_fingerprint;
  }

  /// Names of every file in the checkpoint directory.
  std::vector<std::string> files() const {
    std::vector<std::string> names;
    for (const auto& entry : fs::directory_iterator(dir_))
      names.push_back(entry.path().filename().string());
    std::sort(names.begin(), names.end());
    return names;
  }

  /// Resume a fresh simulation from the directory, finish the run, and
  /// return its final fingerprint.
  std::uint64_t resume_and_finish(std::int64_t expected_step) {
    CoupledCheckpointer hook(policy_, config_fp());
    CoupledSimulation sim(machine_, models_.model, models_.truth,
                          hooked(hook));
    const ResumeReport report = resume_coupled(sim, dir_, config_fp());
    EXPECT_TRUE(report.resumed);
    EXPECT_EQ(report.step, expected_step);
    EXPECT_EQ(report.invalid_skipped, 0);
    while (sim.interval() < kIntervals) sim.advance();
    hook.checkpoint_now(sim);
    return sim.state_fingerprint();
  }

  /// Checkpoint 3 fails with an injected \p op fault. The error must come
  /// out of the next advance(), naming the file, and leave only intact
  /// checkpoints behind; a resume after the fault clears must reach the
  /// uninterrupted fingerprint.
  void expect_fault_surfaces_from_next_advance(const std::string& op) {
    FsFaultSpec spec;
    spec.op = op;
    spec.path_contains = "ckpt-";
    spec.skip = 2;
    spec.count = 1;
    spec.error_no = EIO;
    fs_fault_install(spec);
    {
      CoupledCheckpointer hook(policy_, config_fp());
      CoupledSimulation sim(machine_, models_.model, models_.truth,
                            hooked(hook));
      for (int i = 0; i < 3; ++i) sim.advance();  // checkpoint 3 handed off
      try {
        sim.advance();
        FAIL() << "the failed write of checkpoint 3 was not reported";
      } catch (const CheckError& e) {
        EXPECT_NE(std::string(e.what()).find("ckpt-00000003.stck"),
                  std::string::npos)
            << e.what();
      }
    }  // destruction must not throw
    EXPECT_EQ(files(), (std::vector<std::string>{"ckpt-00000001.stck",
                                                 "ckpt-00000002.stck"}));
    for (const std::string& name : files())
      EXPECT_NO_THROW((void)load_checkpoint(dir_ / name)) << name;
    fs_fault_clear();
    EXPECT_EQ(resume_and_finish(2), reference_fingerprint());
  }

  ModelStack models_;
  Machine machine_;
  CoupledConfig config_;
  CheckpointPolicy policy_;
  fs::path dir_;
};

TEST_F(WriteBehindTest, FileEqualsEncodeOfTheSameState) {
  CoupledCheckpointer hook(policy_, config_fp());
  CoupledSimulation sim(machine_, models_.model, models_.truth, hooked(hook));
  sim.advance();
  sim.advance();  // checkpoint 2 handed off, possibly still in flight

  RunCheckpoint ckpt;
  ckpt.kind = CheckpointKind::kCoupledRun;
  ckpt.config_fingerprint = config_fp();
  ckpt.step = sim.interval();
  ckpt.state_fingerprint = sim.state_fingerprint();
  ckpt.coupled = sim.export_state();
  const std::vector<std::byte> expected = encode_checkpoint(ckpt);

  EXPECT_EQ(hook.checkpoint_now(sim), ckpt.state_fingerprint);  // drains
  EXPECT_EQ(read_file_bytes(checkpoint_file_path(dir_, 2)), expected);
}

TEST_F(WriteBehindTest, DestroyingWithAWriteInFlightLeavesItLoadable) {
  CoupledSimulation twin(machine_, models_.model, models_.truth, config_);
  twin.advance();
  twin.advance();
  {
    CoupledCheckpointer hook(policy_, config_fp());
    CoupledSimulation sim(machine_, models_.model, models_.truth,
                          hooked(hook));
    sim.advance();
    sim.advance();
  }  // straight on: the destructor is the only drain point
  const std::optional<LatestCheckpoint> latest =
      latest_valid_checkpoint(dir_, config_fp());
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->checkpoint.step, 2);
  EXPECT_EQ(latest->checkpoint.state_fingerprint, twin.state_fingerprint());
  EXPECT_EQ(latest->invalid_skipped, 0);
}

TEST_F(WriteBehindTest, CountsAtHandOffAndPrunesAtCollection) {
  policy_.keep = 1;
  CoupledCheckpointer hook(policy_, config_fp());
  CoupledSimulation sim(machine_, models_.model, models_.truth, hooked(hook));
  sim.advance();
  EXPECT_EQ(hook.writes(), 1);  // counted when handed off
  const std::int64_t first_bytes = hook.bytes_written();
  hook.checkpoint_now(sim);  // drains write 1: nothing older to prune
  EXPECT_EQ(static_cast<std::int64_t>(
                fs::file_size(checkpoint_file_path(dir_, 1))),
            first_bytes);
  EXPECT_EQ(hook.pruned(), 0);
  sim.advance();
  EXPECT_EQ(hook.writes(), 2);
  sim.advance();  // collects write 2, which pruned checkpoint 1
  EXPECT_EQ(hook.pruned(), 1);
  hook.checkpoint_now(sim);  // collects write 3, which pruned checkpoint 2
  EXPECT_EQ(hook.writes(), 3);
  EXPECT_EQ(hook.pruned(), 2);
  EXPECT_EQ(files(), std::vector<std::string>{"ckpt-00000003.stck"});
}

TEST_F(WriteBehindTest, FsyncFaultSurfacesFromTheNextAdvance) {
  expect_fault_surfaces_from_next_advance("fsync");
}

TEST_F(WriteBehindTest, WriteFaultSurfacesFromTheNextAdvance) {
  expect_fault_surfaces_from_next_advance("write");
}

TEST_F(WriteBehindTest, FaultOnTheLastCheckpointSurfacesFromCheckpointNow) {
  FsFaultSpec spec;
  spec.op = "fsync";
  spec.path_contains = "ckpt-";
  spec.skip = kIntervals - 1;
  spec.count = 1;
  fs_fault_install(spec);
  CoupledCheckpointer hook(policy_, config_fp());
  CoupledSimulation sim(machine_, models_.model, models_.truth, hooked(hook));
  for (int i = 0; i < kIntervals; ++i) sim.advance();
  try {
    hook.checkpoint_now(sim);
    FAIL() << "the failed write of the last checkpoint was not reported";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("ckpt-00000006.stck"),
              std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(fs::exists(checkpoint_file_path(dir_, kIntervals)));
  // A reported failure does not count as written: once the disk recovers,
  // checkpoint_now writes the step again.
  fs_fault_clear();
  EXPECT_EQ(hook.checkpoint_now(sim), sim.state_fingerprint());
  EXPECT_EQ(load_checkpoint(checkpoint_file_path(dir_, kIntervals))
                .state_fingerprint,
            sim.state_fingerprint());
  EXPECT_EQ(sim.state_fingerprint(), reference_fingerprint());
}

TEST_F(WriteBehindTest, TraceFileEqualsEncodeOfTheSameState) {
  const Trace trace = small_trace();
  const TraceRunResult result = run_trace_run(trace);

  // The same state on a twin pipeline. The registry's wall-clock seconds
  // are the run's own, so they come from its result.
  ManagerConfig config;
  config.strategy = "hysteresis";
  AdaptationPipeline twin(machine_, models_.model, models_.truth, config);
  RunCheckpoint ckpt;
  for (const std::vector<NestSpec>& event : trace)
    ckpt.outcomes.push_back(twin.apply(event));
  ckpt.kind = CheckpointKind::kTraceRun;
  ckpt.config_fingerprint =
      trace_run_fingerprint(machine_, "hysteresis", trace, ManagerConfig{});
  ckpt.step = kIntervals;
  ckpt.state_fingerprint = twin.state_fingerprint();
  ckpt.pipeline = twin.export_state();
  ckpt.pipeline.metrics = result.metrics;
  EXPECT_EQ(ckpt.state_fingerprint, result.final_state_fingerprint);
  EXPECT_EQ(read_file_bytes(checkpoint_file_path(dir_, kIntervals)),
            encode_checkpoint(ckpt));
}

TEST_F(WriteBehindTest, TraceFsyncFaultSurfacesNamingTheFile) {
  const Trace trace = small_trace();
  FsFaultSpec spec;
  spec.op = "fsync";
  spec.path_contains = "ckpt-";
  spec.skip = 2;
  spec.count = 1;
  spec.error_no = EIO;
  fs_fault_install(spec);
  try {
    (void)run_trace_run(trace);
    FAIL() << "the failed write of checkpoint 3 was not reported";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("ckpt-00000003.stck"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(files(), (std::vector<std::string>{"ckpt-00000001.stck",
                                               "ckpt-00000002.stck"}));
  fs_fault_clear();
  ResumeReport report;
  const TraceRunResult resumed = run_trace_run(trace, {}, &report);
  EXPECT_TRUE(report.resumed);
  EXPECT_EQ(report.step, 2);
  EXPECT_EQ(resumed.final_state_fingerprint,
            reference_trace_fingerprint(trace));
}

TEST_F(WriteBehindTest, CancelledTraceRunsLastCheckpointIsLoadable) {
  const Trace trace = small_trace();
  policy_.every = 100;  // only the checkpoint taken on cancellation
  CancelToken token;
  CancellingExecutor executor(token, 5);
  ManagerConfig config;
  config.executor = &executor;
  config.cancel = &token;
  EXPECT_THROW((void)run_trace_run(trace, config), CancelledError);

  const std::optional<LatestCheckpoint> latest = latest_valid_checkpoint(
      dir_, trace_run_fingerprint(machine_, "hysteresis", trace, config));
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->invalid_skipped, 0);
  const std::int64_t step = latest->checkpoint.step;
  EXPECT_GT(step, 0);
  EXPECT_LT(step, kIntervals);
  ResumeReport report;
  const TraceRunResult resumed = run_trace_run(trace, {}, &report);
  EXPECT_EQ(report.step, step);
  EXPECT_EQ(resumed.outcomes.size(), static_cast<std::size_t>(kIntervals));
  EXPECT_EQ(resumed.final_state_fingerprint,
            reference_trace_fingerprint(trace));
}

TEST_F(WriteBehindTest, TraceFaultOnTheLastCheckpointSurfacesFromTheRun) {
  FsFaultSpec spec;
  spec.op = "fsync";
  spec.path_contains = "ckpt-";
  spec.skip = kIntervals - 1;
  spec.count = 1;
  fs_fault_install(spec);
  try {
    (void)run_trace_run(small_trace());
    FAIL() << "the failed write of the last checkpoint was not reported";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("ckpt-00000006.stck"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(WriteBehindTest, FailedCancellationCheckpointIsNotReportedAsWritten) {
  // A cancelled run's caller reports "final checkpoint written" on
  // CancelledError, so a failed write of that checkpoint must surface
  // as the error instead.
  FsFaultSpec spec;
  spec.op = "fsync";
  spec.path_contains = "ckpt-";
  spec.count = 1;
  fs_fault_install(spec);
  policy_.every = 100;  // only the checkpoint taken on cancellation
  CancelToken token;
  CancellingExecutor executor(token, 5);
  ManagerConfig config;
  config.executor = &executor;
  config.cancel = &token;
  try {
    (void)run_trace_run(small_trace(), config);
    FAIL() << "the cancelled run returned";
  } catch (const CancelledError&) {
    FAIL() << "the failed checkpoint write was reported as cancellation";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("was not written"),
              std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(files().empty());
}

}  // namespace
}  // namespace stormtrack
