#include "ckpt/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <filesystem>
#include <string>
#include <vector>

#include "ckpt/trace_run.hpp"
#include "core/experiment.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "util/atomic_file.hpp"
#include "util/check.hpp"
#include "util/fnv.hpp"

namespace stormtrack {
namespace {

namespace fs = std::filesystem;

Trace small_trace(int events, std::uint64_t seed = 11) {
  SyntheticTraceConfig cfg;
  cfg.num_events = events;
  cfg.seed = seed;
  return generate_synthetic_trace(cfg);
}

/// A realistic trace-run checkpoint: drive a real pipeline \p steps points
/// into \p trace and capture everything, exactly as the runner does.
RunCheckpoint trace_checkpoint(const Machine& machine,
                               const ModelStack& models, const Trace& trace,
                               int steps) {
  ManagerConfig config;
  config.strategy = "hysteresis";  // cross-point strategy state gets covered
  AdaptationPipeline pipeline(machine, models.model, models.truth, config);
  RunCheckpoint ckpt;
  ckpt.kind = CheckpointKind::kTraceRun;
  ckpt.config_fingerprint =
      trace_run_fingerprint(machine, "hysteresis", trace, config);
  for (int i = 0; i < steps; ++i)
    ckpt.outcomes.push_back(pipeline.apply(trace[static_cast<std::size_t>(i)]));
  ckpt.step = steps;
  ckpt.state_fingerprint = pipeline.state_fingerprint();
  ckpt.pipeline = pipeline.export_state();
  return ckpt;
}

/// Encode + write \p ckpt to its file in \p dir; returns the byte size.
std::size_t save_checkpoint(const fs::path& dir, const RunCheckpoint& ckpt) {
  const std::vector<std::byte> bytes = encode_checkpoint(ckpt);
  write_file_atomic(checkpoint_file_path(dir, ckpt.step),
                    std::span<const std::byte>(bytes));
  return bytes.size();
}

class CheckpointTest : public ::testing::Test {
 protected:
  CheckpointTest() : machine_(Machine::bluegene(256)) {}

  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("st_ckpt_" + std::string(::testing::UnitTest::GetInstance()
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

TEST_F(CheckpointTest, TraceRunEncodeDecodeIsStable) {
  const RunCheckpoint ckpt =
      trace_checkpoint(machine_, models_, small_trace(5), 3);
  const std::vector<std::byte> bytes = encode_checkpoint(ckpt);
  const RunCheckpoint decoded = decode_checkpoint(bytes);
  EXPECT_EQ(decoded.kind, CheckpointKind::kTraceRun);
  EXPECT_EQ(decoded.step, 3);
  EXPECT_EQ(decoded.config_fingerprint, ckpt.config_fingerprint);
  EXPECT_EQ(decoded.state_fingerprint, ckpt.state_fingerprint);
  EXPECT_EQ(decoded.outcomes.size(), 3u);
  EXPECT_FALSE(decoded.has_injector);
  // Re-encoding the decoded checkpoint reproduces the bytes exactly —
  // every field of every nested struct survives the round trip.
  EXPECT_EQ(encode_checkpoint(decoded), bytes);
}

TEST_F(CheckpointTest, DecodedStateRestoresIntoALivePipeline) {
  const Trace trace = small_trace(6);
  const RunCheckpoint ckpt = trace_checkpoint(machine_, models_, trace, 4);
  const RunCheckpoint decoded =
      decode_checkpoint(encode_checkpoint(ckpt));

  ManagerConfig config;
  config.strategy = "hysteresis";
  AdaptationPipeline restored(machine_, models_.model, models_.truth, config);
  restored.import_state(decoded.pipeline);
  EXPECT_EQ(restored.state_fingerprint(), ckpt.state_fingerprint);
}

TEST_F(CheckpointTest, CoupledEncodeDecodeIsStable) {
  CoupledConfig config;
  config.scenario.num_intervals = 4;
  config.scenario.seed = 5;
  CoupledSimulation sim(machine_, models_.model, models_.truth, config);
  for (int i = 0; i < 3; ++i) sim.advance();

  RunCheckpoint ckpt;
  ckpt.kind = CheckpointKind::kCoupledRun;
  ckpt.config_fingerprint = coupled_config_fingerprint(machine_, config);
  ckpt.step = sim.interval();
  ckpt.state_fingerprint = sim.state_fingerprint();
  ckpt.coupled = sim.export_state();

  const std::vector<std::byte> bytes = encode_checkpoint(ckpt);
  const RunCheckpoint decoded = decode_checkpoint(bytes);
  EXPECT_EQ(decoded.kind, CheckpointKind::kCoupledRun);
  EXPECT_EQ(decoded.step, 3);
  EXPECT_EQ(encode_checkpoint(decoded), bytes);

  CoupledSimulation restored(machine_, models_.model, models_.truth, config);
  restored.import_state(decoded.coupled);
  EXPECT_EQ(restored.state_fingerprint(), ckpt.state_fingerprint);
}

TEST_F(CheckpointTest, CoupledFileBytesArePinned) {
  // The on-disk format, byte for byte: a coupled field run after 3
  // intervals, with the registry's wall-clock seconds zeroed so the bytes
  // are a pure function of the simulation. The value was captured from the
  // per-byte encoder; a layout change of any kind moves it.
  CoupledConfig config;
  config.scenario.num_intervals = 4;
  config.scenario.seed = 5;
  CoupledSimulation sim(machine_, models_.model, models_.truth, config);
  for (int i = 0; i < 3; ++i) sim.advance();

  RunCheckpoint ckpt;
  ckpt.kind = CheckpointKind::kCoupledRun;
  ckpt.config_fingerprint = coupled_config_fingerprint(machine_, config);
  ckpt.step = sim.interval();
  ckpt.state_fingerprint = sim.state_fingerprint();
  ckpt.coupled = sim.export_state();
  MetricsRegistry counts_only;
  for (const auto& [name, entry] : ckpt.coupled.pipeline.metrics.entries())
    counts_only.add_entry(name, {0.0, entry.count});
  ckpt.coupled.pipeline.metrics = std::move(counts_only);

  const std::vector<std::byte> bytes = encode_checkpoint(ckpt);
  Fingerprint fp;
  fp.add_bytes(bytes.data(), bytes.size());
  EXPECT_EQ(bytes.size(), 932576u);
  EXPECT_EQ(fp.value(), 0x1ac5708d8945a76aull);
}

/// A plan, a resize schedule and a sub-grid initial view: every input the
/// config hashes read besides the defaults. The pinned values below bind
/// every checkpoint already on disk; a change of either orphans them.
ManagerConfig pinned_manager_config(FaultInjector& injector) {
  ManagerConfig config;
  config.strategy_options.hysteresis_threshold = 0.125;
  config.initial_view_px = 8;
  config.initial_view_py = 16;
  config.resize_schedule = {{2, 16, 16}, {4, 12, 16}};
  config.injector = &injector;
  return config;
}

FaultPlan pinned_plan() {
  FaultPlan::RandomConfig rc;
  rc.num_events = 6;
  rc.num_points = 8;
  rc.num_ranks = 256;
  rc.seed = 9;
  return FaultPlan::random(rc);
}

TEST_F(CheckpointTest, TraceRunFingerprintIsPinned) {
  FaultInjector injector(pinned_plan());
  const ManagerConfig config = pinned_manager_config(injector);
  EXPECT_EQ(trace_run_fingerprint(machine_, "hysteresis", small_trace(5),
                                  config),
            0x881c70a795300f2eull);
}

TEST_F(CheckpointTest, CoupledConfigFingerprintIsPinned) {
  FaultInjector injector(pinned_plan());
  CoupledConfig config;
  config.scenario.num_intervals = 6;
  config.scenario.seed = 31;
  config.workload = "particles";
  config.manager = pinned_manager_config(injector);
  config.manager.strategy = "dynamic";
  EXPECT_EQ(coupled_config_fingerprint(machine_, config),
            0xde16f0183ca799baull);
}

TEST_F(CheckpointTest, ZeroLengthFileIsRejected) {
  EXPECT_THROW((void)decode_checkpoint({}), CheckError);
}

TEST_F(CheckpointTest, BadMagicIsRejectedDescriptively) {
  std::vector<std::byte> bytes =
      encode_checkpoint(trace_checkpoint(machine_, models_, small_trace(3), 2));
  bytes[0] = std::byte{0x00};
  try {
    (void)decode_checkpoint(bytes);
    FAIL() << "bad magic must be rejected";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos);
  }
}

TEST_F(CheckpointTest, UnsupportedVersionIsRejected) {
  std::vector<std::byte> bytes =
      encode_checkpoint(trace_checkpoint(machine_, models_, small_trace(3), 2));
  bytes[4] = std::byte{0x99};  // version field follows the magic
  try {
    (void)decode_checkpoint(bytes);
    FAIL() << "wrong version must be rejected";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST_F(CheckpointTest, EveryTruncationIsRejected) {
  const std::vector<std::byte> bytes =
      encode_checkpoint(trace_checkpoint(machine_, models_, small_trace(3), 2));
  // Cut the file at a spread of lengths, including mid-header, mid-payload
  // and just shy of the trailing CRC; none may decode.
  for (const std::size_t len :
       {std::size_t{1}, std::size_t{4}, std::size_t{9}, std::size_t{16},
        bytes.size() / 2, bytes.size() - 5, bytes.size() - 1}) {
    SCOPED_TRACE("length " + std::to_string(len));
    EXPECT_THROW(
        (void)decode_checkpoint(std::span(bytes.data(), len)), CheckError);
  }
}

TEST_F(CheckpointTest, BitFlipFailsTheCrc) {
  std::vector<std::byte> bytes =
      encode_checkpoint(trace_checkpoint(machine_, models_, small_trace(3), 2));
  bytes[bytes.size() / 2] ^= std::byte{0x40};
  try {
    (void)decode_checkpoint(bytes);
    FAIL() << "bit flip must fail the CRC";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("CRC"), std::string::npos);
  }
}

TEST_F(CheckpointTest, TrailingBytesAreRejected) {
  std::vector<std::byte> bytes =
      encode_checkpoint(trace_checkpoint(machine_, models_, small_trace(3), 2));
  bytes.push_back(std::byte{0xEE});
  EXPECT_THROW((void)decode_checkpoint(bytes), CheckError);
}

TEST_F(CheckpointTest, SaveLoadRoundTripsOnDisk) {
  const RunCheckpoint ckpt =
      trace_checkpoint(machine_, models_, small_trace(4), 2);
  const std::size_t bytes = save_checkpoint(dir_, ckpt);
  EXPECT_GT(bytes, 0u);
  const fs::path file = checkpoint_file_path(dir_, 2);
  ASSERT_TRUE(fs::exists(file));
  const RunCheckpoint loaded = load_checkpoint(file);
  EXPECT_EQ(loaded.state_fingerprint, ckpt.state_fingerprint);
}

TEST_F(CheckpointTest, LatestValidFallsBackPastCorruptNewerFiles) {
  const Trace trace = small_trace(6);
  for (const int steps : {1, 2, 3})
    save_checkpoint(dir_, trace_checkpoint(machine_, models_, trace, steps));
  // Corrupt the newest file and truncate the second-newest: resume must
  // fall back to the oldest intact one and report both skips.
  write_file_atomic(checkpoint_file_path(dir_, 3),
                    std::string_view("not a checkpoint at all"));
  const std::vector<std::byte> good =
      read_file_bytes(checkpoint_file_path(dir_, 2));
  write_file_atomic(checkpoint_file_path(dir_, 2),
                    std::span(good.data(), good.size() / 2));

  const auto latest = latest_valid_checkpoint(dir_);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->checkpoint.step, 1);
  EXPECT_EQ(latest->invalid_skipped, 2);
  EXPECT_EQ(latest->errors.size(), 2u);
}

TEST_F(CheckpointTest, LatestValidFiltersByConfigFingerprint) {
  save_checkpoint(dir_,
                  trace_checkpoint(machine_, models_, small_trace(3), 2));
  EXPECT_TRUE(latest_valid_checkpoint(dir_).has_value());
  EXPECT_FALSE(latest_valid_checkpoint(dir_, 0xDEADBEEFull).has_value());
}

TEST_F(CheckpointTest, MissingDirectoryYieldsNoCheckpoint) {
  EXPECT_FALSE(latest_valid_checkpoint(dir_ / "absent").has_value());
}

TEST_F(CheckpointTest, PruneKeepsOnlyTheNewest) {
  const Trace trace = small_trace(6);
  for (const int steps : {1, 2, 3, 4})
    save_checkpoint(dir_, trace_checkpoint(machine_, models_, trace, steps));
  EXPECT_EQ(prune_checkpoints(dir_, 2, 4), 2);
  EXPECT_FALSE(fs::exists(checkpoint_file_path(dir_, 1)));
  EXPECT_FALSE(fs::exists(checkpoint_file_path(dir_, 2)));
  EXPECT_TRUE(fs::exists(checkpoint_file_path(dir_, 3)));
  EXPECT_TRUE(fs::exists(checkpoint_file_path(dir_, 4)));
  EXPECT_EQ(prune_checkpoints(dir_, 0, 4), 0);  // keep <= 0 keeps all
}

TEST_F(CheckpointTest, PolicyValidationAndCadence) {
  CheckpointPolicy policy;
  EXPECT_THROW(policy.validate(), CheckError);  // no dir
  policy.dir = dir_;
  policy.every = 0;
  EXPECT_THROW(policy.validate(), CheckError);
  policy.every = 3;
  EXPECT_NO_THROW(policy.validate());
  EXPECT_FALSE(policy.due(0));
  EXPECT_FALSE(policy.due(1));
  EXPECT_TRUE(policy.due(2));   // third committed step
  EXPECT_TRUE(policy.due(5));
}

}  // namespace
}  // namespace stormtrack
