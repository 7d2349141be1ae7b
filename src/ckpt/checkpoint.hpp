#pragma once

/// \file checkpoint.hpp
/// Durable checkpoint/restart for stormtrack runs.
///
/// A checkpoint is the *complete committed state* of a run at one
/// adaptation point — everything needed to rebuild the run and continue the
/// exact step sequence of the original: the pipeline's tree / allocation /
/// nest map / grid view / metrics / strategy state, plus (for coupled runs)
/// the weather RNG position, tracker, and every live nest field, plus (for
/// bare trace runs) the per-point outcomes so far, plus the fault
/// injector's interpreter position when one is attached. Resume is exact:
/// a resumed run reaches the same state_fingerprint() and metrics totals
/// as an uninterrupted one.
///
/// On disk a checkpoint is one little-endian binary file:
///
///     u32 magic "STCK" | u32 version | u64 payload size | payload | u32 CRC
///
/// The CRC-32 (IEEE) covers the payload, so a torn or bit-flipped file is
/// detected and rejected with a descriptive error rather than silently
/// resuming from garbage. Files are written via write_file_atomic (unique
/// temp sibling + fsync + rename), so a crash mid-write can never damage an
/// existing checkpoint: after SIGKILL the directory holds only complete,
/// valid files plus possibly one orphaned temp file that the scan ignores.
/// latest_valid_checkpoint() walks the directory newest-first and falls
/// back past invalid files, so resume always finds the newest state that
/// survived.
///
/// config_fingerprint binds a checkpoint to the run configuration that
/// produced it (machine, strategy, trace / scenario, fault plan): resuming
/// under a different configuration is refused up front instead of diverging
/// silently halfway through.

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/checkpoint_hook.hpp"
#include "core/coupled.hpp"
#include "core/pipeline.hpp"
#include "fault/fault_injector.hpp"
#include "util/fnv.hpp"

namespace stormtrack {

/// "STCK" when the little-endian u32 is viewed as bytes on disk.
inline constexpr std::uint32_t kCheckpointMagic = 0x4B435453u;
// Version 2 appended PipelineState.resize_events_applied (elastic resize
// support). Version 3 replaced the inline live-nest field grids with the
// workload registry name plus an opaque INestWorkload state blob, so any
// payload implementation checkpoints through the same framing. Older
// versions are refused rather than silently misread.
inline constexpr std::uint32_t kCheckpointVersion = 3;

/// What shape of run a checkpoint captures.
enum class CheckpointKind : std::uint8_t {
  kTraceRun = 1,    ///< Bare pipeline driven by a pre-built Trace.
  kCoupledRun = 2,  ///< Full CoupledSimulation (weather + PDA + nests).
};

[[nodiscard]] std::string_view to_string(CheckpointKind kind);

/// See file comment. Exactly one of the kind-specific sections is
/// meaningful, selected by `kind`.
struct RunCheckpoint {
  CheckpointKind kind = CheckpointKind::kTraceRun;
  /// Binds the checkpoint to its run configuration (see file comment).
  std::uint64_t config_fingerprint = 0;
  /// Adaptation points (trace) or intervals (coupled) completed when the
  /// checkpoint was taken; the run resumes at step `step`.
  std::int64_t step = 0;
  /// State fingerprint at capture time; verified after restore, so a
  /// checkpoint that decodes but restores wrong is still caught.
  std::uint64_t state_fingerprint = 0;

  // --- kTraceRun ---
  AdaptationPipeline::PipelineState pipeline;
  /// Per-point outcomes so far, so a resumed TraceRunResult aggregates the
  /// same totals as an uninterrupted run.
  std::vector<StepOutcome> outcomes;

  // --- kCoupledRun ---
  CoupledSimulation::State coupled;

  // --- either kind ---
  bool has_injector = false;
  FaultInjector::State injector;
};

/// Serialize to the framed format of the file comment.
[[nodiscard]] std::vector<std::byte> encode_checkpoint(
    const RunCheckpoint& ckpt);

/// Parse a framed checkpoint; throws CheckError with a descriptive message
/// on bad magic, unsupported version, truncation, CRC mismatch, trailing
/// bytes, or any malformed field.
[[nodiscard]] RunCheckpoint decode_checkpoint(std::span<const std::byte> bytes);

/// When and where to checkpoint.
struct CheckpointPolicy {
  std::filesystem::path dir;
  /// Write after every N-th committed step (absolute step numbers, so an
  /// interrupted and a fresh run checkpoint at the same steps).
  int every = 1;
  /// Retain only the newest N checkpoint files; <= 0 keeps all.
  int keep = 3;

  /// True when a checkpoint is due after completing 0-based step \p step.
  [[nodiscard]] bool due(std::int64_t step) const {
    return (step + 1) % every == 0;
  }
  /// Throws CheckError unless dir is non-empty and every >= 1.
  void validate() const;
};

/// `<dir>/ckpt-<8-digit step>.stck`.
[[nodiscard]] std::filesystem::path checkpoint_file_path(
    const std::filesystem::path& dir, std::int64_t step);

/// Encode + write atomically to checkpoint_file_path(dir, ckpt.step);
/// returns the byte size written.
std::size_t save_checkpoint(const std::filesystem::path& dir,
                            const RunCheckpoint& ckpt);

/// Read + decode one checkpoint file.
[[nodiscard]] RunCheckpoint load_checkpoint(const std::filesystem::path& file);

/// Result of the newest-first directory scan.
struct LatestCheckpoint {
  std::filesystem::path path;
  RunCheckpoint checkpoint;
  /// Newer checkpoint files that failed to load (torn, corrupt, wrong
  /// version, wrong config) and were passed over.
  int invalid_skipped = 0;
  /// One decode error per skipped file, for diagnostics.
  std::vector<std::string> errors;
};

/// Newest valid checkpoint in \p dir, falling back past invalid files.
/// When \p config_fingerprint is set, checkpoints bound to a different
/// configuration count as invalid. nullopt when the directory holds no
/// loadable checkpoint (or does not exist).
[[nodiscard]] std::optional<LatestCheckpoint> latest_valid_checkpoint(
    const std::filesystem::path& dir,
    std::optional<std::uint64_t> config_fingerprint = std::nullopt);

/// Delete all but the newest \p keep checkpoint files (by step number);
/// no-op when keep <= 0. Returns the number of files removed.
int prune_checkpoints(const std::filesystem::path& dir, int keep);

/// CheckpointHook for coupled runs: writes a checkpoint after every
/// policy-due interval, pruning per policy.keep. The `ckpt.writes` counter
/// is bumped in the simulation's registry *before* the state is serialized,
/// so the count inside checkpoint k already includes write k and a resumed
/// run's metrics totals equal the uninterrupted run's.
class CoupledCheckpointer final : public CheckpointHook {
 public:
  /// Validates the policy. \p config_fingerprint should come from
  /// coupled_config_fingerprint() on the same machine + config.
  CoupledCheckpointer(CheckpointPolicy policy,
                      std::uint64_t config_fingerprint);

  void on_interval(CoupledSimulation& sim, int interval) override;

  /// Unconditional checkpoint of the current state (idempotent per step):
  /// runners call this once after the loop so the final state is always
  /// captured even when the cadence does not divide the interval count.
  /// Returns the state fingerprint recorded in the checkpoint; when this
  /// step was already written, the one recorded then, since the state has
  /// not changed since.
  std::uint64_t checkpoint_now(CoupledSimulation& sim);

  [[nodiscard]] std::int64_t bytes_written() const { return bytes_written_; }
  [[nodiscard]] int writes() const { return writes_; }
  [[nodiscard]] int pruned() const { return pruned_; }

 private:
  CheckpointPolicy policy_;
  std::uint64_t config_fp_;
  std::int64_t last_step_ = -1;
  std::uint64_t last_fingerprint_ = 0;  ///< Recorded at last_step_.
  std::int64_t bytes_written_ = 0;
  int writes_ = 0;
  int pruned_ = 0;
};

/// Outcome of a resume attempt.
struct ResumeReport {
  bool resumed = false;
  /// Steps (intervals / adaptation points) already completed; the run
  /// continues at this step. -1 when not resumed.
  std::int64_t step = -1;
  int invalid_skipped = 0;
  std::filesystem::path path;  ///< Checkpoint file actually used.
};

/// Restore \p sim (and its attached fault injector, when both the
/// checkpoint and the simulation have one) from the newest valid checkpoint
/// in \p dir. Returns resumed=false when the directory holds none. Throws
/// CheckError when the newest valid checkpoint is not a coupled-run
/// checkpoint, when injector presence disagrees, or when the restored
/// state's fingerprint does not match the one recorded at capture.
[[nodiscard]] ResumeReport resume_coupled(CoupledSimulation& sim,
                                          const std::filesystem::path& dir,
                                          std::uint64_t config_fingerprint);

/// Fold every field of a real-mode scenario into \p fp: the one scenario
/// hash of coupled checkpoints and scenario sweep journals.
void add_fingerprint(Fingerprint& fp, const RealScenarioConfig& sc);

/// Fingerprint binding coupled-run checkpoints to their configuration:
/// machine label + grid, strategy + options, scenario seeds/extents, fault
/// plan shape.
[[nodiscard]] std::uint64_t coupled_config_fingerprint(
    const Machine& machine, const CoupledConfig& config);

}  // namespace stormtrack
