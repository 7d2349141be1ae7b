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
#include <exception>
#include <filesystem>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/checkpoint_hook.hpp"
#include "core/coupled.hpp"
#include "core/machine.hpp"
#include "core/pipeline.hpp"
#include "core/traces.hpp"
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

/// Delete all but the newest \p keep checkpoint files at or below step
/// \p newest (no-op when keep <= 0); returns the number removed. Files
/// above \p newest are another run's: a run that starts fresh beside them
/// must not prune its own newest checkpoint.
int prune_checkpoints(const std::filesystem::path& dir, int keep,
                      std::int64_t newest);

/// The one checkpoint writer of both run shapes. The caller's thread
/// captures and encodes the state; a thread of this writer then runs
/// write_file_atomic and prune_checkpoints while the run goes on. At most
/// one write is in flight: checkpoint k is durable before k+1 is handed
/// over, before collect() returns and before the destructor returns, and
/// latest_valid_checkpoint() then finds it. A failed write is rethrown,
/// naming its file, from the next write() or collect(); its step no
/// longer counts as written. The destructor drains but cannot throw; a
/// failure only it collects is lost, as a crash during the write would be.
class CheckpointWriter {
 public:
  /// Validates the policy; starts no thread. Every checkpoint is bound to
  /// \p config_fingerprint.
  CheckpointWriter(CheckpointPolicy policy, std::uint64_t config_fingerprint);
  ~CheckpointWriter();
  CheckpointWriter(const CheckpointWriter&) = delete;
  CheckpointWriter& operator=(const CheckpointWriter&) = delete;

  /// Checkpoint \p step (steps completed) unless it is already written:
  /// bump `ckpt.writes` in \p metrics, let \p capture fill in the kind,
  /// the state fingerprint and the state, add \p injector's state when
  /// one is attached, encode, collect the previous write, and hand the
  /// frame to a new writer thread.
  void write(std::int64_t step, MetricsRegistry& metrics,
             const FaultInjector* injector,
             const std::function<void(RunCheckpoint&)>& capture);
  /// Wait for the write in flight, if any; rethrows its failure.
  void collect();
  /// The run resumed from the checkpoint of \p step, recorded with
  /// \p state_fingerprint: that step is on disk, so write() skips it and
  /// last_fingerprint() reports it.
  void resumed_at(std::int64_t step, std::uint64_t state_fingerprint);

  [[nodiscard]] const CheckpointPolicy& policy() const { return policy_; }
  /// State fingerprint recorded in the checkpoint written last.
  [[nodiscard]] std::uint64_t last_fingerprint() const {
    return last_fingerprint_;
  }
  /// Checkpoints handed over and their encoded bytes.
  [[nodiscard]] std::int64_t bytes_written() const { return bytes_written_; }
  [[nodiscard]] int writes() const { return writes_; }
  /// Files pruned by the writes collected so far.
  [[nodiscard]] int pruned() const { return pruned_; }

 private:
  /// Body of the writer thread: write and prune pending_, record the
  /// outcome in it.
  void write_pending();

  CheckpointPolicy policy_;
  std::uint64_t config_fp_;
  std::int64_t last_step_ = -1;
  std::uint64_t last_fingerprint_ = 0;  ///< Recorded at last_step_.
  std::int64_t bytes_written_ = 0;
  int writes_ = 0;
  int pruned_ = 0;

  /// The write handed over last. The writer thread owns it while thread_
  /// is joinable; it touches nothing else but the filesystem.
  struct PendingWrite {
    std::int64_t step = 0;
    std::filesystem::path file;
    std::vector<std::byte> frame;  ///< Released once written.
    int pruned = 0;
    std::exception_ptr error;
  };
  PendingWrite pending_;
  std::thread thread_;
};

/// CheckpointHook for coupled runs: writes a checkpoint through its
/// CheckpointWriter after every policy-due interval.
class CoupledCheckpointer final : public CheckpointHook {
 public:
  /// Validates the policy. \p config_fingerprint should come from
  /// coupled_config_fingerprint() on the same machine + config.
  CoupledCheckpointer(CheckpointPolicy policy,
                      std::uint64_t config_fingerprint);

  void on_interval(CoupledSimulation& sim, int interval) override;
  /// Seeds the writer with the resumed step, so checkpoint_now() there
  /// neither rewrites it nor counts another write.
  void on_resume(std::int64_t step, std::uint64_t state_fingerprint) override;

  /// Unconditional checkpoint of the current state (idempotent per step),
  /// durable on return: runners call this once after the loop so the final
  /// state is always on disk even when the cadence does not divide the
  /// interval count. Returns the state fingerprint recorded in the
  /// checkpoint; when this step was already handed over, the one recorded
  /// then, since the state has not changed since.
  std::uint64_t checkpoint_now(CoupledSimulation& sim);

  /// See CheckpointWriter.
  [[nodiscard]] std::int64_t bytes_written() const {
    return writer_.bytes_written();
  }
  [[nodiscard]] int writes() const { return writer_.writes(); }
  [[nodiscard]] int pruned() const { return writer_.pruned(); }

 private:
  void write(CoupledSimulation& sim);

  CheckpointWriter writer_;
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

/// The one resume-and-verify routine of both run shapes: load the newest
/// valid checkpoint in \p dir bound to \p config_fingerprint (none:
/// resumed=false), check its kind and injector presence, let \p restore
/// import the run state and return its state fingerprint (which does not
/// cover the injector), import the injector state, and verify the
/// fingerprint. A failed check throws CheckError naming the file.
[[nodiscard]] ResumeReport resume_run(
    const std::filesystem::path& dir, std::uint64_t config_fingerprint,
    CheckpointKind kind, FaultInjector* injector,
    const std::function<std::uint64_t(RunCheckpoint&)>& restore);

/// Restore \p sim (and its attached fault injector, when both the
/// checkpoint and the simulation have one) from the newest valid checkpoint
/// in \p dir, through resume_run(), and tell its checkpoint hook which step
/// it resumed from (CheckpointHook::on_resume).
[[nodiscard]] ResumeReport resume_coupled(CoupledSimulation& sim,
                                          const std::filesystem::path& dir,
                                          std::uint64_t config_fingerprint);

/// The config hashes of trace-run and coupled checkpoints and sweep
/// journals, one per input: machine label and grid; the result-affecting
/// ManagerConfig tunables (hysteresis threshold, steps per interval, bytes
/// per point, initial view, resize schedule; not the strategy name or the
/// injector); every nest of every trace event; every fault event.
void add_fingerprint(Fingerprint& fp, const Machine& machine);
void add_fingerprint(Fingerprint& fp, const ManagerConfig& config);
void add_fingerprint(Fingerprint& fp, const Trace& trace);
void add_fingerprint(Fingerprint& fp, const FaultPlan& plan);

/// Fold every field of a real-mode scenario into \p fp: the one scenario
/// hash of coupled checkpoints and scenario sweep journals.
void add_fingerprint(Fingerprint& fp, const RealScenarioConfig& sc);

/// Fingerprint binding coupled-run checkpoints to their configuration:
/// machine label + grid, strategy + options, scenario seeds/extents, fault
/// plan shape.
[[nodiscard]] std::uint64_t coupled_config_fingerprint(
    const Machine& machine, const CoupledConfig& config);

}  // namespace stormtrack
