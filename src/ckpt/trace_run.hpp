#pragma once

/// \file trace_run.hpp
/// Checkpointed variant of the core experiment harness: run one trace
/// under one strategy, writing a durable checkpoint at a configurable
/// cadence, and transparently resuming from the newest valid checkpoint in
/// the policy directory when one exists.
///
/// A resumed run is exact: the pipeline state, accumulated metrics, and
/// per-point outcomes are restored from the checkpoint, so the returned
/// TraceRunResult — totals, metrics, final_state_fingerprint — is
/// byte-identical to an uninterrupted run's. A final checkpoint is always
/// written after the last adaptation point even when the cadence does not
/// divide the trace length.
///
/// The coupled runs' CheckpointWriter writes behind the run: checkpoint k
/// is durable before k+1 is handed over, before the run returns, and
/// before a CancelledError reaches the caller. A SIGKILL may lose the
/// newest one; the resume then starts a checkpoint earlier, same result.

#include <cstdint>
#include <string_view>

#include "ckpt/checkpoint.hpp"
#include "core/experiment.hpp"

namespace stormtrack {

/// Fingerprint binding trace-run checkpoints to their configuration:
/// machine label + grid, strategy, the ManagerConfig tunables, the full
/// trace content, and the fault plan when an injector is attached.
[[nodiscard]] std::uint64_t trace_run_fingerprint(const Machine& machine,
                                                  std::string_view strategy,
                                                  const Trace& trace,
                                                  const ManagerConfig& config);

/// run_trace with durable checkpoints (see file comment). \p resume, when
/// non-null, reports whether and from where the run resumed.
[[nodiscard]] TraceRunResult run_trace_checkpointed(
    const Machine& machine, const ExecTimeModel& model,
    const GroundTruthCost& truth, std::string_view strategy,
    const Trace& trace, ManagerConfig config, const CheckpointPolicy& policy,
    ResumeReport* resume = nullptr);

}  // namespace stormtrack
