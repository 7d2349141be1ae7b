#include "ckpt/trace_run.hpp"

#include <utility>

#include "exec/cancel.hpp"
#include "util/check.hpp"
#include "util/fnv.hpp"

namespace stormtrack {

std::uint64_t trace_run_fingerprint(const Machine& machine,
                                    std::string_view strategy,
                                    const Trace& trace,
                                    const ManagerConfig& config) {
  Fingerprint fp;
  add_fingerprint(fp, machine);
  fp.add(strategy);
  add_fingerprint(fp, config);
  add_fingerprint(fp, trace);
  if (config.injector != nullptr) add_fingerprint(fp, config.injector->plan());
  return fp.value();
}

TraceRunResult run_trace_checkpointed(const Machine& machine,
                                      const ExecTimeModel& model,
                                      const GroundTruthCost& truth,
                                      std::string_view strategy,
                                      const Trace& trace,
                                      ManagerConfig config,
                                      const CheckpointPolicy& policy,
                                      ResumeReport* resume) {
  policy.validate();
  const std::uint64_t config_fp =
      trace_run_fingerprint(machine, strategy, trace, config);
  config.strategy = std::string(strategy);
  FaultInjector* const injector = config.injector;
  AdaptationPipeline pipeline(machine, model, truth, std::move(config));

  TraceRunResult result;
  result.outcomes.reserve(trace.size());
  std::uint64_t restored = 0;
  const ResumeReport report = resume_run(
      policy.dir, config_fp, CheckpointKind::kTraceRun, injector,
      [&](RunCheckpoint& ckpt) {
        ST_CHECK_MSG(static_cast<std::size_t>(ckpt.step) <= trace.size(),
                     "checkpoint is at step " << ckpt.step
                                              << " but the trace has only "
                                              << trace.size() << " events");
        ST_CHECK_MSG(ckpt.outcomes.size() ==
                         static_cast<std::size_t>(ckpt.step),
                     "checkpoint at step " << ckpt.step << " carries "
                                           << ckpt.outcomes.size()
                                           << " outcomes");
        pipeline.import_state(ckpt.pipeline);
        result.outcomes = std::move(ckpt.outcomes);
        restored = pipeline.state_fingerprint();
        return restored;
      });

  // The resumed step is already on disk, so resuming at the final point
  // or a cadence landing on the last event never writes it twice.
  CheckpointWriter writer(policy, config_fp);
  if (report.resumed) writer.resumed_at(report.step, restored);
  const auto write = [&](std::int64_t step) {
    writer.write(step, pipeline.metrics(), injector, [&](RunCheckpoint& ckpt) {
      ckpt.kind = CheckpointKind::kTraceRun;
      ckpt.state_fingerprint = pipeline.state_fingerprint();
      ckpt.pipeline = pipeline.export_state();
      ckpt.outcomes = result.outcomes;
    });
  };

  for (std::size_t i = result.outcomes.size(); i < trace.size(); ++i) {
    try {
      result.outcomes.push_back(pipeline.apply(trace[i]));
    } catch (const CancelledError&) {
      // Cancellation is polled at the top of apply(), before any mutation,
      // so the pipeline state still matches the outcomes gathered so far.
      // Capture that progress durably (a SIGTERM'd run resumes from here
      // with --resume), then let the caller pick the exit path.
      write(static_cast<std::int64_t>(result.outcomes.size()));
      writer.collect();
      throw;
    }
    if (policy.due(static_cast<std::int64_t>(i)))
      write(static_cast<std::int64_t>(i) + 1);
  }
  // Final state always captured, even when the cadence does not divide the
  // trace length (the writer's guard skips the duplicate when it does).
  write(static_cast<std::int64_t>(trace.size()));
  writer.collect();

  result.metrics = pipeline.metrics();
  result.final_state_fingerprint = pipeline.state_fingerprint();
  if (resume != nullptr) *resume = report;
  return result;
}

}  // namespace stormtrack
