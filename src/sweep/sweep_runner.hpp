#pragma once

/// \file sweep_runner.hpp
/// Parallel {trace × machine × strategy} experiment grids.
///
/// Every bench binary used to hand-roll the same serial triple loop over
/// traces, machines and strategies. A SweepRunner names each axis point,
/// expands the cross product in a fixed strategy-major-last order
/// (trace, then machine, then strategy), and runs the cases as one batch
/// on an Executor (src/exec) — it owns no threads of its own. Results land
/// in a preallocated slot per case, so the output order — and, because
/// every simulated component is deterministic and shared state is
/// read-only — the output *values* are byte-identical to a serial run
/// regardless of thread count or scheduling.
///
/// The runner owns that executor (SweepSpec::threads sizes it), and hands
/// it to every case's AdaptationPipeline and workload, so candidate
/// evaluation inside a case nests its batches on the same pool.
///
/// Machines are constructed once, up front, on the calling thread; workers
/// only ever call const members of Machine / ExecTimeModel /
/// GroundTruthCost, which carry no hidden mutable state.

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "exec/executor.hpp"

namespace stormtrack {

class FaultPlan;

/// Supervision knobs for SweepRunner::run_supervised. Defaults mean "no
/// supervision": no deadline, one attempt, no journal.
struct SweepSupervision {
  /// Wall-clock budget per case attempt; 0 = unlimited. Enforced
  /// cooperatively: the pipeline polls a CancelToken at every adaptation
  /// point, so an attempt stops at the next point after the deadline.
  double case_deadline_seconds = 0.0;
  /// Total attempts per case before it is quarantined (>= 1).
  int max_attempts = 1;
  /// Base of the exponential backoff slept between attempts: retry k
  /// (1-based) waits backoff_seconds * 2^(k-1).
  double backoff_seconds = 0.01;
  /// Append-only completion journal; empty = no journal. See
  /// sweep_journal.hpp for the format.
  std::filesystem::path journal;
  /// Replay an existing journal and re-run only unfinished cases. Requires
  /// \ref journal to be set.
  bool resume = false;
};

/// Named trace axis point.
struct SweepTrace {
  std::string name;
  Trace trace;
};

/// Named coupled-scenario axis point: the alternative first axis to
/// traces. A scenario case runs a full CoupledSimulation (weather + PDA +
/// reallocation + SweepSpec::workload payload) for scenario.num_intervals
/// intervals instead of replaying a pre-built Trace; its TraceRunResult
/// carries the per-interval realloc outcomes, the simulation's merged
/// metrics (including workload.* counters), and the final state
/// fingerprint, so journaling / supervision / reporting work unchanged.
struct SweepScenario {
  std::string name;
  RealScenarioConfig scenario;
};

/// Named machine axis point; the factory defers (potentially expensive)
/// topology construction until the sweep actually runs.
struct SweepMachine {
  std::string name;
  std::function<Machine()> factory;
};

/// Shorthand axis points for the paper's two platforms.
[[nodiscard]] SweepMachine sweep_bluegene(int cores);
[[nodiscard]] SweepMachine sweep_fist_cluster(int cores);

/// One experiment grid. The first axis is either \ref traces (bare
/// pipeline replays) or \ref scenarios (full coupled runs) — never both.
struct SweepSpec {
  std::vector<SweepTrace> traces;
  /// Coupled-run axis, mutually exclusive with \ref traces.
  std::vector<SweepScenario> scenarios;
  /// Nest payload for scenario cases (WorkloadRegistry name); ignored for
  /// trace cases.
  std::string workload = "field";
  std::vector<SweepMachine> machines;
  std::vector<std::string> strategies;  ///< StrategyRegistry names.
  /// Shared pipeline tunables; the strategy field is overridden per case.
  /// config.executor must stay null: the runner sets it to its own pool.
  ManagerConfig config;
  /// The sweep's only thread setting: worker threads of the runner-owned
  /// pool every case and its pipeline run on; 0 = default_thread_count()
  /// (hardware concurrency, or the STORMTRACK_THREADS env override), 1 =
  /// serial in-thread execution (no pool).
  int threads = 0;
  /// When set, every case runs under fault injection: each grid cell gets
  /// its OWN FaultInjector built from this plan (the injector carries
  /// per-point attempt state, so sharing one across concurrent cases would
  /// make firing order scheduling-dependent). Mutually exclusive with
  /// config.injector. Must outlive the run.
  const FaultPlan* fault_plan = nullptr;
  /// Deadlines, retries, and the completion journal for run_supervised
  /// (ignored by plain run()).
  SweepSupervision supervision;

  /// Size of whichever first axis is populated.
  [[nodiscard]] std::size_t num_first_axis() const {
    return traces.empty() ? scenarios.size() : traces.size();
  }
  [[nodiscard]] std::size_t num_cases() const {
    return num_first_axis() * machines.size() * strategies.size();
  }
};

/// How a supervised case ended up in the report.
enum class SweepCaseStatus {
  kOk = 0,           ///< Completed (possibly after retries, or replayed).
  kQuarantined = 1,  ///< Every attempt failed; \ref SweepCaseResult::error
                     ///< holds the last failure. The sweep continues.
};

[[nodiscard]] const char* to_string(SweepCaseStatus status);

/// One grid cell's run, tagged with its axis coordinates. For scenario
/// sweeps, trace_index / trace_name carry the scenario axis (the journal
/// format and reporting shape are shared between the two first axes).
struct SweepCaseResult {
  std::size_t trace_index = 0;
  std::size_t machine_index = 0;
  std::size_t strategy_index = 0;
  std::string trace_name;
  std::string machine_name;
  std::string machine_label;  ///< Machine::label() of the built machine.
  std::string strategy;
  SweepCaseStatus status = SweepCaseStatus::kOk;
  int attempts = 1;           ///< Attempts consumed (run(): always 1).
  bool from_journal = false;  ///< Replayed, not re-executed, this run.
  std::string error;          ///< Last failure message when quarantined.
  TraceRunResult result;      ///< Default-constructed when quarantined.
};

/// Output of run_supervised: the per-case results plus `supervisor.*`
/// counters (attempts, retries, deadline hits, quarantines, journal
/// replays/appends/torn records).
struct SweepRunReport {
  std::vector<SweepCaseResult> results;
  MetricsRegistry supervisor;
};

/// See file comment. The referenced models must outlive the runner.
class SweepRunner {
 public:
  SweepRunner(const ExecTimeModel& model, const GroundTruthCost& truth);
  explicit SweepRunner(const ModelStack& models)
      : SweepRunner(models.model, models.truth) {}

  /// Run the full grid; results are ordered trace-major, then machine,
  /// then strategy (spec order), independent of thread interleaving.
  /// The lowest-indexed failing case's exception propagates to the caller
  /// after the batch drains (Executor contract).
  [[nodiscard]] std::vector<SweepCaseResult> run(const SweepSpec& spec) const;

  /// run(), but the sweep survives individual cases dying. Each case runs
  /// under spec.supervision: a per-attempt wall-clock deadline (enforced via
  /// a CancelToken polled at adaptation points), bounded retries with
  /// exponential backoff and a fresh fault injector per attempt, and
  /// quarantine — a case whose attempts are all exhausted is reported with
  /// SweepCaseStatus::kQuarantined instead of aborting the batch. With a
  /// journal configured, every completed case is durably appended as it
  /// finishes, and supervision.resume replays finished cases instead of
  /// re-running them (their results are byte-identical to the original
  /// run's). Calls validate_sweep_spec first.
  [[nodiscard]] SweepRunReport run_supervised(const SweepSpec& spec) const;

 private:
  const ExecTimeModel* model_;
  const GroundTruthCost* truth_;
};

/// Every problem with \p spec, one human-readable message per field; empty
/// when the spec is valid. Checked: empty axes, traces vs scenarios
/// exclusivity, unknown workload names, duplicate axis-point names,
/// unknown strategies, null machine factories, negative thread counts,
/// config.executor set (the runner owns the executor), fault_plan vs
/// config.injector exclusivity, config.cancel set under supervision (the
/// supervisor owns the token), negative deadlines / backoff,
/// max_attempts < 1, and resume without a journal.
[[nodiscard]] std::vector<std::string> sweep_spec_problems(
    const SweepSpec& spec);

/// Throws CheckError listing every problem reported by
/// sweep_spec_problems; no-op on a valid spec.
void validate_sweep_spec(const SweepSpec& spec);

/// Fingerprint binding a journal to the grid it indexes: axis-point names,
/// full trace contents, strategy list, the result-affecting ManagerConfig
/// fields, and the fault plan. Execution knobs (threads, supervision) are
/// excluded — changing them must not orphan a journal.
[[nodiscard]] std::uint64_t sweep_spec_fingerprint(const SweepSpec& spec);

/// The result for (\p trace, \p machine, \p strategy) by axis-point name;
/// throws CheckError when absent.
[[nodiscard]] const SweepCaseResult& find_case(
    const std::vector<SweepCaseResult>& results, std::string_view trace,
    std::string_view machine, std::string_view strategy);

/// Merge of every case's pipeline metrics (per-stage wall times, counters).
[[nodiscard]] MetricsRegistry merged_metrics(
    const std::vector<SweepCaseResult>& results);

}  // namespace stormtrack
