#pragma once

/// \file coupled.hpp
/// The full running system (paper contribution #2): "a framework that
/// supports dynamic nest formation and processor rescheduling within a
/// running simulation".
///
/// A CoupledSimulation owns every moving part and advances them together,
/// one adaptation interval at a time:
///
///  1. the parent weather model steps and writes split files;
///  2. the parallel data analysis (§III) detects regions of interest;
///  3. the nest tracker classifies inserts / deletes / retains;
///  4. the reallocation manager repartitions processors under the chosen
///     strategy (§IV) and prices the redistribution;
///  5. nest *payloads* live through the events via the pluggable workload
///     layer (wsim/workload.hpp): inserted nests initialize their state
///     from the parent model, retained nests' data is genuinely moved
///     between the old and new processor rectangles (integrity checked by
///     the workload), deleted nests are dropped;
///  6. every nest then integrates `steps_per_interval` workload sub-steps
///     on its processor rectangle, neighbour traffic priced on the
///     simulated network.
///
/// The engine never sees payload bytes: CoupledConfig::workload names the
/// INestWorkload implementation ("field" reproduces the original
/// advection–diffusion nests bit-identically; "particles" advects
/// Lagrangian trajectories with rank handoffs). Payload damage under fault
/// injection surfaces from the workload as CheckError and is answered by
/// reinitializing that nest from the parent model.
///
/// Nests keep the region they were spawned over while they live (the
/// paper's redistribution operates on a fixed nest size; WRF nests do not
/// follow the cloud within a single lifetime) — the tracker's region
/// updates only affect matching.

#include <cstddef>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "core/traces.hpp"
#include "wsim/dynamics.hpp"
#include "wsim/nest.hpp"
#include "wsim/workload.hpp"
#include "wsim/workload_field.hpp"

namespace stormtrack {

class CheckpointHook;

/// Configuration of the coupled run. The run's one executor is
/// manager.executor: the pipeline prices candidates on it and workloads
/// that can parallelize integration (particle advection) run on it too;
/// results are byte-identical to serial.
struct CoupledConfig {
  RealScenarioConfig scenario;    ///< Weather, PDA, simulation process grid.
  ManagerConfig manager;          ///< Strategy, executor, steps, bytes.
  DynamicsParams nest_dynamics;   ///< Nest integrator coefficients.
  /// Registered name of the nest payload implementation (see
  /// WorkloadRegistry: "field", "particles").
  std::string workload = "field";
  ParticleParams particles;       ///< Tunables for workload = "particles".
  /// Invoked (on_interval) after every completed interval — the ckpt
  /// subsystem hangs checkpointing off this seam. Null = no hook. Must
  /// outlive the simulation.
  CheckpointHook* hook = nullptr;
};

/// Everything observable about one adaptation interval.
struct IntervalReport {
  int interval = 0;
  std::size_t rois_detected = 0;    ///< PDA rectangles this interval.
  NestDiff diff;                    ///< Lifecycle classification.
  StepOutcome realloc;              ///< Allocation + redistribution metrics.
  TrafficReport halo_traffic;       ///< Integration neighbour traffic.
  /// Payload bytes genuinely moved by the workload when retained nests
  /// changed processor rectangles this interval (field blocks or particle
  /// records — the realloc data-movement cost made concrete).
  TrafficReport workload_traffic;
  double integration_time = 0.0;    ///< Ground-truth nest step time (s).
};

/// See file comment.
class CoupledSimulation {
 public:
  /// All referents must outlive the simulation.
  CoupledSimulation(const Machine& machine, const ExecTimeModel& model,
                    const GroundTruthCost& truth, CoupledConfig config);

  /// Advance one adaptation interval (steps 1–6 of the file comment).
  /// ManagerConfig::cancel is polled here, before anything moves, and
  /// never inside the interval: a CancelledError leaves the simulation
  /// exactly at the last completed interval, so checkpointing it then is
  /// safe.
  IntervalReport advance();

  /// The live payload layer (named by CoupledConfig::workload).
  [[nodiscard]] const INestWorkload& workload() const { return *workload_; }

  /// Live nests by id — compatibility accessor for field-workload runs
  /// (throws CheckError under any other workload; new code should go
  /// through workload()).
  [[nodiscard]] const std::map<int, LiveNest>& nests() const;
  [[nodiscard]] const WeatherModel& weather() const {
    return driver_.weather();
  }
  [[nodiscard]] const Allocation& allocation() const {
    return manager_.allocation();
  }
  [[nodiscard]] int interval() const { return interval_; }
  [[nodiscard]] const CoupledConfig& config() const { return config_; }
  [[nodiscard]] const AdaptationPipeline& pipeline() const { return manager_; }
  /// Mutable registry access so embedding code (the CLI, ckpt) can record
  /// its own counters alongside the pipeline's.
  [[nodiscard]] MetricsRegistry& metrics() { return manager_.metrics(); }

  /// Complete evolving state for checkpoint/restart: the scenario driver
  /// (weather RNG position + tracker), the pipeline's committed state, the
  /// interval counter, and the workload's opaque payload blob. A simulation
  /// built from the same Machine/models/config that import_state()s this
  /// advances through the exact interval sequence — and
  /// state_fingerprint() — of the original run.
  struct State {
    RealScenarioDriver::State driver;
    AdaptationPipeline::PipelineState pipeline;
    std::string workload;                   ///< Registry name.
    std::vector<std::byte> workload_state;  ///< INestWorkload blob.
    int interval = 0;
  };
  [[nodiscard]] State export_state() const;
  /// Validates (workload name, blob integrity, pipeline invariants,
  /// per-nest allocations) before installing; throws CheckError on any
  /// mismatch, leaving this simulation unchanged.
  void import_state(State state);

  /// FNV-1a fingerprint over everything export_state() captures (weather
  /// RNG + systems, tracker, pipeline committed state, workload payload
  /// state, interval counter). A resumed run and the uninterrupted
  /// reference agreeing here means byte-identical doubles end to end.
  [[nodiscard]] std::uint64_t state_fingerprint() const;

 private:
  [[nodiscard]] WorkloadEnv workload_env(TrafficReport* data_movement);

  const Machine* machine_;
  CoupledConfig config_;
  RealScenarioDriver driver_;
  AdaptationPipeline manager_;
  std::unique_ptr<INestWorkload> workload_;
  std::map<int, Rect> previous_rects_;  ///< Processor rects before realloc.
  int interval_ = 0;
};

}  // namespace stormtrack
