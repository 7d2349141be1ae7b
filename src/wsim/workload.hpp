#pragma once

/// \file workload.hpp
/// The pluggable nest-workload layer.
///
/// The paper's framework claims the reallocation strategy is independent of
/// what the nests compute; this interface is that claim made structural.
/// An INestWorkload owns everything the coupled engine used to assume was a
/// field:
///
///  * per-nest state creation on insert (initialized from the parent
///    model — interpolation for fields, seeding for particles);
///  * genuine data movement when a retained nest's processor rectangle
///    changes, executed through the payload-agnostic exchange seam
///    (exchange_payloads over env.comm, under env.payload_faults) with
///    conservation / integrity invariants — an injected payload fault
///    surfaces as a CheckError the engine answers by reinit_nest();
///  * per-interval integration on the nest's processor rectangle, with the
///    neighbour/halo traffic it generated reported back;
///  * a state fingerprint contribution (byte-identical determinism) and an
///    opaque export/import blob for checkpoint format v3.
///
/// The engine (core/coupled.cpp) orchestrates lifecycle and recovery and
/// never sees payload bytes; workloads never see the tracker, pipeline, or
/// checkpoint framing. Two implementations ship: the original
/// advection–diffusion field (workload_field.hpp, ported bit-identically)
/// and Lagrangian particle advection (particles.hpp).

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "simmpi/simcomm.hpp"
#include "util/fnv.hpp"
#include "util/rect.hpp"
#include "wsim/dynamics.hpp"
#include "wsim/nest.hpp"

namespace stormtrack {

class Executor;
class MetricsRegistry;
class WeatherModel;

/// Tunables of the particle-advection workload (particles.hpp). Lives here
/// so WorkloadParams (and CoupledConfig) can carry it without pulling in
/// the implementation header.
struct ParticleParams {
  /// Trajectories seeded per nest at insert/reinit (golden-ratio lattice
  /// over the nest's fine grid).
  int particles_per_nest = 256;
  /// Rotational (vortex) wind-speed scale around each cloud system, in
  /// parent cells/step per unit QCLOUD intensity.
  double vortex_scale = 2500.0;
  /// Background monsoon drift (parent cells/step), eastward / northward.
  double drift_u = 0.35;
  double drift_v = 0.12;
};

/// Everything a workload operation may touch, lent by the engine for the
/// duration of one call. All pointers are non-owning; comm / grid_px /
/// weather are always set, payload_faults is null unless the run injects
/// faults, executor and metrics may be null (serial integration, no counter
/// sink), data_movement may be null (traffic not wanted).
struct WorkloadEnv {
  const SimComm* comm = nullptr;          ///< Machine communicator.
  int grid_px = 0;                        ///< Full process-grid width.
  const WeatherModel* weather = nullptr;  ///< Parent model (init + winds).
  /// Drops/corrupts moved payloads under fault injection; null = none.
  PayloadFaultHook* payload_faults = nullptr;
  MetricsRegistry* metrics = nullptr;     ///< `workload.*` counter sink.
  Executor* executor = nullptr;           ///< Null = serial integration.
  /// When set, data movement performed by move_nest() is accumulated here
  /// (the engine folds it into IntervalReport::workload_traffic).
  TrafficReport* data_movement = nullptr;
};

/// See file comment. One instance lives per CoupledSimulation and holds
/// the payload state of every live nest.
class INestWorkload {
 public:
  virtual ~INestWorkload() = default;

  /// Registry name ("field", "particles").
  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Create nest \p spec's payload state from the parent model. The spec
  /// is frozen here for the nest's lifetime (regions do not follow the
  /// cloud; see coupled.hpp).
  virtual void insert_nest(const NestSpec& spec, const WorkloadEnv& env) = 0;

  /// Drop nest \p id's state (no-op when absent).
  virtual void delete_nest(int id) = 0;

  /// Genuinely move nest \p id's data from \p old_rect to \p new_rect
  /// over env.comm, under env.payload_faults. Throws CheckError when the
  /// moved payload was lost or damaged in flight (fault injection) — the
  /// state is then unusable and the engine must reinit_nest().
  virtual void move_nest(int id, const Rect& old_rect, const Rect& new_rect,
                         const WorkloadEnv& env) = 0;

  /// Lossy rebuild of nest \p id's state from the parent model (the fault
  /// recovery path; same initialization as a fresh insert).
  virtual void reinit_nest(int id, const WorkloadEnv& env) = 0;

  /// Integrate nest \p id \p steps sub-steps on processor rectangle
  /// \p proc_rect; returns the neighbour traffic (halo exchanges, particle
  /// handoffs) the integration generated. May throw CheckError under
  /// payload fault injection (particle handoffs move real payloads).
  [[nodiscard]] virtual TrafficReport integrate(int id, const Rect& proc_rect,
                                                int steps,
                                                const WorkloadEnv& env) = 0;

  [[nodiscard]] virtual bool has_nest(int id) const = 0;
  [[nodiscard]] virtual std::size_t num_nests() const = 0;
  /// Frozen spawn-time spec of live nest \p id; throws CheckError when
  /// absent.
  [[nodiscard]] virtual const NestSpec& nest_spec(int id) const = 0;
  /// Live nest ids, ascending.
  [[nodiscard]] virtual std::vector<int> nest_ids() const = 0;

  /// Fold the complete payload state into \p fp. The field workload hashes
  /// exactly the bytes the pre-refactor engine hashed, so fingerprints are
  /// bit-identical across the port (pinned by the golden test).
  virtual void add_state_fingerprint(Fingerprint& fp) const = 0;

  /// Opaque state blob for checkpoint format v3 (util/binary_io.hpp
  /// encoding, but the engine and checkpoint codec treat it as bytes).
  [[nodiscard]] virtual std::vector<std::byte> export_state() const = 0;
  /// Replace the live state with \p blob, validating shapes and id
  /// uniqueness; throws CheckError (leaving the workload unchanged is NOT
  /// guaranteed — import into a fresh instance to get transactionality,
  /// as CoupledSimulation::import_state does).
  virtual void import_state(std::span<const std::byte> blob) = 0;
};

/// Construction-time knobs shared by every workload.
struct WorkloadParams {
  DynamicsParams dynamics;    ///< Field integrator coefficients.
  ParticleParams particles;   ///< Particle-advection tunables.
};

/// Name → factory registry, mirroring StrategyRegistry: the CLI, sweep
/// runner, and CoupledSimulation all resolve workloads by name through the
/// global() instance ("field" and "particles" self-register).
class WorkloadRegistry {
 public:
  using Factory =
      std::function<std::unique_ptr<INestWorkload>(const WorkloadParams&)>;

  [[nodiscard]] static WorkloadRegistry& global();

  /// Registers \p name; throws CheckError on duplicates.
  void register_workload(std::string name, Factory factory);
  [[nodiscard]] bool contains(const std::string& name) const;
  /// Registered names, ascending.
  [[nodiscard]] std::vector<std::string> names() const;
  /// Throws CheckError listing the registered names when \p name is
  /// unknown.
  [[nodiscard]] std::unique_ptr<INestWorkload> create(
      const std::string& name, const WorkloadParams& params) const;

 private:
  std::vector<std::pair<std::string, Factory>> entries_;  ///< Name-sorted.
};

}  // namespace stormtrack
