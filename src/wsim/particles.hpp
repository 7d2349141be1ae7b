#pragma once

/// \file particles.hpp
/// Lagrangian particle advection as a nest workload.
///
/// The second INestWorkload implementation, following the
/// parallelize-over-data idiom of distributed particle advection: each
/// nest seeds a fixed set of trajectories over its fine grid, every
/// sub-step advects them through a synthetic wind field derived from the
/// parent weather model (background monsoon drift + a cyclonic vortex
/// around every cloud system), and each particle is *owned* by the rank
/// whose block of the nest's processor rectangle contains it. A particle
/// crossing a block boundary is handed off to the new owner: the handoff
/// payloads (id + position, plus a trailing FNV checksum element) move as
/// real typed messages through the payload-agnostic exchange seam
/// (exchange_payloads), so injected payload faults strike particle traffic
/// exactly as they strike field redistribution — a dropped message fails
/// count conservation, a corrupted one fails the checksum, both surface as
/// CheckError for the engine's reinit path.
///
/// Accounting (`workload.*` metrics, all deterministic):
///  * active_ranks / rank_slots — ranks owning >= 1 particle vs. rectangle
///    size (the participation ratio of parallelize-over-data);
///  * handoffs — ownership transfers at sub-steps;
///  * ping_pong_particles — handoffs straight back to the previous owner
///    on the next sub-step (the pathological oscillation case);
///  * particles_moved_on_realloc — ownership transfers caused by the
///    reallocation moving the nest's processor rectangle.
///
/// Advection is a pure per-particle function of (weather state, position),
/// so the parallel advection sweep writes each result into its particle's
/// slot and is byte-identical for any thread count.

#include <map>

#include "wsim/workload.hpp"

namespace stormtrack {

/// One trajectory. Positions are nest fine-grid coordinates in
/// [0, nx) × [0, ny); the trajectory fingerprint hashes id + position, so
/// ownership (derived from position + rectangle) never enters the state.
struct Particle {
  std::int64_t id = 0;  ///< Globally unique: nest id × 2^20 + seed index.
  double x = 0.0;
  double y = 0.0;
};

/// Wind at parent-grid position (px, py): monsoon drift plus a Gaussian-
/// enveloped cyclonic vortex (strength ∝ intensity × vortex_scale) and the
/// steering flow around every cloud system. Deterministic in the weather
/// state; units are parent cells per step.
struct Wind {
  double u = 0.0;
  double v = 0.0;
};
[[nodiscard]] Wind wind_at(const WeatherModel& weather,
                           const ParticleParams& params, double px,
                           double py);

/// See file comment.
class ParticleWorkload final : public INestWorkload {
 public:
  explicit ParticleWorkload(ParticleParams params = {});

  [[nodiscard]] std::string_view name() const override {
    return "particles";
  }

  void insert_nest(const NestSpec& spec, const WorkloadEnv& env) override;
  void delete_nest(int id) override;
  void move_nest(int id, const Rect& old_rect, const Rect& new_rect,
                 const WorkloadEnv& env) override;
  void reinit_nest(int id, const WorkloadEnv& env) override;
  [[nodiscard]] TrafficReport integrate(int id, const Rect& proc_rect,
                                        int steps,
                                        const WorkloadEnv& env) override;

  [[nodiscard]] bool has_nest(int id) const override {
    return nests_.contains(id);
  }
  [[nodiscard]] std::size_t num_nests() const override {
    return nests_.size();
  }
  [[nodiscard]] const NestSpec& nest_spec(int id) const override;
  [[nodiscard]] std::vector<int> nest_ids() const override;

  void add_state_fingerprint(Fingerprint& fp) const override;
  [[nodiscard]] std::vector<std::byte> export_state() const override;
  void import_state(std::span<const std::byte> blob) override;

  /// Particles of nest \p id (throws CheckError when absent); ascending by
  /// id, positions in fine-grid coordinates.
  [[nodiscard]] const std::vector<Particle>& particles(int id) const;
  /// Total live particles across all nests.
  [[nodiscard]] std::int64_t total_particles() const;

  [[nodiscard]] const ParticleParams& params() const { return params_; }

 private:
  struct ParticleNest {
    NestSpec spec;
    std::vector<Particle> particles;  ///< Ascending by id.
  };

  ParticleNest& nest_at(int id);
  void seed(ParticleNest& nest) const;
  /// Decode an exchange's delivered handoff payloads back into \p nest:
  /// verifies count conservation against \p sent (drop detection) and the
  /// per-message trailing checksum (corruption detection), then writes the
  /// shipped positions by particle id. Throws CheckError naming \p phase.
  void apply_delivered(ParticleNest& nest, const ExchangeResult<double>& ex,
                       std::int64_t sent, const char* phase) const;

  ParticleParams params_;
  std::map<int, ParticleNest> nests_;
};

}  // namespace stormtrack
