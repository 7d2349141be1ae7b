#pragma once

/// \file weather.hpp
/// Synthetic weather-field generator (the WRF stand-in).
///
/// The paper runs WRF v3.3.1 over the Indian region (60–120°E, 5–40°N) at
/// 12 km and analyzes two diagnostics: QCLOUD (cloud water mixing ratio)
/// and OLR (outgoing long-wave radiation, low under tall organized cloud
/// systems). The detection/reallocation pipeline only consumes those two
/// fields, so the substitution is a generator that evolves a population of
/// organized convective systems — anisotropic Gaussian cloud clusters that
/// form, drift with a monsoon-like steering flow, intensify, merge
/// spatially, and decay — and renders QCLOUD from them. Darker Fig. 1
/// regions ↔ higher QCLOUD. OLR is derived from QCLOUD cell by cell
/// (WeatherConfig::olr_of) and drops below the paper's 200 threshold
/// where cloud tops are tall.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/grid2d.hpp"
#include "util/rng.hpp"

namespace stormtrack {

/// Geographic configuration of the parent simulation domain.
struct GeoDomain {
  double lon_min = 60.0;
  double lon_max = 120.0;
  double lat_min = 5.0;
  double lat_max = 40.0;
  double resolution_km = 12.0;

  /// Grid points east–west (uses the mid-latitude meridian convergence).
  [[nodiscard]] int nx() const;
  /// Grid points north–south.
  [[nodiscard]] int ny() const;
};

/// One organized convective cloud system (anisotropic Gaussian).
struct CloudSystem {
  double cx = 0.0, cy = 0.0;       ///< Centre (grid points).
  double sigma_x = 0.0, sigma_y = 0.0;  ///< Extent (grid points).
  double intensity = 0.0;          ///< Peak QCLOUD contribution (kg/kg).
  double vx = 0.0, vy = 0.0;       ///< Drift per step (grid points).
  double growth = 1.0;             ///< Intensity multiplier per step.
  int age = 0;
  int lifetime = 0;                ///< Steps until forced decay.
};

/// Tunables of the synthetic scenario.
struct WeatherConfig {
  GeoDomain domain;
  double spawn_probability = 0.25;   ///< New-system probability per step.
  int min_systems = 2;               ///< Spawn until at least this many.
  int max_systems = 9;               ///< Hard cap on concurrent systems.
  double qcloud_clear = 1e-5;        ///< Background QCLOUD (kg/kg).
  double olr_clear = 290.0;          ///< Clear-sky OLR (W/m²).
  double olr_depression = 170.0;     ///< Max OLR drop under thick cloud.
  double qcloud_opaque = 4e-4;       ///< QCLOUD at which cloud is "tall".

  /// OLR (W/m²) over \p qcloud: clear sky, depressed in proportion to
  /// cloud opacity (low-OLR patterns over organized systems, §III).
  [[nodiscard]] double olr_of(double qcloud) const {
    return olr_clear - olr_depression * std::min(1.0, qcloud / qcloud_opaque);
  }
  /// olr_of applied to every cell of a QCLOUD grid.
  [[nodiscard]] Grid2D<double> olr_of(Grid2D<double> qcloud) const;

  /// The Mumbai July-2005 flavoured scenario (§V-B): a persistent intense
  /// system near the west coast plus transient systems, 2–7 concurrent.
  [[nodiscard]] static WeatherConfig mumbai_2005();
};

/// Evolves the cloud-system population and renders QCLOUD.
class WeatherModel {
 public:
  WeatherModel(WeatherConfig config, std::uint64_t seed);

  /// Advance one coupled interval: move/grow/decay systems, spawn new ones,
  /// re-render QCLOUD.
  void step();

  [[nodiscard]] int time_step() const { return step_; }
  [[nodiscard]] const WeatherConfig& config() const { return config_; }
  [[nodiscard]] const std::vector<CloudSystem>& systems() const {
    return systems_;
  }

  /// Cloud water mixing ratio field (kg/kg), nx()×ny().
  [[nodiscard]] const Grid2D<double>& qcloud() const { return qcloud_; }
  /// Outgoing long-wave radiation field (W/m²), derived from QCLOUD on
  /// each call.
  [[nodiscard]] Grid2D<double> olr() const { return config_.olr_of(qcloud_); }

  /// Complete evolving state for checkpoint/restart: the RNG position, the
  /// cloud-system population and the step counter. The QCLOUD field is a
  /// deterministic function of the systems, so import_state() re-renders
  /// it instead of carrying a full grid in every checkpoint.
  struct State {
    int step = 0;
    Xoshiro256::State rng;
    std::vector<CloudSystem> systems;
  };
  [[nodiscard]] State export_state() const;
  /// Restore a state exported from a model with the same config; the next
  /// step() continues the exact sequence of the original run.
  void import_state(const State& state);

 private:
  void spawn_system();
  void render_qcloud();

  WeatherConfig config_;
  Xoshiro256 rng_;
  std::vector<CloudSystem> systems_;
  Grid2D<double> qcloud_;
  int step_ = 0;
};

}  // namespace stormtrack
