#include "wsim/weather.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace stormtrack {

namespace {
constexpr double kKmPerDegreeLat = 111.2;
constexpr double kPi = 3.14159265358979323846;
}  // namespace

int GeoDomain::nx() const {
  const double mid_lat = 0.5 * (lat_min + lat_max);
  const double km = (lon_max - lon_min) * kKmPerDegreeLat *
                    std::cos(mid_lat * kPi / 180.0);
  return std::max(8, static_cast<int>(km / resolution_km));
}

int GeoDomain::ny() const {
  const double km = (lat_max - lat_min) * kKmPerDegreeLat;
  return std::max(8, static_cast<int>(km / resolution_km));
}

WeatherConfig WeatherConfig::mumbai_2005() {
  WeatherConfig c;
  c.spawn_probability = 0.30;
  c.min_systems = 2;
  c.max_systems = 7;
  return c;
}

Grid2D<double> WeatherConfig::olr_of(Grid2D<double> qcloud) const {
  for (double& v : qcloud.data()) v = olr_of(v);
  return qcloud;
}

WeatherModel::WeatherModel(WeatherConfig config, std::uint64_t seed)
    : config_(config),
      rng_(seed),
      qcloud_(config.domain.nx(), config.domain.ny(), config.qcloud_clear) {
  ST_CHECK_MSG(config_.max_systems >= config_.min_systems,
               "max_systems must be >= min_systems");
  while (static_cast<int>(systems_.size()) < config_.min_systems)
    spawn_system();
  render_qcloud();
}

void WeatherModel::spawn_system() {
  const int nx = config_.domain.nx();
  const int ny = config_.domain.ny();
  // System geometry and drift are physical (km-scaled): a cloud system is
  // the same size whether the grid is run at 12 km or coarsened for tests.
  const double pts = 12.0 / config_.domain.resolution_km;
  CloudSystem s;
  // Systems preferentially form over the lower-left (Arabian Sea / west
  // coast) half of the domain during the monsoon, then drift north-east.
  s.cx = rng_.uniform(0.12 * nx, 0.75 * nx);
  s.cy = rng_.uniform(0.15 * ny, 0.80 * ny);
  s.sigma_x = rng_.uniform(9.0, 26.0) * pts;   // ~110–310 km
  s.sigma_y = rng_.uniform(9.0, 26.0) * pts;
  s.intensity = rng_.uniform(0.8, 2.5) * config_.qcloud_opaque;
  s.vx = rng_.uniform(0.2, 1.6) * pts;         // eastward steering flow
  s.vy = rng_.uniform(-0.5, 0.9) * pts;
  s.growth = rng_.uniform(0.97, 1.05);         // intensification or decay
  s.lifetime = static_cast<int>(rng_.uniform_int(8, 40));
  systems_.push_back(s);
}

void WeatherModel::step() {
  ++step_;
  const int nx = config_.domain.nx();
  const int ny = config_.domain.ny();

  for (CloudSystem& s : systems_) {
    s.cx += s.vx;
    s.cy += s.vy;
    s.intensity *= s.growth;
    // Gentle size evolution coupled to intensification.
    s.sigma_x *= rng_.uniform(0.99, 1.02);
    s.sigma_y *= rng_.uniform(0.99, 1.02);
    ++s.age;
    if (s.age > s.lifetime) s.intensity *= 0.75;  // forced decay
  }

  // Remove systems that decayed or drifted out of the domain.
  std::erase_if(systems_, [&](const CloudSystem& s) {
    const bool faded = s.intensity < 0.25 * config_.qcloud_opaque;
    const bool gone = s.cx < -3.0 * s.sigma_x ||
                      s.cx > nx + 3.0 * s.sigma_x ||
                      s.cy < -3.0 * s.sigma_y || s.cy > ny + 3.0 * s.sigma_y;
    return faded || gone;
  });

  // Spawn: keep the population within [min_systems, max_systems].
  while (static_cast<int>(systems_.size()) < config_.min_systems)
    spawn_system();
  if (static_cast<int>(systems_.size()) < config_.max_systems &&
      rng_.bernoulli(config_.spawn_probability))
    spawn_system();

  render_qcloud();
}

void WeatherModel::render_qcloud() {
  const int nx = qcloud_.width();
  const int ny = qcloud_.height();
  qcloud_.fill(config_.qcloud_clear);

  for (const CloudSystem& s : systems_) {
    // Render only within ±3.5 sigma for speed.
    const int x0 = std::max(0, static_cast<int>(s.cx - 3.5 * s.sigma_x));
    const int x1 = std::min(nx - 1, static_cast<int>(s.cx + 3.5 * s.sigma_x));
    const int y0 = std::max(0, static_cast<int>(s.cy - 3.5 * s.sigma_y));
    const int y1 = std::min(ny - 1, static_cast<int>(s.cy + 3.5 * s.sigma_y));
    for (int y = y0; y <= y1; ++y) {
      const double dy = (y - s.cy) / s.sigma_y;
      for (int x = x0; x <= x1; ++x) {
        const double dx = (x - s.cx) / s.sigma_x;
        qcloud_(x, y) += s.intensity * std::exp(-0.5 * (dx * dx + dy * dy));
      }
    }
  }
}

WeatherModel::State WeatherModel::export_state() const {
  return State{step_, rng_.state(), systems_};
}

void WeatherModel::import_state(const State& state) {
  ST_CHECK_MSG(state.step >= 0,
               "weather state has negative step " << state.step);
  ST_CHECK_MSG(static_cast<int>(state.systems.size()) <= config_.max_systems,
               "weather state carries " << state.systems.size()
                                        << " systems, above the config cap "
                                        << config_.max_systems);
  step_ = state.step;
  rng_.set_state(state.rng);
  systems_ = state.systems;
  render_qcloud();
}

}  // namespace stormtrack
