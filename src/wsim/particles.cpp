#include "wsim/particles.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <utility>

#include "exec/executor.hpp"
#include "fault/snapshot.hpp"
#include "redist/block_decomp.hpp"
#include "util/binary_io.hpp"
#include "util/check.hpp"
#include "util/metrics.hpp"
#include "wsim/weather.hpp"

namespace stormtrack {

namespace {

/// Globally unique particle ids: nest id in the high bits, seed index in
/// the low 20 (a nest never seeds close to 2^20 particles).
constexpr std::int64_t kIdStride = std::int64_t{1} << 20;

/// R2 low-discrepancy sequence constants (plastic number powers): a
/// deterministic, well-spread seeding lattice with no RNG state to carry.
constexpr double kR2Alpha1 = 0.7548776662466927;
constexpr double kR2Alpha2 = 0.5698402909980532;

[[nodiscard]] double fract(double v) { return v - std::floor(v); }

/// Fine-grid cell of a position (positions live in [0, n); clamp guards
/// the n - epsilon == n rounding edge).
[[nodiscard]] int cell_of(double v, int n) {
  return std::clamp(static_cast<int>(v), 0, n - 1);
}

/// Keep a position inside [0, n): reflect one overshoot, then clamp.
[[nodiscard]] double reflect_into(double v, int n) {
  const double hi = static_cast<double>(n);
  if (v < 0.0) v = -v;
  if (v >= hi) v = 2.0 * hi - v;
  return std::clamp(v, 0.0, std::nextafter(hi, 0.0));
}

/// FNV fingerprint of a particle payload's data doubles (everything
/// between the leading count and the trailing checksum slot).
[[nodiscard]] double payload_checksum(std::span<const double> data) {
  Fingerprint fp;
  for (const double v : data) fp.add(v);
  return std::bit_cast<double>(fp.value());
}

/// One particle advection sub-step: pure in (weather, params, spec,
/// position), so the parallel sweep is schedule-independent.
[[nodiscard]] Particle advect(const WeatherModel& weather,
                              const ParticleParams& params,
                              const NestSpec& spec, Particle p) {
  const double ratio_x =
      static_cast<double>(spec.shape.nx) / static_cast<double>(spec.region.w);
  const double ratio_y =
      static_cast<double>(spec.shape.ny) / static_cast<double>(spec.region.h);
  const double px = spec.region.x + p.x / ratio_x;
  const double py = spec.region.y + p.y / ratio_y;
  const Wind w = wind_at(weather, params, px, py);
  p.x = reflect_into(p.x + w.u * ratio_x, spec.shape.nx);
  p.y = reflect_into(p.y + w.v * ratio_y, spec.shape.ny);
  return p;
}

}  // namespace

Wind wind_at(const WeatherModel& weather, const ParticleParams& params,
             double px, double py) {
  Wind w{params.drift_u, params.drift_v};
  for (const CloudSystem& s : weather.systems()) {
    const double dx = px - s.cx;
    const double dy = py - s.cy;
    const double sx = std::max(s.sigma_x, 1.0);
    const double sy = std::max(s.sigma_y, 1.0);
    const double envelope =
        std::exp(-0.5 * ((dx * dx) / (sx * sx) + (dy * dy) / (sy * sy)));
    // Steering flow: particles near a system share its drift.
    w.u += s.vx * envelope;
    w.v += s.vy * envelope;
    // Cyclonic vortex: tangential speed ∝ intensity, Gaussian falloff.
    const double r = std::sqrt(dx * dx + dy * dy) + 1e-9;
    const double speed = params.vortex_scale * s.intensity * envelope;
    w.u += -dy / r * speed;
    w.v += dx / r * speed;
  }
  return w;
}

ParticleWorkload::ParticleWorkload(ParticleParams params) : params_(params) {
  ST_CHECK_MSG(params_.particles_per_nest > 0 &&
                   params_.particles_per_nest < kIdStride,
               "particles_per_nest out of range: "
                   << params_.particles_per_nest);
}

void ParticleWorkload::seed(ParticleNest& nest) const {
  nest.particles.clear();
  nest.particles.reserve(static_cast<std::size_t>(params_.particles_per_nest));
  for (int k = 0; k < params_.particles_per_nest; ++k) {
    Particle p;
    p.id = static_cast<std::int64_t>(nest.spec.id) * kIdStride + k;
    p.x = fract((k + 0.5) * kR2Alpha1) * nest.spec.shape.nx;
    p.y = fract((k + 0.5) * kR2Alpha2) * nest.spec.shape.ny;
    nest.particles.push_back(p);
  }
}

void ParticleWorkload::insert_nest(const NestSpec& spec,
                                   const WorkloadEnv& env) {
  (void)env;  // Seeding is lattice-based; the parent model drives advection.
  ST_CHECK_MSG(!nests_.contains(spec.id),
               "particle workload already holds nest " << spec.id);
  ST_CHECK_MSG(spec.region.w > 0 && spec.region.h > 0 && spec.shape.nx > 0 &&
                   spec.shape.ny > 0,
               "nest " << spec.id << " has empty region or shape");
  ParticleNest nest;
  nest.spec = spec;
  seed(nest);
  nests_.emplace(spec.id, std::move(nest));
}

void ParticleWorkload::delete_nest(int id) { nests_.erase(id); }

ParticleWorkload::ParticleNest& ParticleWorkload::nest_at(int id) {
  const auto it = nests_.find(id);
  ST_CHECK_MSG(it != nests_.end(), "particle workload has no nest " << id);
  return it->second;
}

void ParticleWorkload::move_nest(int id, const Rect& old_rect,
                                 const Rect& new_rect,
                                 const WorkloadEnv& env) {
  ParticleNest& nest = nest_at(id);
  const BlockDecomposition old_d(nest.spec.shape, old_rect, env.grid_px);
  const BlockDecomposition new_d(nest.spec.shape, new_rect, env.grid_px);

  // Every particle whose owning rank changes under the new rectangle is
  // shipped (id + position) from old owner to new owner, grouped into one
  // message per (sender, receiver) pair — exchange_payloads executes the
  // phase under the fault hook exactly as it does for field blocks.
  std::map<std::pair<int, int>, std::vector<std::size_t>> moved;
  for (std::size_t i = 0; i < nest.particles.size(); ++i) {
    const Particle& p = nest.particles[i];
    const int cx = cell_of(p.x, nest.spec.shape.nx);
    const int cy = cell_of(p.y, nest.spec.shape.ny);
    const int from = old_d.owner_rank(cx, cy);
    const int to = new_d.owner_rank(cx, cy);
    if (from != to) moved[{from, to}].push_back(i);
  }

  std::vector<TypedMessage<double>> msgs;
  msgs.reserve(moved.size());
  std::int64_t sent = 0;
  for (const auto& [pair, idxs] : moved) {
    TypedMessage<double> m;
    m.src = pair.first;
    m.dst = pair.second;
    m.payload.reserve(idxs.size() * 3 + 2);
    m.payload.push_back(static_cast<double>(idxs.size()));
    for (const std::size_t i : idxs) {
      const Particle& p = nest.particles[i];
      m.payload.push_back(std::bit_cast<double>(p.id));
      m.payload.push_back(p.x);
      m.payload.push_back(p.y);
    }
    m.payload.push_back(payload_checksum(
        std::span<const double>(m.payload).subspan(1)));
    sent += static_cast<std::int64_t>(idxs.size());
    msgs.push_back(std::move(m));
  }

  if (!msgs.empty()) {
    const ExchangeResult<double> ex =
        exchange_payloads(*env.comm, std::move(msgs), env.payload_faults);
    apply_delivered(nest, ex, sent, "realloc move");
    if (env.data_movement != nullptr) *env.data_movement += ex.traffic;
  }
  if (env.metrics != nullptr)
    env.metrics->add_count("workload.particles_moved_on_realloc", sent);
}

void ParticleWorkload::reinit_nest(int id, const WorkloadEnv& env) {
  (void)env;
  seed(nest_at(id));
}

TrafficReport ParticleWorkload::integrate(int id, const Rect& proc_rect,
                                          int steps,
                                          const WorkloadEnv& env) {
  ParticleNest& nest = nest_at(id);
  const BlockDecomposition decomp(nest.spec.shape, proc_rect, env.grid_px);
  const std::size_t n = nest.particles.size();
  TrafficReport traffic;

  // Current owner of every particle, plus the rank it last came from (for
  // the ping-pong counter: a handoff straight back to that rank).
  std::vector<int> owner(n);
  std::vector<int> came_from(n, -1);
  for (std::size_t i = 0; i < n; ++i)
    owner[i] = decomp.owner_rank(cell_of(nest.particles[i].x,
                                         nest.spec.shape.nx),
                                 cell_of(nest.particles[i].y,
                                         nest.spec.shape.ny));

  // Participation: how many of the rectangle's ranks own any particle.
  if (env.metrics != nullptr) {
    std::vector<int> active(owner);
    std::sort(active.begin(), active.end());
    active.erase(std::unique(active.begin(), active.end()), active.end());
    env.metrics->add_count("workload.active_ranks",
                           static_cast<std::int64_t>(active.size()));
    env.metrics->add_count("workload.rank_slots", proc_rect.area());
  }

  std::vector<Particle> next(n);
  for (int s = 0; s < steps; ++s) {
    // Advect every particle (pure per-particle function — parallel sweep
    // writes into slots, byte-identical for any thread count).
    const auto body = [&](std::size_t i) {
      next[i] = advect(*env.weather, params_, nest.spec, nest.particles[i]);
    };
    if (env.executor != nullptr) {
      env.executor->parallel_for(n, body);
    } else {
      for (std::size_t i = 0; i < n; ++i) body(i);
    }
    if (env.metrics != nullptr)
      env.metrics->add_count("workload.advected_particle_steps",
                             static_cast<std::int64_t>(n));

    // Serial accounting pass: detect ownership changes, group handoff
    // payloads per (sender, receiver) pair.
    std::map<std::pair<int, int>, std::vector<std::size_t>> moved;
    std::int64_t handoffs = 0;
    std::int64_t ping_pong = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const int to = decomp.owner_rank(cell_of(next[i].x, nest.spec.shape.nx),
                                       cell_of(next[i].y,
                                               nest.spec.shape.ny));
      nest.particles[i] = next[i];
      if (to == owner[i]) continue;
      ++handoffs;
      if (to == came_from[i]) ++ping_pong;
      came_from[i] = owner[i];
      moved[{owner[i], to}].push_back(i);
      owner[i] = to;
    }
    if (env.metrics != nullptr) {
      env.metrics->add_count("workload.handoffs", handoffs);
      env.metrics->add_count("workload.ping_pong_particles", ping_pong);
    }
    if (moved.empty()) continue;

    std::vector<TypedMessage<double>> msgs;
    msgs.reserve(moved.size());
    std::int64_t sent = 0;
    for (const auto& [pair, idxs] : moved) {
      TypedMessage<double> m;
      m.src = pair.first;
      m.dst = pair.second;
      m.payload.reserve(idxs.size() * 3 + 2);
      m.payload.push_back(static_cast<double>(idxs.size()));
      for (const std::size_t i : idxs) {
        const Particle& p = nest.particles[i];
        m.payload.push_back(std::bit_cast<double>(p.id));
        m.payload.push_back(p.x);
        m.payload.push_back(p.y);
      }
      m.payload.push_back(payload_checksum(
          std::span<const double>(m.payload).subspan(1)));
      sent += static_cast<std::int64_t>(idxs.size());
      msgs.push_back(std::move(m));
    }
    const ExchangeResult<double> ex =
        exchange_payloads(*env.comm, std::move(msgs), env.payload_faults);
    apply_delivered(nest, ex, sent, "sub-step handoff");
    traffic += ex.traffic;
  }
  return traffic;
}

void ParticleWorkload::apply_delivered(ParticleNest& nest,
                                       const ExchangeResult<double>& ex,
                                       std::int64_t sent,
                                       const char* phase) const {
  std::int64_t delivered = 0;
  for (const TypedMessage<double>& m : ex.messages) {
    ST_CHECK_MSG(m.payload.size() >= 2,
                 "particle " << phase << " payload from rank " << m.src
                             << " is truncated");
    const auto count = static_cast<std::int64_t>(m.payload[0]);
    ST_CHECK_MSG(count >= 0 &&
                     m.payload.size() ==
                         static_cast<std::size_t>(count) * 3 + 2,
                 "particle " << phase << " payload from rank " << m.src
                             << " has malformed framing");
    const std::span<const double> data =
        std::span<const double>(m.payload).subspan(
            1, static_cast<std::size_t>(count) * 3);
    // Compare bit patterns, not values: an FNV hash can land on a NaN
    // pattern, where double == is always false.
    ST_CHECK_MSG(std::bit_cast<std::uint64_t>(payload_checksum(data)) ==
                     std::bit_cast<std::uint64_t>(m.payload.back()),
                 "particle " << phase << " payload from rank " << m.src
                             << " to rank " << m.dst
                             << " failed its integrity checksum");
    for (std::int64_t k = 0; k < count; ++k) {
      const auto id = std::bit_cast<std::int64_t>(data[k * 3]);
      const auto it = std::lower_bound(
          nest.particles.begin(), nest.particles.end(), id,
          [](const Particle& p, std::int64_t i) { return p.id < i; });
      ST_CHECK_MSG(it != nest.particles.end() && it->id == id,
                   "particle " << phase << " delivered unknown particle "
                               << id);
      it->x = data[k * 3 + 1];
      it->y = data[k * 3 + 2];
    }
    delivered += count;
  }
  ST_CHECK_MSG(delivered == sent,
               "particle " << phase << " lost particles in flight: sent "
                           << sent << ", delivered " << delivered);
}

const NestSpec& ParticleWorkload::nest_spec(int id) const {
  const auto it = nests_.find(id);
  ST_CHECK_MSG(it != nests_.end(), "particle workload has no nest " << id);
  return it->second.spec;
}

std::vector<int> ParticleWorkload::nest_ids() const {
  std::vector<int> ids;
  ids.reserve(nests_.size());
  for (const auto& [id, nest] : nests_) ids.push_back(id);
  return ids;
}

const std::vector<Particle>& ParticleWorkload::particles(int id) const {
  const auto it = nests_.find(id);
  ST_CHECK_MSG(it != nests_.end(), "particle workload has no nest " << id);
  return it->second.particles;
}

std::int64_t ParticleWorkload::total_particles() const {
  std::int64_t total = 0;
  for (const auto& [id, nest] : nests_)
    total += static_cast<std::int64_t>(nest.particles.size());
  return total;
}

void ParticleWorkload::add_state_fingerprint(Fingerprint& fp) const {
  fp.add(static_cast<std::int64_t>(nests_.size()));
  for (const auto& [id, nest] : nests_) {
    fp.add(id);
    add_fingerprint(fp, nest.spec.region);
    fp.add(nest.spec.shape.nx);
    fp.add(nest.spec.shape.ny);
    fp.add(static_cast<std::int64_t>(nest.particles.size()));
    for (const Particle& p : nest.particles) {
      fp.add(p.id);
      fp.add(p.x);
      fp.add(p.y);
    }
  }
}

std::vector<std::byte> ParticleWorkload::export_state() const {
  BinaryWriter w;
  w.put_count(nests_.size());
  for (const auto& [id, nest] : nests_) {
    w.put_i32(nest.spec.id);
    w.put_i32(nest.spec.region.x);
    w.put_i32(nest.spec.region.y);
    w.put_i32(nest.spec.region.w);
    w.put_i32(nest.spec.region.h);
    w.put_i32(nest.spec.shape.nx);
    w.put_i32(nest.spec.shape.ny);
    w.put_count(nest.particles.size());
    for (const Particle& p : nest.particles) {
      w.put_i64(p.id);
      w.put_f64(p.x);
      w.put_f64(p.y);
    }
  }
  return w.take();
}

void ParticleWorkload::import_state(std::span<const std::byte> blob) {
  BinaryReader r(blob);
  const std::size_t num_nests = r.get_count("particle workload nests");
  std::map<int, ParticleNest> nests;
  for (std::size_t i = 0; i < num_nests; ++i) {
    ParticleNest nest;
    nest.spec.id = r.get_i32("nest id");
    nest.spec.region.x = r.get_i32("nest region x");
    nest.spec.region.y = r.get_i32("nest region y");
    nest.spec.region.w = r.get_i32("nest region w");
    nest.spec.region.h = r.get_i32("nest region h");
    nest.spec.shape.nx = r.get_i32("nest shape nx");
    nest.spec.shape.ny = r.get_i32("nest shape ny");
    ST_CHECK_MSG(nest.spec.shape.nx > 0 && nest.spec.shape.ny > 0,
                 "nest " << nest.spec.id << " has non-positive shape "
                         << nest.spec.shape.nx << "x" << nest.spec.shape.ny);
    const std::size_t count = r.get_count("nest particle count");
    nest.particles.reserve(count);
    std::int64_t prev_id = -1;
    for (std::size_t k = 0; k < count; ++k) {
      Particle p;
      p.id = r.get_i64("particle id");
      p.x = r.get_f64("particle x");
      p.y = r.get_f64("particle y");
      ST_CHECK_MSG(p.id > prev_id, "particle ids not strictly ascending at "
                                       << p.id);
      ST_CHECK_MSG(p.x >= 0.0 && p.x < nest.spec.shape.nx && p.y >= 0.0 &&
                       p.y < nest.spec.shape.ny,
                   "particle " << p.id << " outside nest " << nest.spec.id
                               << " at (" << p.x << ", " << p.y << ")");
      prev_id = p.id;
      nest.particles.push_back(p);
    }
    const int id = nest.spec.id;
    ST_CHECK_MSG(nests.emplace(id, std::move(nest)).second,
                 "particle workload state repeats live nest id " << id);
  }
  ST_CHECK_MSG(r.exhausted(), "particle workload state has trailing bytes");
  nests_ = std::move(nests);
}

}  // namespace stormtrack
