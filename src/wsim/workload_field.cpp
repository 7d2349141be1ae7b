#include "wsim/workload_field.hpp"

#include <utility>

#include "fault/snapshot.hpp"
#include "redist/redistributor.hpp"
#include "util/binary_io.hpp"
#include "util/check.hpp"
#include "wsim/weather.hpp"

namespace stormtrack {

FieldWorkload::FieldWorkload(DynamicsParams dynamics)
    : dynamics_(dynamics) {}

void FieldWorkload::insert_nest(const NestSpec& spec,
                                const WorkloadEnv& env) {
  ST_CHECK_MSG(!nests_.contains(spec.id),
               "field workload already holds nest " << spec.id);
  LiveNest nest;
  nest.spec = spec;
  nest.field = NestField(env.weather->qcloud(), spec.region).data();
  ST_CHECK(nest.field.width() == spec.shape.nx &&
           nest.field.height() == spec.shape.ny);
  nests_.emplace(spec.id, std::move(nest));
}

void FieldWorkload::delete_nest(int id) { nests_.erase(id); }

void FieldWorkload::move_nest(int id, const Rect& old_rect,
                              const Rect& new_rect, const WorkloadEnv& env) {
  LiveNest& nest = nests_.at(id);
  // redistribute_field verifies conservation + bit-exact integrity
  // internally; an injected payload fault propagates as CheckError.
  TrafficReport moved;
  nest.field = redistribute_field(*env.comm, nest.field, old_rect, new_rect,
                                  env.grid_px, env.payload_faults, &moved);
  if (env.data_movement != nullptr) *env.data_movement += moved;
}

void FieldWorkload::reinit_nest(int id, const WorkloadEnv& env) {
  LiveNest& nest = nests_.at(id);
  nest.field = NestField(env.weather->qcloud(), nest.spec.region).data();
}

TrafficReport FieldWorkload::integrate(int id, const Rect& proc_rect,
                                       int steps, const WorkloadEnv& env) {
  LiveNest& nest = nests_.at(id);
  DistributedNestStepper stepper(*env.comm, nest.spec.shape, proc_rect,
                                 env.grid_px, dynamics_);
  TrafficReport traffic;
  for (int s = 0; s < steps; ++s) traffic += stepper.step(nest.field);
  return traffic;
}

const NestSpec& FieldWorkload::nest_spec(int id) const {
  const auto it = nests_.find(id);
  ST_CHECK_MSG(it != nests_.end(), "field workload has no nest " << id);
  return it->second.spec;
}

std::vector<int> FieldWorkload::nest_ids() const {
  std::vector<int> ids;
  ids.reserve(nests_.size());
  for (const auto& [id, nest] : nests_) ids.push_back(id);
  return ids;
}

void FieldWorkload::add_state_fingerprint(Fingerprint& fp) const {
  // Byte-for-byte the hashing order of the pre-workload-layer
  // CoupledSimulation::state_fingerprint (golden test pins this).
  fp.add(static_cast<std::int64_t>(nests_.size()));
  for (const auto& [id, nest] : nests_) {
    fp.add(id);
    add_fingerprint(fp, nest.spec.region);
    fp.add(nest.spec.shape.nx);
    fp.add(nest.spec.shape.ny);
    for (const double v : nest.field.data()) fp.add(v);
  }
}

std::vector<std::byte> FieldWorkload::export_state() const {
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
    w.put_i32(nest.field.width());
    w.put_i32(nest.field.height());
    w.put_f64_array(nest.field.data());
  }
  return w.take();
}

void FieldWorkload::import_state(std::span<const std::byte> blob) {
  BinaryReader r(blob);
  const std::size_t n = r.get_count("field workload nests");
  std::map<int, LiveNest> nests;
  for (std::size_t i = 0; i < n; ++i) {
    LiveNest nest;
    nest.spec.id = r.get_i32("nest id");
    nest.spec.region.x = r.get_i32("nest region x");
    nest.spec.region.y = r.get_i32("nest region y");
    nest.spec.region.w = r.get_i32("nest region w");
    nest.spec.region.h = r.get_i32("nest region h");
    nest.spec.shape.nx = r.get_i32("nest shape nx");
    nest.spec.shape.ny = r.get_i32("nest shape ny");
    const int width = r.get_i32("nest field width");
    const int height = r.get_i32("nest field height");
    ST_CHECK_MSG(width >= 0 && height >= 0,
                 "nest field has negative extent " << width << "x" << height);
    ST_CHECK_MSG(width == nest.spec.shape.nx &&
                     height == nest.spec.shape.ny,
                 "live nest " << nest.spec.id << " carries a " << width << "x"
                              << height << " field but its spec says "
                              << nest.spec.shape.nx << "x"
                              << nest.spec.shape.ny);
    nest.field = Grid2D<double>(width, height);
    r.get_f64_array(nest.field.data(), "nest field cells");
    const int id = nest.spec.id;
    ST_CHECK_MSG(nests.emplace(id, std::move(nest)).second,
                 "field workload state repeats live nest id " << id);
  }
  ST_CHECK_MSG(r.exhausted(), "field workload state has trailing bytes");
  nests_ = std::move(nests);
}

}  // namespace stormtrack
