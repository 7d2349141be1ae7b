// Unit tests for the pluggable nest-workload layer: the registry, the
// particle workload's conservation/determinism invariants, and the opaque
// checkpoint blobs of both shipped implementations. The coupled-engine and
// golden bit-identity coverage lives in tests/core/.

#include "wsim/workload.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/machine.hpp"
#include "exec/executor.hpp"
#include "redist/redistributor.hpp"
#include "util/check.hpp"
#include "util/metrics.hpp"
#include "wsim/particles.hpp"
#include "wsim/weather.hpp"
#include "wsim/workload_field.hpp"

namespace stormtrack {
namespace {

constexpr std::int64_t kIdStride = std::int64_t{1} << 20;

NestSpec spec(int id, Rect region) {
  NestSpec s;
  s.id = id;
  s.region = region;
  s.shape = nest_shape_for(region);
  return s;
}

std::uint64_t fingerprint_of(const INestWorkload& w) {
  Fingerprint fp;
  w.add_state_fingerprint(fp);
  return fp.value();
}

/// A real machine + weather backing every WorkloadEnv, so
/// the workload calls run against the same components the engine lends.
class WorkloadLayerTest : public ::testing::Test {
 protected:
  WorkloadLayerTest()
      : machine_(Machine::bluegene(256)),
        weather_(WeatherConfig::mumbai_2005(), 7) {}

  WorkloadEnv env(TrafficReport* movement = nullptr,
                  Executor* executor = nullptr) {
    WorkloadEnv e;
    e.comm = &machine_.comm();
    e.grid_px = machine_.grid_px();
    e.weather = &weather_;
    e.metrics = &metrics_;
    e.executor = executor;
    e.data_movement = movement;
    return e;
  }

  Machine machine_;
  WeatherModel weather_;
  MetricsRegistry metrics_;
};

// ------------------------------------------------------------- registry

TEST(WorkloadRegistry, BuiltinsAreRegisteredAscending) {
  const WorkloadRegistry& reg = WorkloadRegistry::global();
  const std::vector<std::string> names = reg.names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "field");
  EXPECT_EQ(names[1], "particles");
  EXPECT_TRUE(reg.contains("field"));
  EXPECT_TRUE(reg.contains("particles"));
  EXPECT_FALSE(reg.contains("voxels"));
}

TEST(WorkloadRegistry, CreateResolvesNamesAndRejectsUnknown) {
  const WorkloadRegistry& reg = WorkloadRegistry::global();
  const WorkloadParams params;
  EXPECT_EQ(reg.create("field", params)->name(), "field");
  EXPECT_EQ(reg.create("particles", params)->name(), "particles");
  try {
    (void)reg.create("voxels", params);
    FAIL() << "unknown workload must throw";
  } catch (const CheckError& e) {
    // The error is the discovery surface for typos: it must list what IS
    // registered.
    EXPECT_NE(std::string(e.what()).find("field"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("particles"), std::string::npos);
  }
}

TEST(WorkloadRegistry, DuplicateRegistrationIsRefused) {
  EXPECT_THROW(WorkloadRegistry::global().register_workload(
                   "field",
                   [](const WorkloadParams&) {
                     return std::unique_ptr<INestWorkload>();
                   }),
               CheckError);
}

// ----------------------------------------------------------------- wind

TEST_F(WorkloadLayerTest, WindIsADeterministicFunctionOfWeatherState) {
  const ParticleParams params;
  const Wind a = wind_at(weather_, params, 41.5, 77.25);
  const Wind b = wind_at(weather_, params, 41.5, 77.25);
  EXPECT_EQ(a.u, b.u);
  EXPECT_EQ(a.v, b.v);
  // Far from every cloud system the vortex envelopes vanish and only the
  // background monsoon drift remains.
  const Wind far = wind_at(weather_, params, -1e6, -1e6);
  EXPECT_DOUBLE_EQ(far.u, params.drift_u);
  EXPECT_DOUBLE_EQ(far.v, params.drift_v);
}

// ------------------------------------------------------------ particles

TEST_F(WorkloadLayerTest, SeededParticlesAreInBoundsWithLatticeIds) {
  ParticleParams params;
  params.particles_per_nest = 64;
  ParticleWorkload w(params);
  w.insert_nest(spec(3, Rect{10, 12, 8, 6}), env());

  const std::vector<Particle>& ps = w.particles(3);
  ASSERT_EQ(ps.size(), 64u);
  EXPECT_EQ(w.total_particles(), 64);
  const NestShape shape = nest_shape_for(Rect{10, 12, 8, 6});
  for (std::size_t k = 0; k < ps.size(); ++k) {
    EXPECT_EQ(ps[k].id, 3 * kIdStride + static_cast<std::int64_t>(k));
    EXPECT_GE(ps[k].x, 0.0);
    EXPECT_LT(ps[k].x, shape.nx);
    EXPECT_GE(ps[k].y, 0.0);
    EXPECT_LT(ps[k].y, shape.ny);
  }

  // Seeding is a pure function of the spec: a second instance lands on the
  // same fingerprint.
  ParticleWorkload w2(params);
  w2.insert_nest(spec(3, Rect{10, 12, 8, 6}), env());
  EXPECT_EQ(fingerprint_of(w), fingerprint_of(w2));
}

TEST_F(WorkloadLayerTest, InsertValidatesSpecAndDuplicates) {
  ParticleWorkload w;
  w.insert_nest(spec(1, Rect{0, 0, 6, 6}), env());
  EXPECT_THROW(w.insert_nest(spec(1, Rect{0, 0, 6, 6}), env()), CheckError);
  EXPECT_THROW(w.insert_nest(spec(2, Rect{0, 0, 0, 6}), env()), CheckError);
  EXPECT_THROW((void)w.nest_spec(99), CheckError);
  EXPECT_THROW((void)w.particles(99), CheckError);
  EXPECT_THROW(ParticleWorkload(ParticleParams{.particles_per_nest = 0}),
               CheckError);
}

TEST_F(WorkloadLayerTest, NestIdsAreAscendingAndDeleteDrops) {
  ParticleWorkload w;
  w.insert_nest(spec(5, Rect{0, 0, 4, 4}), env());
  w.insert_nest(spec(2, Rect{8, 8, 4, 4}), env());
  EXPECT_EQ(w.nest_ids(), (std::vector<int>{2, 5}));
  EXPECT_EQ(w.num_nests(), 2u);
  w.delete_nest(5);
  EXPECT_EQ(w.nest_ids(), (std::vector<int>{2}));
  w.delete_nest(5);  // absent: no-op
  EXPECT_EQ(w.total_particles(), 256);
}

TEST_F(WorkloadLayerTest, MoveNestConservesCountAndTrajectoryFingerprint) {
  ParticleWorkload w;
  w.insert_nest(spec(1, Rect{10, 12, 8, 6}), env());
  const std::uint64_t before = fingerprint_of(w);

  // A disjoint rectangle forces every particle to change owner: ownership
  // is derived from position + rectangle, so the trajectories themselves —
  // and therefore the state fingerprint — must come through the exchange
  // untouched.
  TrafficReport movement;
  w.move_nest(1, Rect{0, 0, 4, 4}, Rect{8, 8, 4, 4}, env(&movement));

  EXPECT_EQ(w.total_particles(), 256);
  EXPECT_EQ(fingerprint_of(w), before);
  EXPECT_GT(movement.total_bytes, 0);
  EXPECT_EQ(metrics_.get("workload.particles_moved_on_realloc").count, 256);
}

TEST_F(WorkloadLayerTest, MoveWithinSameRectangleMovesNothing) {
  ParticleWorkload w;
  w.insert_nest(spec(1, Rect{10, 12, 8, 6}), env());
  TrafficReport movement;
  w.move_nest(1, Rect{0, 0, 4, 4}, Rect{0, 0, 4, 4}, env(&movement));
  EXPECT_EQ(movement.total_bytes, 0);
  EXPECT_EQ(metrics_.get("workload.particles_moved_on_realloc").count, 0);
}

TEST_F(WorkloadLayerTest, IntegrateConservesCountAndAdvancesState) {
  ParticleWorkload w;
  w.insert_nest(spec(1, Rect{30, 30, 8, 8}), env());
  const std::uint64_t seeded = fingerprint_of(w);

  const TrafficReport traffic = w.integrate(1, Rect{0, 0, 4, 4}, 3, env());
  EXPECT_EQ(w.total_particles(), 256);
  EXPECT_NE(fingerprint_of(w), seeded) << "advection must move particles";
  EXPECT_GE(traffic.total_bytes, 0);
  EXPECT_EQ(metrics_.get("workload.advected_particle_steps").count, 3 * 256);
}

TEST_F(WorkloadLayerTest, ParallelIntegrationIsBitIdenticalToSerial) {
  ParticleWorkload serial, threaded;
  serial.insert_nest(spec(1, Rect{30, 30, 8, 8}), env());
  threaded.insert_nest(spec(1, Rect{30, 30, 8, 8}), env());

  ThreadPoolExecutor pool(8);
  for (int i = 0; i < 4; ++i) {
    (void)serial.integrate(1, Rect{0, 0, 4, 4}, 3, env());
    (void)threaded.integrate(1, Rect{0, 0, 4, 4}, 3, env(nullptr, &pool));
    EXPECT_EQ(fingerprint_of(serial), fingerprint_of(threaded))
        << "sub-step block " << i;
  }
}

TEST_F(WorkloadLayerTest, ParticleBlobRoundTripsThroughImport) {
  ParticleWorkload w;
  w.insert_nest(spec(1, Rect{10, 12, 8, 6}), env());
  w.insert_nest(spec(4, Rect{40, 20, 6, 6}), env());
  (void)w.integrate(1, Rect{0, 0, 4, 4}, 2, env());

  const std::vector<std::byte> blob = w.export_state();
  ParticleWorkload restored;
  restored.import_state(blob);
  EXPECT_EQ(fingerprint_of(restored), fingerprint_of(w));
  EXPECT_EQ(restored.total_particles(), w.total_particles());
  EXPECT_EQ(restored.export_state(), blob);
}

TEST_F(WorkloadLayerTest, ParticleImportRejectsGarbage) {
  ParticleWorkload w;
  const std::vector<std::byte> garbage(7, std::byte{0x5a});
  EXPECT_THROW(w.import_state(garbage), CheckError);

  // A truncated valid blob must be rejected too, not silently half-read.
  w.insert_nest(spec(1, Rect{0, 0, 6, 6}), env());
  std::vector<std::byte> truncated = w.export_state();
  truncated.resize(truncated.size() - 8);
  ParticleWorkload fresh;
  EXPECT_THROW(fresh.import_state(truncated), CheckError);
}

TEST_F(WorkloadLayerTest, ReinitReseedsFromTheSpec) {
  ParticleWorkload w;
  w.insert_nest(spec(1, Rect{30, 30, 8, 8}), env());
  const std::uint64_t seeded = fingerprint_of(w);
  (void)w.integrate(1, Rect{0, 0, 4, 4}, 3, env());
  ASSERT_NE(fingerprint_of(w), seeded);
  w.reinit_nest(1, env());
  EXPECT_EQ(fingerprint_of(w), seeded);
  EXPECT_EQ(w.total_particles(), 256);
}

// ----------------------------------------------------------- field blob

TEST_F(WorkloadLayerTest, FieldBlobRoundTripsThroughImport) {
  FieldWorkload w;
  w.insert_nest(spec(2, Rect{20, 20, 6, 6}), env());
  (void)w.integrate(2, Rect{0, 0, 4, 4}, 2, env());

  const std::vector<std::byte> blob = w.export_state();
  FieldWorkload restored;
  restored.import_state(blob);
  EXPECT_EQ(fingerprint_of(restored), fingerprint_of(w));
  EXPECT_EQ(restored.export_state(), blob);

  FieldWorkload fresh;
  const std::vector<std::byte> garbage(5, std::byte{0xff});
  EXPECT_THROW(fresh.import_state(garbage), CheckError);
}

}  // namespace
}  // namespace stormtrack
