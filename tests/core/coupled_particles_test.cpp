// CoupledSimulation driving the particle workload end to end: thread-count
// bit-identity, conservation across reallocation, the workload accessor
// contract, and the `workload.*` accounting surface.

#include <gtest/gtest.h>

#include <cstdint>

#include "core/coupled.hpp"
#include "core/experiment.hpp"
#include "exec/executor.hpp"
#include "util/check.hpp"
#include "wsim/particles.hpp"

namespace stormtrack {
namespace {

CoupledConfig particle_config(const char* strategy = "diffusion") {
  CoupledConfig cfg;
  cfg.scenario.weather.domain.resolution_km = 24.0;
  cfg.scenario.sim_px = 16;
  cfg.scenario.sim_py = 16;
  cfg.scenario.pda.analysis_procs = 16;
  cfg.manager.steps_per_interval = 3;
  cfg.manager.strategy = strategy;
  cfg.workload = "particles";
  return cfg;
}

const ParticleWorkload& particles_of(const CoupledSimulation& sim) {
  const auto* w = dynamic_cast<const ParticleWorkload*>(&sim.workload());
  EXPECT_NE(w, nullptr);
  return *w;
}

TEST(CoupledParticles, SerialAndEightThreadRunsAreBitIdentical) {
  ModelStack models;
  const Machine machine = Machine::bluegene(256);

  CoupledSimulation serial(machine, models.model, models.truth,
                           particle_config());
  ThreadPoolExecutor pool(8);
  CoupledConfig threaded_cfg = particle_config();
  threaded_cfg.manager.executor = &pool;
  CoupledSimulation threaded(machine, models.model, models.truth,
                             threaded_cfg);

  for (int i = 0; i < 8; ++i) {
    const IntervalReport a = serial.advance();
    const IntervalReport b = threaded.advance();
    EXPECT_EQ(a.halo_traffic.total_bytes, b.halo_traffic.total_bytes);
    EXPECT_EQ(a.workload_traffic.total_bytes, b.workload_traffic.total_bytes);
    EXPECT_EQ(serial.state_fingerprint(), threaded.state_fingerprint())
        << "diverged at interval " << i;
  }
}

TEST(CoupledParticles, ParticleCountIsConservedThroughReallocation) {
  ModelStack models;
  const Machine machine = Machine::bluegene(256);
  CoupledSimulation sim(machine, models.model, models.truth,
                        particle_config());

  const std::int64_t per_nest = sim.config().particles.particles_per_nest;
  for (int i = 0; i < 10; ++i) {
    (void)sim.advance();
    const ParticleWorkload& w = particles_of(sim);
    // Every live nest holds exactly its seeded complement: handoffs and
    // realloc moves transfer ownership, never particles.
    EXPECT_EQ(w.total_particles(),
              per_nest * static_cast<std::int64_t>(w.num_nests()))
        << "interval " << i;
  }
}

TEST(CoupledParticles, WorkloadCountersLandInTheSimulationMetrics) {
  ModelStack models;
  const Machine machine = Machine::bluegene(256);
  CoupledSimulation sim(machine, models.model, models.truth,
                        particle_config());
  for (int i = 0; i < 8; ++i) (void)sim.advance();

  MetricsRegistry& m = sim.metrics();
  EXPECT_GT(m.get("workload.advected_particle_steps").count, 0);
  EXPECT_GT(m.get("workload.active_ranks").count, 0);
  EXPECT_GT(m.get("workload.rank_slots").count, 0);
  // Participation can never exceed the rectangle capacity.
  EXPECT_LE(m.get("workload.active_ranks").count,
            m.get("workload.rank_slots").count);
  EXPECT_GE(m.get("workload.handoffs").count,
            m.get("workload.ping_pong_particles").count);
}

TEST(CoupledParticles, NestsAccessorIsFieldOnly) {
  ModelStack models;
  const Machine machine = Machine::bluegene(256);
  CoupledSimulation sim(machine, models.model, models.truth,
                        particle_config());
  (void)sim.advance();
  EXPECT_EQ(sim.workload().name(), "particles");
  EXPECT_THROW((void)sim.nests(), CheckError);

  CoupledConfig field_cfg = particle_config();
  field_cfg.workload = "field";
  CoupledSimulation field_sim(machine, models.model, models.truth, field_cfg);
  (void)field_sim.advance();
  EXPECT_EQ(field_sim.nests().size(), field_sim.workload().num_nests());
}

TEST(CoupledParticles, UnknownWorkloadNameIsRefusedAtConstruction) {
  ModelStack models;
  const Machine machine = Machine::bluegene(256);
  CoupledConfig cfg = particle_config();
  cfg.workload = "voxels";
  EXPECT_THROW(
      CoupledSimulation(machine, models.model, models.truth, cfg),
      CheckError);
}

TEST(CoupledParticles, ExportImportContinuesTheExactRun) {
  ModelStack models;
  const Machine machine = Machine::bluegene(256);
  CoupledSimulation sim(machine, models.model, models.truth,
                        particle_config());
  for (int i = 0; i < 4; ++i) (void)sim.advance();

  CoupledSimulation restored(machine, models.model, models.truth,
                             particle_config());
  restored.import_state(sim.export_state());
  EXPECT_EQ(restored.state_fingerprint(), sim.state_fingerprint());
  for (int i = 0; i < 3; ++i) {
    (void)sim.advance();
    (void)restored.advance();
  }
  EXPECT_EQ(restored.state_fingerprint(), sim.state_fingerprint());

  // The blob names its workload: restoring particle state into a field run
  // must be refused, not misparsed.
  CoupledConfig field_cfg = particle_config();
  field_cfg.workload = "field";
  CoupledSimulation field_sim(machine, models.model, models.truth, field_cfg);
  EXPECT_THROW(field_sim.import_state(sim.export_state()), CheckError);
}

}  // namespace
}  // namespace stormtrack
