/// \file bench_particle_advection.cpp
/// Particle-workload throughput through the coupled engine: full
/// CoupledSimulation runs (weather + PDA + reallocation + Lagrangian
/// advection) at 1–8 executor threads on BG/L 256; the run's one executor
/// prices the pipeline's candidates and advects the particles.
///
/// Wall times (particles advected per second) are advisory — 1-CPU CI
/// runners make them too noisy to gate on. The regression anchors are the
/// deterministic `counter_*` fields, diffed against
/// bench/baselines/BENCH_particles.json by tools/check_bench_regression.py
/// in the CI perf-smoke job:
///
///   counter_advected_steps     particle × sub-step advections performed
///   counter_handoffs           ownership transfers at sub-steps
///   counter_ping_pong          handoffs straight back to the previous owner
///   counter_moved_on_realloc   particles shipped by rectangle moves
///   counter_active_ranks       Σ per-integration participating ranks
///   counter_rank_slots         Σ per-integration rectangle capacity
///   counter_fingerprint_mod    state fingerprint mod 2^32 (bit-identity)
///
/// Every thread count must land on the same counters and the same state
/// fingerprint; the binary asserts that in-process (CheckError → nonzero
/// exit), so a scheduling-dependent advection path fails CI even before
/// the drift gate runs.
///
/// A second section replays the paper's Fig. 12 configuration (BG/L 1024,
/// 12 reconfigurations) under scratch vs. diffusion with the particle
/// payload, pinning the strategy comparison EXPERIMENTS.md reports:
/// retained-nest overlap, redistribution hop-bytes, and the particles
/// genuinely shipped by rectangle moves.

#include <chrono>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>

#include "bench_common.hpp"
#include "core/coupled.hpp"
#include "core/experiment.hpp"
#include "exec/executor.hpp"
#include "util/check.hpp"
#include "util/table.hpp"

namespace stormtrack {
namespace {

constexpr int kIntervals = 10;

CoupledConfig bench_config() {
  CoupledConfig cfg;
  cfg.scenario.weather.domain.resolution_km = 24.0;
  cfg.scenario.sim_px = 16;
  cfg.scenario.sim_py = 16;
  cfg.scenario.pda.analysis_procs = 16;
  cfg.manager.steps_per_interval = 3;
  cfg.manager.strategy = "diffusion";
  cfg.workload = "particles";
  return cfg;
}

struct RowResult {
  double wall_seconds = 0.0;
  std::int64_t advected_steps = 0;
  std::int64_t handoffs = 0;
  std::int64_t ping_pong = 0;
  std::int64_t moved_on_realloc = 0;
  std::int64_t active_ranks = 0;
  std::int64_t rank_slots = 0;
  std::uint64_t fingerprint = 0;
};

RowResult run_threads(int threads) {
  const Machine machine = Machine::bluegene(256);
  const ModelStack models;
  std::unique_ptr<ThreadPoolExecutor> pool;
  CoupledConfig cfg = bench_config();
  if (threads > 1) {
    pool = std::make_unique<ThreadPoolExecutor>(threads);
    cfg.manager.executor = pool.get();
  }
  CoupledSimulation sim(machine, models.model, models.truth, cfg);

  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kIntervals; ++i) (void)sim.advance();
  const auto t1 = std::chrono::steady_clock::now();

  RowResult row;
  row.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  const MetricsRegistry& m = sim.metrics();
  row.advected_steps = m.get("workload.advected_particle_steps").count;
  row.handoffs = m.get("workload.handoffs").count;
  row.ping_pong = m.get("workload.ping_pong_particles").count;
  row.moved_on_realloc = m.get("workload.particles_moved_on_realloc").count;
  row.active_ranks = m.get("workload.active_ranks").count;
  row.rank_slots = m.get("workload.rank_slots").count;
  row.fingerprint = sim.state_fingerprint();
  return row;
}

// --------------------------------------------- strategy-comparison section

struct StrategyResult {
  double mean_overlap = 0.0;          ///< Fig. 11 metric, retained points.
  std::int64_t redist_hop_bytes = 0;  ///< Priced redistribution traffic.
  std::int64_t workload_moved_bytes = 0;  ///< Particle records shipped.
  std::int64_t particles_moved = 0;
  std::int64_t handoffs = 0;
};

/// The Fig. 12 configuration (BG/L 1024, 12 reconfigurations, full-size
/// Mumbai domain) with the particle payload under one strategy.
StrategyResult run_strategy(const char* strategy) {
  const Machine machine = Machine::bluegene(1024);
  const ModelStack models;
  CoupledConfig cfg;
  cfg.scenario.num_intervals = 12;
  cfg.manager.steps_per_interval = 3;
  cfg.manager.strategy = strategy;
  cfg.workload = "particles";
  CoupledSimulation sim(machine, models.model, models.truth, cfg);

  StrategyResult r;
  double overlap_sum = 0.0;
  int overlap_points = 0;
  for (int i = 0; i < 12; ++i) {
    const IntervalReport report = sim.advance();
    if (!report.diff.retained.empty()) {
      overlap_sum += report.realloc.overlap_fraction;
      ++overlap_points;
    }
    r.redist_hop_bytes += report.realloc.traffic.hop_bytes;
    r.workload_moved_bytes += report.workload_traffic.total_bytes;
  }
  r.mean_overlap = overlap_points > 0 ? overlap_sum / overlap_points : 0.0;
  r.particles_moved =
      sim.metrics().get("workload.particles_moved_on_realloc").count;
  r.handoffs = sim.metrics().get("workload.handoffs").count;
  return r;
}

}  // namespace
}  // namespace stormtrack

int main(int argc, char** argv) {
  using namespace stormtrack;

  constexpr int kThreads[] = {1, 2, 4, 8};

  bench::JsonSummary summary("particle_advection");
  Table table({"Threads", "Intervals", "Advections", "Wall (ms)",
               "Particles/s", "Handoffs", "Ping-pong", "Realloc moves"});
  table.set_title(
      "Particle advection throughput (coupled run, BG/L 256, diffusion)");

  RowResult reference;
  for (const int threads : kThreads) {
    const RowResult row = run_threads(threads);
    if (threads == kThreads[0]) {
      reference = row;
    } else {
      // Thread-count bit-identity is part of the workload contract; a
      // scheduling-dependent advection or handoff path must fail here,
      // not just drift past the counter gate.
      ST_CHECK_MSG(row.fingerprint == reference.fingerprint,
                   threads << " threads diverged from serial: fingerprint "
                           << std::hex << row.fingerprint << " vs "
                           << reference.fingerprint);
      ST_CHECK_MSG(row.handoffs == reference.handoffs &&
                       row.advected_steps == reference.advected_steps,
                   threads << " threads changed the deterministic counters");
    }
    const double per_second =
        row.wall_seconds > 0.0
            ? static_cast<double>(row.advected_steps) / row.wall_seconds
            : 0.0;
    table.add_row({std::to_string(threads), std::to_string(kIntervals),
                   std::to_string(row.advected_steps),
                   Table::num(row.wall_seconds * 1e3, 2),
                   Table::num(per_second, 0), std::to_string(row.handoffs),
                   std::to_string(row.ping_pong),
                   std::to_string(row.moved_on_realloc)});
    summary
        .add_row("threads=" + std::to_string(threads), row.wall_seconds,
                 threads, row.advected_steps)
        .add_field("counter_advected_steps",
                   static_cast<double>(row.advected_steps))
        .add_field("counter_handoffs", static_cast<double>(row.handoffs))
        .add_field("counter_ping_pong", static_cast<double>(row.ping_pong))
        .add_field("counter_moved_on_realloc",
                   static_cast<double>(row.moved_on_realloc))
        .add_field("counter_active_ranks",
                   static_cast<double>(row.active_ranks))
        .add_field("counter_rank_slots",
                   static_cast<double>(row.rank_slots))
        .add_field("counter_fingerprint_mod",
                   static_cast<double>(row.fingerprint & 0xffffffffull))
        .add_field("particles_per_second", per_second);
  }

  table.print(std::cout);

  Table strategies({"Strategy", "Mean overlap", "Redist hop-bytes",
                    "Moved bytes", "Particles moved", "Handoffs"});
  strategies.set_title(
      "Scratch vs diffusion, particle payload (Fig. 12 config, BG/L 1024)");
  for (const char* strategy : {"scratch", "diffusion"}) {
    const StrategyResult r = run_strategy(strategy);
    strategies.add_row(
        {strategy, Table::num(r.mean_overlap, 3),
         std::to_string(r.redist_hop_bytes),
         std::to_string(r.workload_moved_bytes),
         std::to_string(r.particles_moved), std::to_string(r.handoffs)});
    summary.add_row(std::string("strategy=") + strategy, 0.0, 1, 12)
        .add_field("counter_redist_hop_bytes",
                   static_cast<double>(r.redist_hop_bytes))
        .add_field("counter_workload_moved_bytes",
                   static_cast<double>(r.workload_moved_bytes))
        .add_field("counter_particles_moved",
                   static_cast<double>(r.particles_moved))
        .add_field("counter_strategy_handoffs",
                   static_cast<double>(r.handoffs))
        .add_field("mean_overlap", r.mean_overlap);
  }
  strategies.print(std::cout);

  std::cout << "All thread counts must agree on every counter and on the "
               "state fingerprint\n(asserted in-binary); wall times are "
               "advisory, the counter_* fields are the\nregression gate "
               "against bench/baselines/BENCH_particles.json.\n";

  if (const auto path = bench::json_output_path(argc, argv))
    summary.write(*path);
  return 0;
}
