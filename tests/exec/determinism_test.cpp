/// Determinism suite for the execution layer: every parallelized path —
/// PDA rank analysis, parallel NNC tiles, the pipeline's candidate
/// evaluation, and full SweepRunner grids — must produce byte-identical
/// results (FNV-1a fingerprints over exact double bit patterns) on a
/// SerialExecutor and on ThreadPoolExecutors of 1, 2 and 8 threads.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "exec/executor.hpp"
#include "pda/parallel_nnc.hpp"
#include "pda/pda.hpp"
#include "simmpi/spmd.hpp"
#include "sweep/sweep_runner.hpp"
#include "util/check.hpp"
#include "util/fnv.hpp"
#include "wsim/split_file.hpp"

namespace stormtrack {
namespace {

const std::vector<int> kThreadCounts{1, 2, 8};

// ------------------------------------------------------------ fingerprints

std::uint64_t fingerprint(const PdaResult& r) {
  Fingerprint fp;
  fp.add(r.qcloudinfo.size());
  for (const QCloudInfo& q : r.qcloudinfo) {
    fp.add(q.file_rank);
    fp.add(q.file_x);
    fp.add(q.file_y);
    fp.add(q.qcloud);
    fp.add(q.olrfraction);
  }
  fp.add(r.clusters.size());
  for (const Cluster& c : r.clusters) {
    fp.add(c.size());
    for (const int e : c) fp.add(e);
  }
  for (const Rect& rect : r.rectangles) {
    fp.add(rect.x);
    fp.add(rect.y);
    fp.add(rect.w);
    fp.add(rect.h);
  }
  return fp.value();
}

std::uint64_t fingerprint(const ParallelNncResult& r) {
  Fingerprint fp;
  fp.add(r.tiles_x);
  fp.add(r.tiles_y);
  fp.add(r.merges);
  fp.add(r.clusters.size());
  for (const Cluster& c : r.clusters) {
    fp.add(c.size());
    for (const int e : c) fp.add(e);
  }
  return fp.value();
}

std::uint64_t fingerprint(const StepOutcome& o) {
  Fingerprint fp;
  fp.add(o.chosen);
  for (const CandidateMetrics* m : {&o.scratch, &o.diffusion, &o.committed}) {
    fp.add(m->predicted_redist);
    fp.add(m->predicted_exec);
    fp.add(m->actual_redist);
    fp.add(m->actual_exec);
  }
  fp.add(o.traffic.modeled_time);
  fp.add(o.traffic.total_bytes);
  fp.add(o.traffic.hop_bytes);
  fp.add(o.overlap_fraction);
  fp.add(o.num_deleted);
  fp.add(o.num_retained);
  fp.add(o.num_inserted);
  for (const auto& [id, rect] : o.allocation.rects()) {
    fp.add(id);
    fp.add(rect.x);
    fp.add(rect.y);
    fp.add(rect.w);
    fp.add(rect.h);
  }
  return fp.value();
}

std::uint64_t fingerprint(const TraceRunResult& r) {
  Fingerprint fp;
  fp.add(r.outcomes.size());
  for (const StepOutcome& o : r.outcomes) fp.add(fingerprint(o));
  return fp.value();
}

std::uint64_t fingerprint(const std::vector<SweepCaseResult>& results) {
  Fingerprint fp;
  fp.add(results.size());
  for (const SweepCaseResult& r : results) {
    fp.add(r.trace_name);
    fp.add(r.machine_name);
    fp.add(r.strategy);
    fp.add(fingerprint(r.result));
  }
  return fp.value();
}

// --------------------------------------------------------------- fixtures

std::vector<SplitFile> split_files(std::uint64_t seed) {
  WeatherConfig cfg = WeatherConfig::mumbai_2005();
  cfg.domain.resolution_km = 24.0;  // half resolution for test speed
  WeatherModel m(cfg, seed);
  for (int i = 0; i < 5; ++i) m.step();
  return write_split_files(m, 16, 16);
}

// Two traces: different seeds and lengths, as the acceptance criteria ask.
Trace synthetic(int events, std::uint64_t seed) {
  SyntheticTraceConfig cfg;
  cfg.num_events = events;
  cfg.seed = seed;
  return generate_synthetic_trace(cfg);
}

// ------------------------------------------------------------------ tests

TEST(Determinism, PdaIdenticalAcrossExecutors) {
  for (const std::uint64_t seed : {33u, 77u}) {
    SCOPED_TRACE("weather seed " + std::to_string(seed));
    const auto files = split_files(seed);
    PdaConfig cfg;
    cfg.analysis_procs = 16;
    const std::uint64_t serial =
        fingerprint(parallel_data_analysis(files, cfg));
    for (const int threads : kThreadCounts) {
      ThreadPoolExecutor pool(threads);
      cfg.executor = &pool;
      EXPECT_EQ(fingerprint(parallel_data_analysis(files, cfg)), serial)
          << "threads=" << threads;
    }
  }
}

TEST(Determinism, ParallelNncIdenticalAcrossExecutors) {
  for (const std::uint64_t seed : {33u, 77u}) {
    SCOPED_TRACE("weather seed " + std::to_string(seed));
    const auto files = split_files(seed);
    PdaConfig cfg;
    cfg.analysis_procs = 16;
    const PdaResult pda = parallel_data_analysis(files, cfg);
    const std::uint64_t serial =
        fingerprint(parallel_nnc(pda.qcloudinfo, cfg.nnc, 16));
    for (const int threads : kThreadCounts) {
      ThreadPoolExecutor pool(threads);
      EXPECT_EQ(fingerprint(parallel_nnc(pda.qcloudinfo, cfg.nnc, 16,
                                         nullptr, &pool)),
                serial)
          << "threads=" << threads;
    }
  }
}

TEST(Determinism, CandidateEvaluationIdenticalAcrossExecutors) {
  const ModelStack models;
  const Machine machine = Machine::bluegene(256);
  for (const std::uint64_t seed : {21u, 42u}) {
    SCOPED_TRACE("trace seed " + std::to_string(seed));
    const Trace trace = synthetic(8, seed);
    for (const std::string strategy : {"scratch", "diffusion", "dynamic"}) {
      SCOPED_TRACE("strategy " + strategy);
      const std::uint64_t serial = fingerprint(
          run_trace(machine, models.model, models.truth, strategy, trace));
      for (const int threads : kThreadCounts) {
        ThreadPoolExecutor pool(threads);
        ManagerConfig cfg;
        cfg.executor = &pool;
        EXPECT_EQ(fingerprint(run_trace(machine, models.model, models.truth,
                                        strategy, trace, cfg)),
                  serial)
            << "threads=" << threads;
      }
    }
  }
}

TEST(Determinism, FullSweepGridIdenticalAcrossExecutors) {
  const ModelStack models;
  const SweepRunner runner(models);
  const auto make_spec = [] {
    SweepSpec spec;
    spec.traces.push_back({"a", synthetic(6, 21)});
    spec.traces.push_back({"b", synthetic(9, 42)});
    spec.machines.push_back(sweep_bluegene(256));
    spec.machines.push_back(sweep_fist_cluster(256));
    spec.strategies = {"scratch", "diffusion", "dynamic"};
    return spec;
  };

  SweepSpec serial_spec = make_spec();
  serial_spec.threads = 1;
  const std::uint64_t serial = fingerprint(runner.run(serial_spec));

  for (const int threads : kThreadCounts) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    // Runner-owned pool of the given size (cases + nested candidate
    // batches share it).
    SweepSpec spec = make_spec();
    spec.threads = threads;
    EXPECT_EQ(fingerprint(runner.run(spec)), serial);
  }
}

TEST(Determinism, ThrowingRankBodySurfacesOriginalMessageAndPoolSurvives) {
  ThreadPoolExecutor pool(4);
  try {
    (void)run_spmd<int>(pool, 16, [](int rank) -> int {
      if (rank >= 2) throw CheckError("rank " + std::to_string(rank) +
                                      " exploded");
      return rank;
    });
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    // Lowest failing rank wins, deterministically.
    EXPECT_STREQ(e.what(), "rank 2 exploded");
  }
  // The pool survives and the next SPMD batch runs to completion.
  const std::vector<int> ok =
      run_spmd<int>(pool, 8, [](int rank) { return rank * 3; });
  ASSERT_EQ(ok.size(), 8u);
  for (int r = 0; r < 8; ++r) EXPECT_EQ(ok[static_cast<std::size_t>(r)],
                                        r * 3);
}

}  // namespace
}  // namespace stormtrack
