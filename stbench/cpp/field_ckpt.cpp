/// \file field_ckpt.cpp
/// Workload `coupled_field_ckpt`: a durable coupled run.
///
/// A CoupledSimulation runs the `field` workload on a 256-core BG/L model,
/// serially, with a CoupledCheckpointer writing every interval (keep 3).
/// The run is cut into episodes of kIntervals intervals; every
/// kRestartEvery intervals the simulation is thrown away and a fresh one
/// resumes from the newest checkpoint through resume_coupled, as a
/// restarted process would. So the checkpoint read path sits in the same
/// workload as the write path, and a write-side change that slows resume
/// shows here. The unit is one interval; a restart's cost is charged to
/// the interval that follows it.
///
/// Correctness: every episode's final state fingerprint must equal an
/// uninterrupted, checkpoint-free run of the same scenario (computed
/// outside the measured window).

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>

#include "ckpt/checkpoint.hpp"
#include "ckpt/crc32.hpp"
#include "common.hpp"
#include "core/coupled.hpp"
#include "core/experiment.hpp"
#include "core/machine.hpp"
#include "host.hpp"
#include "pda/pda.hpp"
#include "redist/redistributor.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "util/atomic_file.hpp"
#include "wsim/split_file.hpp"
#include "wsim/weather.hpp"

namespace stbench {
namespace {

using namespace stormtrack;

/// Episodes cycle through a fixed set of scenario seeds. A scenario's cost
/// depends on how many nests its weather grows (per-episode rates span 2x),
/// so many short episodes keep one seed's mean close to another's. The set
/// is fixed per seed, not grown with run length, and the run always makes
/// one full pass over it.
struct Sizes {
  int cores = 256;
  int intervals = 8;      ///< Intervals per episode.
  int scenarios = 96;     ///< Distinct scenario seeds per run.
  /// Episodes whose peak memory is probed, each in its own forked copy of
  /// the warmed-up process (see episode_peak_rss_mb). One episode's peak
  /// ranges over 10-20 MiB with its scenario's nests; the median of 48
  /// holds within a few percent from one seed to the next.
  int rss_episodes = 48;
  /// Restart (resume) cadence. One interval in eight carries a restart,
  /// far from the 5% the p95 tail cuts off, so the tail does not flip
  /// between restart and plain intervals from run to run.
  int restart_every = 4;
  int setup_reps = 31;
};

Sizes sizes_for(const Options& opt) {
  Sizes s;
  if (opt.tiny) {
    s.intervals = 4;
    s.restart_every = 2;
    s.scenarios = 2;
    s.rss_episodes = 1;
    s.setup_reps = 2;
  }
  return s;
}

/// Everything constructed once per run: the set-up being measured.
struct Stack {
  explicit Stack(int cores) : machine(Machine::by_name("bgl", cores)) {}
  Machine machine;
  ModelStack models;
};

CoupledConfig scenario_config(std::uint64_t scenario_seed, int intervals) {
  CoupledConfig cfg;
  cfg.workload = "field";
  cfg.scenario.seed = scenario_seed;
  cfg.scenario.num_intervals = intervals;
  return cfg;
}

bool same_systems(const std::vector<CloudSystem>& a,
                  const std::vector<CloudSystem>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].cx != b[i].cx || a[i].cy != b[i].cy ||
        a[i].intensity != b[i].intensity || a[i].age != b[i].age)
      return false;
  }
  return true;
}

/// Wraps the real CoupledCheckpointer. Untraced it only forwards; traced
/// it also times the real hook and counts its fsyncs. shadow() then re-runs
/// the hook's steps (fingerprint, export, encode, CRC, atomic write) on the
/// same state, after advance() returns, so the hook's time can be split
/// without the shadows inflating the interval they explain.
class TimedHook final : public CheckpointHook {
 public:
  TimedHook(CheckpointPolicy policy, std::uint64_t config_fp, Tracer* tracer,
            std::filesystem::path shadow_dir)
      : inner_(std::move(policy), config_fp),
        config_fp_(config_fp),
        tracer_(tracer),
        shadow_dir_(std::move(shadow_dir)) {}

  void on_interval(CoupledSimulation& sim, int interval) override {
    if (tracer_ == nullptr) {
      inner_.on_interval(sim, interval);
      return;
    }
    const AtomicFileCounters before = atomic_file_counters();
    span = tracer_->begin("ckpt.hook", parent, unit);
    inner_.on_interval(sim, interval);
    tracer_->end(span);
    const AtomicFileCounters after = atomic_file_counters();
    file_syncs +=
        static_cast<std::int64_t>(after.file_syncs - before.file_syncs);
    dir_syncs += static_cast<std::int64_t>(after.dir_syncs - before.dir_syncs);
  }

  /// Shadow spans under the last hook span, on \p sim's current state.
  void shadow(const CoupledSimulation& sim) {
    RunCheckpoint ckpt;
    ckpt.kind = CheckpointKind::kCoupledRun;
    ckpt.config_fingerprint = config_fp_;
    ckpt.step = sim.interval();
    auto t0 = Clock::now();
    ckpt.state_fingerprint = sim.state_fingerprint();
    auto t1 = Clock::now();
    tracer_->add("ckpt.state_fingerprint", t0, t1, span, unit,
                 Tracer::Kind::kShadow);
    ckpt.coupled = sim.export_state();
    t0 = Clock::now();
    tracer_->add("ckpt.export_state", t1, t0, span, unit,
                 Tracer::Kind::kShadow);
    const std::vector<std::byte> bytes = encode_checkpoint(ckpt);
    t1 = Clock::now();
    const int encode = tracer_->add("ckpt.encode", t0, t1, span, unit,
                                    Tracer::Kind::kShadow);
    crc_sink ^= crc32(bytes);
    t0 = Clock::now();
    tracer_->add("ckpt.crc32", t1, t0, encode, unit, Tracer::Kind::kShadow);
    write_file_atomic(shadow_dir_ / "shadow.stck", bytes);
    t1 = Clock::now();
    tracer_->add("ckpt.atomic_write", t0, t1, span, unit,
                 Tracer::Kind::kShadow);
  }

  [[nodiscard]] const CoupledCheckpointer& inner() const { return inner_; }

  int parent = -1;          ///< Span the hook's span hangs under.
  std::int64_t unit = -1;   ///< Unit id for the hook's spans.
  int span = -1;            ///< The last hook span.
  std::int64_t file_syncs = 0;
  std::int64_t dir_syncs = 0;
  std::uint32_t crc_sink = 0;  ///< Keeps the shadow CRC observable.

 private:
  CoupledCheckpointer inner_;
  std::uint64_t config_fp_;
  Tracer* tracer_;
  std::filesystem::path shadow_dir_;
};

/// Running sums over the traced phase that are not spans.
struct FieldCounts {
  std::int64_t halo_bytes = 0;
  std::int64_t moved_bytes = 0;
  std::int64_t file_syncs = 0;
  std::int64_t dir_syncs = 0;
  std::int64_t bytes_written = 0;
  std::int64_t writes = 0;
  bool shadows_match = true;
};

struct EpisodeResult {
  int intervals = 0;
  double wall_s = 0.0;
  std::vector<UnitSample> units;
  std::uint64_t fingerprint = 0;
  bool resumed_ok = true;
};

class FieldRunner {
 public:
  FieldRunner(const Options& opt, const Sizes& sizes, const Stack& stack)
      : opt_(opt), sizes_(sizes), stack_(stack) {}

  /// One episode of scenario \p scenario; checkpoints under \p dir.
  EpisodeResult run_episode(std::uint64_t scenario_seed,
                            const std::filesystem::path& dir, Tracer* tracer,
                            std::int64_t& next_unit, FieldCounts* counts) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    CoupledConfig cfg = scenario_config(scenario_seed, sizes_.intervals);
    const std::uint64_t config_fp =
        coupled_config_fingerprint(stack_.machine, cfg);
    CheckpointPolicy policy;
    policy.dir = dir;
    policy.every = 1;
    policy.keep = 3;

    EpisodeResult ep;
    const auto episode_start = Clock::now();
    std::unique_ptr<TimedHook> hook;
    std::unique_ptr<CoupledSimulation> sim;
    const auto retire_hook = [&] {
      if (counts != nullptr && hook != nullptr) {
        counts->writes += hook->inner().writes();
        counts->bytes_written += hook->inner().bytes_written();
      }
    };
    const auto build = [&] {
      sim.reset();
      retire_hook();
      hook = std::make_unique<TimedHook>(policy, config_fp, tracer,
                                         opt_.state_dir / "field-shadow");
      CoupledConfig with_hook = cfg;
      with_hook.hook = hook.get();
      sim = std::make_unique<CoupledSimulation>(
          stack_.machine, stack_.models.model, stack_.models.truth,
          with_hook);
    };
    build();
    std::optional<WeatherModel> shadow;
    if (tracer != nullptr) shadow.emplace(cfg.scenario.weather, scenario_seed);

    for (int done = 0; done < sizes_.intervals; ++done) {
      const std::int64_t unit = next_unit++;
      const auto unit_start = Clock::now();
      int root = -1;
      if (tracer != nullptr) root = tracer->begin("unit.interval", -1, unit);
      if (done > 0 && done % sizes_.restart_every == 0) {
        // A fresh process: new simulation and checkpointer, then resume.
        const auto t0 = Clock::now();
        build();
        const auto t1 = Clock::now();
        const ResumeReport report = resume_coupled(*sim, dir, config_fp);
        const auto t2 = Clock::now();
        if (!report.resumed || report.step != done) ep.resumed_ok = false;
        if (tracer != nullptr) {
          tracer->add("core.sim_construct", t0, t1, root, unit);
          tracer->add("ckpt.resume", t1, t2, root, unit);
        }
      }
      if (tracer == nullptr) {
        sim->advance();
      } else {
        advance_traced(*sim, *hook, *shadow, *tracer, root, unit, *counts);
      }
      ep.units.push_back(unit_done(unit_start));
      ++ep.intervals;
    }
    ep.wall_s = seconds_since(episode_start);
    ep.fingerprint = sim->state_fingerprint();
    retire_hook();
    return ep;
  }

  /// Uninterrupted, checkpoint-free reference fingerprint (thread-safe:
  /// its own machine, the shared model stack is internally synchronized).
  std::uint64_t reference(std::uint64_t scenario_seed) const {
    const Machine machine = Machine::by_name("bgl", sizes_.cores);
    CoupledSimulation sim(machine, stack_.models.model, stack_.models.truth,
                          scenario_config(scenario_seed, sizes_.intervals));
    for (int i = 0; i < sizes_.intervals; ++i) sim.advance();
    return sim.state_fingerprint();
  }

 private:
  void advance_traced(CoupledSimulation& sim, TimedHook& hook,
                      WeatherModel& shadow, Tracer& tracer, int root,
                      std::int64_t unit, FieldCounts& counts) {
    static const char* const kStages[] = {
        "stage.1_diff_nests",       "stage.2_derive_weights",
        "stage.3_build_candidates", "stage.4_predict_costs",
        "stage.5_commit",           "stage.6_redistribute"};
    const WeatherModel::State weather_before = sim.weather().export_state();
    double stage_before[6];
    for (int s = 0; s < 6; ++s)
      stage_before[s] = sim.pipeline().metrics().get(kStages[s]).seconds;
    const std::int64_t syncs_before = hook.file_syncs;
    const std::int64_t dsyncs_before = hook.dir_syncs;

    const auto advance_start = Clock::now();
    const int advance = tracer.begin("core.advance", root, unit);
    hook.parent = advance;
    hook.unit = unit;
    const IntervalReport report = sim.advance();
    tracer.end(advance);
    tracer.end(root);  // the unit ends here; the shadows below explain it

    for (int s = 0; s < 6; ++s) {
      const double delta =
          sim.pipeline().metrics().get(kStages[s]).seconds - stage_before[s];
      tracer.add_duration(std::string("core.") + kStages[s], advance_start,
                          delta, advance, unit, Tracer::Kind::kMetric);
    }
    counts.halo_bytes += report.halo_traffic.total_bytes;
    counts.moved_bytes += report.workload_traffic.total_bytes;
    counts.file_syncs += hook.file_syncs - syncs_before;
    counts.dir_syncs += hook.dir_syncs - dsyncs_before;
    hook.shadow(sim);

    // Shadow the weather step, split-file write and PDA that advance() ran
    // inside RealScenarioDriver::next(), on the same pre-step state.
    shadow.import_state(weather_before);
    auto t0 = Clock::now();
    shadow.step();
    auto t1 = Clock::now();
    tracer.add("wsim.weather_step", t0, t1, advance, unit,
               Tracer::Kind::kShadow);
    const RealScenarioConfig& sc = sim.config().scenario;
    const std::vector<SplitFile> files =
        write_split_files(shadow, sc.sim_px, sc.sim_py);
    t0 = Clock::now();
    tracer.add("wsim.split_write", t1, t0, advance, unit,
               Tracer::Kind::kShadow);
    const PdaResult pda = parallel_data_analysis(files, sc.pda);
    t1 = Clock::now();
    tracer.add("pda.analysis", t0, t1, advance, unit, Tracer::Kind::kShadow);
    if (!same_systems(shadow.systems(), sim.weather().systems()) ||
        pda.rectangles.size() != report.rois_detected)
      counts.shadows_match = false;
  }

  const Options& opt_;
  Sizes sizes_;
  const Stack& stack_;
};

/// Peak resident memory, in MiB, of the warmed-up process through one
/// durable episode: the median over \p scenarios, each episode run in a
/// forked copy of this process that reports its own peak and exits.
///
/// The process's own peak is no steady measure. It rises with where the
/// allocator happened to place the checkpoint and restart buffers: read
/// after 24 episodes it spread from 20 to 29 MiB over eight seeds, and a
/// five-character longer state-directory path moved one seed from 23.8
/// to 29.3 MiB. Each child starts from the same warmed-up heap and runs a
/// single episode, so one unlucky placement moves one sample, not the
/// median. The field run is single-threaded here, so fork copies
/// all of its state.
double episode_peak_rss_mb(FieldRunner& runner,
                           const std::vector<std::uint64_t>& scenarios,
                           const std::filesystem::path& dir) {
  std::vector<double> peaks;
  for (const std::uint64_t scenario : scenarios) {
    int fds[2];
    if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
    std::cout.flush();
    const pid_t pid = fork();
    if (pid < 0) throw std::runtime_error("fork failed");
    if (pid == 0) {
      close(fds[0]);
      double peak = -1.0;
      try {
        std::int64_t unit = 0;
        runner.run_episode(scenario, dir, nullptr, unit, nullptr);
        peak = peak_rss_mb();
      } catch (...) {
      }
      const bool sent = write(fds[1], &peak, sizeof peak) ==
                        static_cast<ssize_t>(sizeof peak);
      _exit(sent && peak > 0 ? 0 : 1);
    }
    close(fds[1]);
    double peak = -1.0;
    const bool got =
        read(fds[0], &peak, sizeof peak) == static_cast<ssize_t>(sizeof peak);
    close(fds[0]);
    int status = 0;
    waitpid(pid, &status, 0);
    if (!got || !WIFEXITED(status) || WEXITSTATUS(status) != 0 || peak <= 0)
      throw std::runtime_error("memory probe episode failed");
    peaks.push_back(peak);
  }
  std::filesystem::remove_all(dir);
  return median_of(peaks);
}

}  // namespace

RunResult run_field_ckpt(const Options& opt) {
  const Sizes sizes = sizes_for(opt);
  RunResult result;
  result.unit_name = "interval";

  // Set-up: machine, model stack, config fingerprint and the simulation
  // with its checkpointer, built several times; the last one is kept.
  std::unique_ptr<Stack> stack;
  for (int rep = 0; rep < sizes.setup_reps; ++rep) {
    const auto t0 = Clock::now();
    stack.reset();
    stack = std::make_unique<Stack>(sizes.cores);
    const CoupledConfig cfg = scenario_config(mix_seed(opt.seed, 0), 8);
    CheckpointPolicy policy;
    policy.dir = opt.state_dir / "field-setup";
    CoupledCheckpointer ckpt(policy,
                             coupled_config_fingerprint(stack->machine, cfg));
    CoupledConfig with_hook = cfg;
    with_hook.hook = &ckpt;
    const CoupledSimulation sim(stack->machine, stack->models.model,
                                stack->models.truth, with_hook);
    result.setup_seconds.push_back(seconds_since(t0));
  }

  FieldRunner runner(opt, sizes, *stack);
  const std::filesystem::path ep_dir = opt.state_dir / "field";
  std::int64_t next_unit = 0;

  // Warm-up episode (own scenario), untimed.
  runner.run_episode(mix_seed(opt.seed, 999), ep_dir, nullptr, next_unit,
                     nullptr);

  std::vector<std::uint64_t> scenario_seeds;
  for (int k = 0; k < sizes.scenarios; ++k)
    scenario_seeds.push_back(mix_seed(opt.seed, 1000 + k));
  std::vector<std::pair<std::uint64_t, std::uint64_t>> finals;  // seed, fp
  std::int64_t failed = 0;
  std::int64_t attempted = 0;
  // Runs episodes for \p seconds; with \p full_cycle, also until every
  // scenario has run once.
  const auto measure = [&](double seconds, bool full_cycle, Tracer* tracer,
                           FieldCounts* counts,
                           std::vector<UnitSample>* units) {
    Window w;
    w.cpu_start = process_cpu_seconds();
    w.start = Clock::now();
    const auto start = w.start;
    const std::size_t first = finals.size();
    const std::size_t cycle_end = first + scenario_seeds.size();
    while (seconds_since(start) < seconds ||
           (full_cycle && finals.size() < cycle_end)) {
      const std::uint64_t scenario =
          scenario_seeds[finals.size() % scenario_seeds.size()];
      attempted += sizes.intervals;
      const EpisodeResult ep =
          runner.run_episode(scenario, ep_dir, tracer, next_unit, counts);
      finals.emplace_back(scenario, ep.fingerprint);
      if (!ep.resumed_ok) failed += ep.intervals;
      w.completed += ep.intervals;
      if (units != nullptr)
        units->insert(units->end(), ep.units.begin(), ep.units.end());
    }
    w.wall_seconds = seconds_since(start);
    w.cpu_seconds = process_cpu_seconds() - w.cpu_start;
    return w;
  };

  Tracer tracer;
  FieldCounts counts;
  if (!opt.trace) {
    result.peak_rss_mb = episode_peak_rss_mb(
        runner,
        {scenario_seeds.begin(), scenario_seeds.begin() + sizes.rss_episodes},
        opt.state_dir / "field-memory");
    result.set_window(measure(opt.seconds, true, nullptr, nullptr,
                              &result.units));
  } else {
    // Untraced half first, then the traced half: the difference in
    // throughput is the tracing overhead.
    const Window plain = measure(opt.seconds / 2, false, nullptr, nullptr,
                                 nullptr);
    const RedistCounters r0 = redist_counters();
    const ExecModelCacheStats e0 = stack->models.model.cache_stats();
    const Window traced =
        measure(opt.seconds / 2, false, &tracer, &counts, nullptr);
    result.set_window(traced);
    result.completed += plain.completed;
    const std::int64_t traced_done = traced.completed;
    const RedistCounters r1 = redist_counters();
    const ExecModelCacheStats e1 = stack->models.model.cache_stats();
    const double units = static_cast<double>(traced_done);
    const auto per_unit = [&](double v) { return units > 0 ? v / units : 0.0; };
    auto& L = result.layers;
    L["wsim.halo_bytes"] = {per_unit(static_cast<double>(counts.halo_bytes)),
                            "bytes"};
    L["wsim.moved_bytes"] = {per_unit(static_cast<double>(counts.moved_bytes)),
                             "bytes"};
    L["ckpt.bytes_per_write"] = {
        counts.writes > 0 ? static_cast<double>(counts.bytes_written) /
                                static_cast<double>(counts.writes)
                          : 0.0,
        "bytes"};
    L["ckpt.file_syncs"] = {per_unit(static_cast<double>(counts.file_syncs)),
                            "count"};
    L["ckpt.dir_syncs"] = {per_unit(static_cast<double>(counts.dir_syncs)),
                           "count"};
    report_pricing_layers(r0, r1, &e0, &e1, units, result);
    report_overhead(plain, traced, result);
    tracer.write_jsonl(opt.spans_out);
    report_layers(tracer,
                  "unit.interval",
                  {{"core.advance", "wsim.integrate_residual_ms"},
                   {"wsim.weather_step", "wsim.weather_step_ms"},
                   {"wsim.split_write", "wsim.split_write_ms"},
                   {"pda.analysis", "pda.analysis_ms"},
                   {"core.stage.1_diff_nests", "core.stage.1_diff_nests_ms"},
                   {"core.stage.2_derive_weights",
                    "core.stage.2_derive_weights_ms"},
                   {"core.stage.3_build_candidates",
                    "core.stage.3_build_candidates_ms"},
                   {"core.stage.4_predict_costs",
                    "core.stage.4_predict_costs_ms"},
                   {"core.stage.5_commit", "core.stage.5_commit_ms"},
                   {"core.stage.6_redistribute",
                    "core.stage.6_redistribute_ms"},
                   {"ckpt.hook", "ckpt.hook_ms", true},
                   {"ckpt.hook", ""},
                   {"ckpt.state_fingerprint", "ckpt.state_fingerprint_ms"},
                   {"ckpt.export_state", "ckpt.export_state_ms"},
                   {"ckpt.encode", "ckpt.encode_ms"},
                   {"ckpt.crc32", "ckpt.crc32_ms"},
                   {"ckpt.atomic_write", "ckpt.atomic_write_ms"},
                   {"ckpt.resume", "ckpt.resume_ms"},
                   {"core.sim_construct", ""}},
                  result);
    if (!counts.shadows_match) {
      result.correct = false;
      result.notes.push_back(
          "FAIL: shadow weather/PDA diverged from the run's active set");
    }
  }

  // Correctness, outside the measured window: one uninterrupted reference
  // per scenario; every episode of it must match.
  std::vector<std::uint64_t> expected(scenario_seeds.size());
  const std::size_t used = std::min(finals.size(), scenario_seeds.size());
  parallel_for_each(used, kReferenceThreads, [&](std::size_t i) {
    expected[i] = runner.reference(scenario_seeds[i]);
  });
  if (opt.corrupt_expected) expected[0] ^= 1;
  for (std::size_t i = 0; i < finals.size(); ++i) {
    if (finals[i].second == expected[i % scenario_seeds.size()]) continue;
    failed += sizes.intervals;
    result.correct = false;
  }
  if (!result.correct)
    result.notes.push_back(
        "FAIL: a restarted episode's final fingerprint differs from the "
        "uninterrupted run");
  result.attempted = attempted;
  result.failed = failed;
  return result;
}

}  // namespace stbench
