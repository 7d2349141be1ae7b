/// \file trace_replay.cpp
/// Workload `trace_replay`: the adaptation pipeline alone, at scale.
///
/// Synthetic nest traces (generate_synthetic_trace, seeded from --seed)
/// are replayed under the `dynamic` strategy, serially, on a 16384-rank
/// dragonfly. Redistribute and BuildCandidates take nearly all of the
/// time here but under 5% of a coupled run, so pipeline, tree, redist and
/// topology changes show only on this workload. It never touches wsim,
/// ckpt or serve: for changes to those layers it is the control, where the
/// prediction is no change. The unit is one adaptation point.
///
/// The measured loop drives AdaptationPipeline::apply point by point (what
/// run_trace does inside), so each point has a latency. Correctness: every
/// replay's final state fingerprint must equal run_trace's for the same
/// trace (computed outside the measured window).

#include <map>
#include <memory>

#include "common.hpp"
#include "core/experiment.hpp"
#include "core/machine.hpp"
#include "core/pipeline.hpp"
#include "core/traces.hpp"
#include "host.hpp"
#include "redist/redistributor.hpp"
#include "trace.hpp"

namespace stbench {
namespace {

using namespace stormtrack;

constexpr const char* kStrategy = "dynamic";

struct Sizes {
  int ranks = 16384;
  int events = 30;   ///< Adaptation points per trace.
  /// Distinct traces cycled by the replays. Their nest counts differ, so
  /// many short traces per run keep one seed's mean close to another's.
  int traces = 24;
  int setup_reps = 31;
};

Sizes sizes_for(const Options& opt) {
  Sizes s;
  if (opt.tiny) {
    s.ranks = 1024;
    s.events = 12;
    s.traces = 2;
    s.setup_reps = 2;
  }
  return s;
}

struct Stack {
  explicit Stack(int ranks) : machine(Machine::by_name("dragonfly", ranks)) {}
  Machine machine;
  ModelStack models;
};

Trace make_trace(std::uint64_t trace_seed, const Sizes& sizes) {
  SyntheticTraceConfig cfg;
  cfg.num_events = sizes.events;
  cfg.seed = trace_seed;
  return generate_synthetic_trace(cfg);
}

ManagerConfig manager_config() {
  ManagerConfig cfg;
  cfg.strategy = kStrategy;
  return cfg;
}

}  // namespace

RunResult run_trace_replay(const Options& opt) {
  const Sizes sizes = sizes_for(opt);
  RunResult result;
  result.unit_name = "point";

  // Set-up: machine, model stack, the trace and the pipeline, built
  // several times; the last stack is kept.
  std::unique_ptr<Stack> stack;
  for (int rep = 0; rep < sizes.setup_reps; ++rep) {
    const auto t0 = Clock::now();
    stack.reset();
    stack = std::make_unique<Stack>(sizes.ranks);
    const Trace trace = make_trace(mix_seed(opt.seed, 200), sizes);
    const AdaptationPipeline pipeline(stack->machine, stack->models.model,
                                      stack->models.truth, manager_config());
    result.setup_seconds.push_back(seconds_since(t0));
  }

  std::vector<std::uint64_t> trace_seeds;
  std::map<std::uint64_t, Trace> traces;
  for (int t = 0; t < sizes.traces; ++t) {
    trace_seeds.push_back(mix_seed(opt.seed, 200 + t));
    traces.emplace(trace_seeds.back(), make_trace(trace_seeds.back(), sizes));
  }

  std::map<std::uint64_t, std::vector<std::uint64_t>> finals;
  std::int64_t attempted = 0;
  // One replay of \p trace point by point; returns its final fingerprint.
  const auto replay = [&](const Trace& trace, std::vector<UnitSample>* units) {
    AdaptationPipeline pipeline(stack->machine, stack->models.model,
                                stack->models.truth, manager_config());
    for (const std::vector<NestSpec>& active : trace) {
      const auto t0 = Clock::now();
      pipeline.apply(active);
      if (units != nullptr) units->push_back(unit_done(t0));
    }
    return pipeline.state_fingerprint();
  };
  std::size_t next_trace = 0;
  const auto measure = [&](double seconds, std::vector<UnitSample>* units) {
    Window w;
    w.cpu_start = process_cpu_seconds();
    w.start = Clock::now();
    const auto start = w.start;
    while (seconds_since(start) < seconds) {
      const std::uint64_t seed = trace_seeds[next_trace++ % trace_seeds.size()];
      const Trace& trace = traces.at(seed);
      attempted += static_cast<std::int64_t>(trace.size());
      finals[seed].push_back(replay(trace, units));
      w.completed += static_cast<std::int64_t>(trace.size());
    }
    w.wall_seconds = seconds_since(start);
    w.cpu_seconds = process_cpu_seconds() - w.cpu_start;
    return w;
  };

  // Warm-up replay (fills the execution model's memo), untimed.
  replay(traces.at(trace_seeds[0]), nullptr);

  if (!opt.trace) {
    result.set_window(measure(opt.seconds, &result.units));
    result.peak_rss_mb = peak_rss_mb();
  } else {
    const Window plain = measure(opt.seconds / 2, nullptr);
    // Traced half: run_trace itself per trace, one span each; the six
    // stage spans come from the pipeline's own stage.* timers.
    Tracer tracer;
    const RedistCounters r0 = redist_counters();
    const ExecModelCacheStats e0 = stack->models.model.cache_stats();
    Window traced;
    const double cpu0 = process_cpu_seconds();
    const auto start = Clock::now();
    for (std::size_t k = 0; seconds_since(start) < opt.seconds / 2; ++k) {
      const std::uint64_t seed = trace_seeds[next_trace++ % trace_seeds.size()];
      const Trace& trace = traces.at(seed);
      attempted += static_cast<std::int64_t>(trace.size());
      const auto t0 = Clock::now();
      const TraceRunResult run =
          run_trace(stack->machine, stack->models.model, stack->models.truth,
                    kStrategy, trace, manager_config());
      const auto t1 = Clock::now();
      const int root = tracer.add("core.run_trace", t0, t1, -1,
                                  static_cast<std::int64_t>(k));
      for (const auto& [name, entry] : run.metrics.entries()) {
        if (name.rfind("stage.", 0) != 0) continue;
        tracer.add_duration("core." + name, t0, entry.seconds, root,
                            static_cast<std::int64_t>(k),
                            Tracer::Kind::kMetric);
      }
      finals[seed].push_back(run.final_state_fingerprint);
      traced.completed += static_cast<std::int64_t>(trace.size());
    }
    traced.wall_seconds = seconds_since(start);
    traced.cpu_seconds = process_cpu_seconds() - cpu0;
    result.set_window(traced);
    result.completed += plain.completed;
    const auto points = static_cast<double>(traced.completed);
    const RedistCounters r1 = redist_counters();
    const ExecModelCacheStats e1 = stack->models.model.cache_stats();
    report_pricing_layers(r0, r1, &e0, &e1, points, result);
    report_overhead(plain, traced, result);
    tracer.write_jsonl(opt.spans_out);
    report_layers(tracer, "core.run_trace",
                  {{"core.run_trace", "core.run_trace_ms", true},
                   {"core.stage.1_diff_nests", "core.stage.1_diff_nests_ms"},
                   {"core.stage.2_derive_weights",
                    "core.stage.2_derive_weights_ms"},
                   {"core.stage.3_build_candidates",
                    "core.stage.3_build_candidates_ms"},
                   {"core.stage.4_predict_costs",
                    "core.stage.4_predict_costs_ms"},
                   {"core.stage.5_commit", "core.stage.5_commit_ms"},
                   {"core.stage.6_redistribute",
                    "core.stage.6_redistribute_ms"}},
                  result, points);
  }

  // Correctness, outside the measured window: run_trace's fingerprint for
  // each trace is the expected value for every replay of it.
  std::int64_t failed = 0;
  std::vector<std::uint64_t> replayed;
  for (const auto& [seed, fps] : finals) replayed.push_back(seed);
  std::vector<std::uint64_t> reference(replayed.size());
  parallel_for_each(replayed.size(), kReferenceThreads, [&](std::size_t i) {
    const Machine machine = Machine::by_name("dragonfly", sizes.ranks);
    reference[i] = run_trace(machine, stack->models.model,
                             stack->models.truth, kStrategy,
                             traces.at(replayed[i]), manager_config())
                       .final_state_fingerprint;
  });
  if (opt.corrupt_expected && !reference.empty()) reference[0] ^= 1;
  for (std::size_t i = 0; i < replayed.size(); ++i) {
    const std::uint64_t seed = replayed[i];
    const std::uint64_t expected = reference[i];
    for (const std::uint64_t fp : finals.at(seed)) {
      if (fp == expected) continue;
      failed += static_cast<std::int64_t>(traces.at(seed).size());
      result.correct = false;
    }
  }
  if (!result.correct)
    result.notes.push_back(
        "FAIL: a replay's final state fingerprint differs from run_trace's");
  result.attempted = attempted;
  result.failed = failed;
  return result;
}

}  // namespace stbench
