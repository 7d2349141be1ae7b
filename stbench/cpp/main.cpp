/// \file main.cpp
/// stbench: the StormTrack end-to-end benchmark binary.
///
///   stbench --workload <coupled_field_ckpt|daemon_sessions|trace_replay>
///           --seed <n> --seconds <s> --trace <0|1>
///           [--state-dir <dir>] [--tiny] [--corrupt-expected]
///
/// Prints context and report lines, then, as the last line, one JSON
/// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
/// the metrics are the end-to-end ones, with --trace 1 the per-layer ones
/// (every name in kLayerMetrics, 0 where the workload bypasses a layer).
/// Exits 1 when a correctness check failed, 2 on a usage or run error
/// (then without a result line).

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "host.hpp"
#include "stats.hpp"

namespace stbench {
namespace {

/// Every per-layer metric a traced run reports, with its unit. Keep in
/// step with "per_layer" in BENCHMARK.json (the smoke test checks).
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"wsim.weather_step_ms", "ms"},
    {"wsim.split_write_ms", "ms"},
    {"pda.analysis_ms", "ms"},
    {"wsim.integrate_residual_ms", "ms"},
    {"wsim.halo_bytes", "bytes"},
    {"wsim.moved_bytes", "bytes"},
    {"ckpt.hook_ms", "ms"},
    {"ckpt.export_state_ms", "ms"},
    {"ckpt.encode_ms", "ms"},
    {"ckpt.crc32_ms", "ms"},
    {"ckpt.state_fingerprint_ms", "ms"},
    {"ckpt.atomic_write_ms", "ms"},
    {"ckpt.resume_ms", "ms"},
    {"ckpt.bytes_per_write", "bytes"},
    {"ckpt.file_syncs", "count"},
    {"ckpt.dir_syncs", "count"},
    {"core.stage.1_diff_nests_ms", "ms"},
    {"core.stage.2_derive_weights_ms", "ms"},
    {"core.stage.3_build_candidates_ms", "ms"},
    {"core.stage.4_predict_costs_ms", "ms"},
    {"core.stage.5_commit_ms", "ms"},
    {"core.stage.6_redistribute_ms", "ms"},
    {"core.run_trace_ms", "ms"},
    {"redist.cost_queries", "count"},
    {"redist.plans_built", "count"},
    {"redist.messages_materialized", "count"},
    {"redist.intersection_probes", "count"},
    {"redist.moved_blocks_enumerated", "count"},
    {"redist.pricing_cache_hit_ratio", "ratio"},
    {"redist.pricing_cache_lookups", "count"},
    {"perfmodel.exec_cache_hit_ratio", "ratio"},
    {"perfmodel.exec_cache_lookups", "count"},
    {"serve.submit_ack_ms", "ms"},
    {"serve.queue_wait_ms", "ms"},
    {"serve.slice_ms", "ms"},
    {"serve.finish_ms", "ms"},
    {"serve.rejected_busy", "count"},
    {"serve.event_seq_gaps", "count"},
    {"serve.pool_runnable_mean", "count"},
    {"serve.pricing_shared_hit_ratio", "ratio"},
    {"serve.pricing_shared_lookups", "count"},
    {"serve.pool_batches_per_session", "count"},
    {"serve.journal_syncs_per_session", "count"},
    {"trace.unit_ms", "ms"},
    {"trace.residual_ms", "ms"},
    {"trace.overhead_pct", "%"},
};

/// The latency tail each workload reports: a fixed percentile, so runs
/// compare like with like. The report states how many samples lie beyond
/// it in each slice.
double tail_quantile(const std::string& workload) {
  return workload == "daemon_sessions" ? 0.90 : 0.95;
}

/// The end-to-end rates and latencies are medians over this many equal
/// slices of the measured window, so a few seconds in which the shared
/// host slows the run move them far less than they move whole-window
/// figures.
constexpr int kSlices = 10;

/// Per-slice figures of one measured window.
struct Slices {
  std::vector<double> rate;    ///< Units completed per second.
  std::vector<double> p50;     ///< Median unit latency, ms.
  std::vector<double> tail;    ///< Tail unit latency, ms.
  std::vector<double> cpu_ms;  ///< Process CPU per unit, ms.
};

/// Bins the window's units by completion time into kSlices equal slices.
/// A slice's CPU runs from the previous slice's last completion to its own
/// last completion, so the slices share out the window's CPU.
Slices slice_window(const RunResult& r, double q) {
  Slices s;
  const double length = r.wall_seconds / kSlices;
  if (!(length > 0)) return s;
  std::vector<std::vector<const UnitSample*>> bins(kSlices);
  for (const UnitSample& u : r.units) {
    const double t = std::chrono::duration<double>(u.end - r.start).count();
    bins[std::clamp(static_cast<int>(t / length), 0, kSlices - 1)].push_back(
        &u);
  }
  double cpu_before = r.cpu_start;
  for (const std::vector<const UnitSample*>& bin : bins) {
    s.rate.push_back(static_cast<double>(bin.size()) / length);
    if (bin.empty()) continue;
    std::vector<double> latencies;
    double cpu_last = cpu_before;
    for (const UnitSample* u : bin) {
      latencies.push_back(u->latency_ms);
      cpu_last = std::max(cpu_last, u->cpu_seconds);
    }
    s.p50.push_back(median_of(latencies));
    s.tail.push_back(quantile(latencies, q));
    s.cpu_ms.push_back((cpu_last - cpu_before) * 1000.0 /
                       static_cast<double>(bin.size()));
    cpu_before = cpu_last;
  }
  return s;
}

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "stbench: " << problem
            << "\nusage: stbench --workload <coupled_field_ckpt|"
               "daemon_sessions|trace_replay> --seed <n> --seconds <s> "
               "--trace <0|1> [--state-dir <dir>] [--tiny] "
               "[--corrupt-expected]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        opt.workload = value();
        have_workload = true;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value());
        have_seed = true;
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value());
        have_seconds = true;
      } else if (arg == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        opt.trace = v == "1";
        have_trace = true;
      } else if (arg == "--state-dir") {
        opt.state_dir = value();
      } else if (arg == "--tiny") {
        opt.tiny = true;
      } else if (arg == "--corrupt-expected") {
        opt.corrupt_expected = true;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace)
    usage("--workload, --seed, --seconds and --trace are required");
  if (opt.workload != "coupled_field_ckpt" &&
      opt.workload != "daemon_sessions" && opt.workload != "trace_replay")
    usage("unknown workload " + opt.workload);
  if (!(opt.seconds > 0)) usage("--seconds must be positive");
  if (opt.state_dir.empty()) {
    // Fixed length, as in run.py: path lengths move the peak memory.
    char name[32];
    std::snprintf(name, sizeof name, "run-%010ld",
                  static_cast<long>(getpid()));
    opt.state_dir = std::filesystem::path(".bench_state") / name;
  }
  opt.spans_out = ".bench_state/spans-" + opt.workload + "-seed" +
                  std::to_string(opt.seed) + ".jsonl";
  return opt;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace
}  // namespace stbench

int main(int argc, char** argv) {
  using namespace stbench;
  const Options opt = parse(argc, argv);
  const double load_before = load_average_1m();
  RunResult r;
  try {
    std::filesystem::remove_all(opt.state_dir);
    std::filesystem::create_directories(opt.state_dir);
    if (opt.workload == "coupled_field_ckpt") {
      r = run_field_ckpt(opt);
    } else if (opt.workload == "daemon_sessions") {
      r = run_daemon_sessions(opt);
    } else {
      r = run_trace_replay(opt);
    }
  } catch (const std::exception& e) {
    std::cerr << "stbench: run failed: " << e.what() << "\n";
    std::error_code ignored;
    std::filesystem::remove_all(opt.state_dir, ignored);
    return 2;
  }
  std::cout << context_line(opt.workload, opt.seed, opt.state_dir,
                            load_before, load_average_1m())
            << "\n";
  std::error_code ignored;
  std::filesystem::remove_all(opt.state_dir, ignored);
  for (const std::string& note : r.notes) std::cout << note << "\n";

  std::map<std::string, Metric> metrics;
  if (!opt.trace) {
    const double completed = static_cast<double>(r.completed);
    const double q = tail_quantile(opt.workload);
    const double samples = static_cast<double>(r.units.size());
    const double beyond = std::floor(samples / kSlices * (1.0 - q));
    const Slices slices = slice_window(r, q);
    metrics["setup_s"] = {median_of(r.setup_seconds), "s"};
    metrics["throughput_per_s"] = {median_of(slices.rate), "1/s"};
    metrics["latency_p50_ms"] = {median_of(slices.p50), "ms"};
    metrics["latency_tail_ms"] = {median_of(slices.tail), "ms"};
    metrics["cpu_ms_per_unit"] = {median_of(slices.cpu_ms), "ms"};
    metrics["peak_rss_mb"] = {r.peak_rss_mb, "MiB"};
    metrics["ok_ratio"] = {
        r.attempted > 0 ? static_cast<double>(r.attempted - r.failed) /
                              static_cast<double>(r.attempted)
                        : 0.0,
        "ratio"};
    std::printf(
        "end-to-end: unit=%s completed=%lld in %.2f s; throughput, "
        "latency p50 and p%g, CPU per unit: medians over %d slices of "
        "%.2f s (~%.0f samples, ~%.0f beyond the tail, per slice); "
        "failed_ratio=%.4g (%lld of %lld)\n",
        r.unit_name.c_str(), static_cast<long long>(r.completed),
        r.wall_seconds, q * 100.0, kSlices, r.wall_seconds / kSlices,
        samples / kSlices, beyond,
        static_cast<double>(r.failed) /
            static_cast<double>(r.attempted > 0 ? r.attempted : 1),
        static_cast<long long>(r.failed),
        static_cast<long long>(r.attempted));
    std::string rates;
    for (const double rate : slices.rate) {
      char buf[32];
      std::snprintf(buf, sizeof buf, " %.4g", rate);
      rates += buf;
    }
    std::printf("slice rates (%ss/s):%s\n", r.unit_name.c_str(),
                rates.c_str());
    std::vector<double> latencies;
    for (const UnitSample& u : r.units) latencies.push_back(u.latency_ms);
    std::printf(
        "whole window: %.4g %ss/s, latency p50 %.4g ms, p%g %.4g ms, "
        "CPU %.4g ms per %s\n",
        r.wall_seconds > 0 ? completed / r.wall_seconds : 0.0,
        r.unit_name.c_str(), median_of(latencies), q * 100.0,
        quantile(latencies, q),
        completed > 0 ? r.cpu_seconds * 1000.0 / completed : 0.0,
        r.unit_name.c_str());
    std::printf("setup: median of %zu set-ups\n", r.setup_seconds.size());
  } else {
    for (const LayerMetric& m : kLayerMetrics) {
      const auto it = r.layers.find(m.name);
      metrics[m.name] = {it == r.layers.end() ? 0.0 : it->second.value,
                         m.unit};
    }
    for (const auto& [name, metric] : r.layers) {
      if (metrics.count(name) == 0) {
        std::cerr << "stbench: unlisted per-layer metric " << name << "\n";
        return 2;
      }
    }
  }
  for (const auto& [name, m] : metrics)
    std::printf("  %-34s %16.6g %s\n", name.c_str(), m.value, m.unit.c_str());

  const bool correct = r.correct && r.failed == 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + json_number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
  return correct ? 0 : 1;
}
