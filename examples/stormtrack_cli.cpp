/// \file stormtrack_cli.cpp
/// Command-line experiment driver: generate or load a nest-configuration
/// trace, run it under any reallocation strategy on any simulated machine,
/// and emit per-event metrics (text or CSV), optional trace files and
/// optional PPM renderings of the final allocation and weather field.
///
/// Usage examples:
///   stormtrack_cli --machine bgl --cores 1024 --strategy diffusion
///   stormtrack_cli --trace-out run.trace --events 30 --seed 7
///   stormtrack_cli --trace-in run.trace --strategy dynamic --csv
///   stormtrack_cli --real --intervals 50 --images out/
///   stormtrack_cli --workload particles --intervals 40 --checkpoint-dir ck

#include <csignal>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>

#include "ckpt/checkpoint.hpp"
#include "ckpt/trace_run.hpp"
#include "core/coupled.hpp"
#include "core/experiment.hpp"
#include "core/trace_io.hpp"
#include "exec/cancel.hpp"
#include "exec/executor.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "util/check.hpp"
#include "util/image.hpp"
#include "util/stats.hpp"

using namespace stormtrack;

namespace {

// Exit codes (also asserted by the CTest CLI suite): 0 success, 2 bad
// arguments, 3 unreadable/corrupt trace or fault-plan file, 4 runtime
// failure (fault recovery exhausted, checkpoint resume failed, ...),
// 5 interrupted by SIGTERM/SIGINT after writing a final checkpoint.
constexpr int kExitOk = 0;
constexpr int kExitBadArgs = 2;
constexpr int kExitParse = 3;
constexpr int kExitRuntime = 4;
constexpr int kExitInterrupted = 5;

// SIGTERM/SIGINT trip this token from the handler (cancel_from_signal is
// async-signal-safe); the pipeline polls it at every adaptation point, so
// the run stops between transactions, writes one final checkpoint and
// exits with kExitInterrupted instead of dying mid-state.
CancelToken g_cancel;

extern "C" void on_interrupt(int) { g_cancel.cancel_from_signal(); }

void install_interrupt_handlers() {
  std::signal(SIGTERM, on_interrupt);
  std::signal(SIGINT, on_interrupt);
}

struct Options {
  std::string machine = "bgl";        // bgl | fist | dragonfly | fattree
  int cores = 1024;
  std::string strategy = "diffusion";  // any StrategyRegistry name
  bool real = false;                   // real-mode pipeline trace
  int events = 70;                     // synthetic events / real intervals
  std::uint64_t seed = 2013;
  std::optional<std::string> trace_in;
  std::optional<std::string> trace_out;
  std::optional<std::string> images;   // directory for PPM output
  bool csv = false;
  bool compare = false;                // run every registered strategy
  int threads = 0;                     // 0 = hardware concurrency
  std::optional<std::string> fault_plan;  // fault schedule file
  std::optional<std::string> checkpoint_dir;
  int checkpoint_every = 1;            // adaptation points per checkpoint
  int checkpoint_keep = 3;             // newest checkpoints retained
  bool resume = false;                 // resume from newest valid checkpoint
  std::optional<std::string> workload; // coupled-run mode when set
};

std::string join_names(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& n : names) {
    if (!out.empty()) out += "|";
    out += n;
  }
  return out;
}

/// "+inserted/-deleted/=retained" nest-diff cell.
std::string diff_cell(std::size_t inserted, std::size_t deleted,
                      std::size_t retained) {
  std::ostringstream cell;
  cell << '+' << inserted << "/-" << deleted << "/=" << retained;
  return cell.str();
}

[[noreturn]] void usage(int code) {
  std::cout <<
      "stormtrack_cli — run a reallocation experiment\n"
      "  --machine M            simulated machine: "
      << join_names(Machine::names()) << "\n"
      "                         (default bgl)\n"
      "  --cores N              core count (default 1024; bgl and\n"
      "                         dragonfly need a multiple of 64)\n"
      "  --strategy S           a registered strategy name (default\n"
      "                         diffusion; scratch|diffusion|dynamic|\n"
      "                         hysteresis ship built in)\n"
      "  --events N             synthetic reconfigurations (default 70)\n"
      "  --workload W           run the full coupled simulation with nest\n"
      "                         payload W: "
      << join_names(WorkloadRegistry::global().names()) << "\n"
      "                         ('field' integrates advection-diffusion\n"
      "                         grids, 'particles' advects trajectories\n"
      "                         with rank handoffs; reports workload.*\n"
      "                         counters and the run state fingerprint)\n"
      "  --real                 drive the weather+PDA pipeline instead\n"
      "  --intervals N          real-mode adaptation points (alias of "
      "--events)\n"
      "  --seed N               RNG seed (default 2013)\n"
      "  --trace-in FILE        load a saved trace instead of generating\n"
      "  --trace-out FILE       save the trace that was run\n"
      "  --images DIR           write final allocation / field PPMs\n"
      "  --csv                  emit per-event metrics as CSV\n"
      "  --compare              run every registered strategy, summarize\n"
      "  --threads N            executor worker threads for the pipeline's\n"
      "                         candidate evaluation (default 0 = hardware\n"
      "                         concurrency; 1 = serial, exactly the\n"
      "                         single-threaded behavior)\n"
      "  --fault-plan FILE      run under the fault schedule in FILE (see\n"
      "                         docs/ARCHITECTURE.md, 'Fault tolerance');\n"
      "                         the run recovers or degrades per the\n"
      "                         ladder and reports fault./recovery.\n"
      "                         metrics after the run\n"
      "  --checkpoint-dir DIR   write durable run checkpoints into DIR\n"
      "                         (atomic, CRC-guarded; survives SIGKILL)\n"
      "  --checkpoint-every N   checkpoint every N adaptation points\n"
      "                         (default 1)\n"
      "  --checkpoint-keep N    retain the N newest checkpoints (default 3)\n"
      "  --resume               resume from the newest valid checkpoint in\n"
      "                         --checkpoint-dir; the resumed run is\n"
      "                         byte-identical to an uninterrupted one\n"
      "  --help                 this text\n"
      "exit codes: 0 ok, 2 bad arguments, 3 unreadable trace/fault-plan,\n"
      "            4 runtime failure (recovery exhausted, resume failed),\n"
      "            5 interrupted by SIGTERM/SIGINT (a final checkpoint is\n"
      "            written first when --checkpoint-dir is set)\n";
  std::exit(code);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::cerr << flag << " needs a value\n";
        usage(kExitBadArgs);
      }
      return argv[++i];
    };
    if (a == "--machine") o.machine = next("--machine");
    else if (a == "--cores") o.cores = std::stoi(next("--cores"));
    else if (a == "--strategy") o.strategy = next("--strategy");
    else if (a == "--events" || a == "--intervals")
      o.events = std::stoi(next("--events"));
    else if (a == "--real") o.real = true;
    else if (a == "--seed") o.seed = std::stoull(next("--seed"));
    else if (a == "--trace-in") o.trace_in = next("--trace-in");
    else if (a == "--trace-out") o.trace_out = next("--trace-out");
    else if (a == "--images") o.images = next("--images");
    else if (a == "--csv") o.csv = true;
    else if (a == "--compare") o.compare = true;
    else if (a == "--threads") {
      try {
        o.threads = parse_thread_count(next("--threads"), "--threads");
      } catch (const CheckError& e) {
        std::cerr << e.what() << "\n";
        usage(kExitBadArgs);
      }
    }
    else if (a == "--workload") o.workload = next("--workload");
    else if (a == "--fault-plan") o.fault_plan = next("--fault-plan");
    else if (a == "--checkpoint-dir") o.checkpoint_dir = next("--checkpoint-dir");
    else if (a == "--checkpoint-every")
      o.checkpoint_every = std::stoi(next("--checkpoint-every"));
    else if (a == "--checkpoint-keep")
      o.checkpoint_keep = std::stoi(next("--checkpoint-keep"));
    else if (a == "--resume") o.resume = true;
    else if (a == "--help" || a == "-h") usage(0);
    else {
      std::cerr << "unknown flag: " << a << "\n";
      usage(kExitBadArgs);
    }
  }
  if (o.workload && !WorkloadRegistry::global().contains(*o.workload)) {
    std::cerr << "--workload: unknown workload '" << *o.workload
              << "' (registered: "
              << join_names(WorkloadRegistry::global().names()) << ")\n";
    usage(kExitBadArgs);
  }
  if (o.workload && (o.trace_in || o.trace_out || o.compare || o.real)) {
    std::cerr << "--workload runs the coupled simulation; it cannot be "
                 "combined with --trace-in/--trace-out/--compare/--real\n";
    usage(kExitBadArgs);
  }
  if (o.resume && !o.checkpoint_dir) {
    std::cerr << "--resume requires --checkpoint-dir\n";
    usage(kExitBadArgs);
  }
  if (o.checkpoint_dir && o.compare) {
    std::cerr << "--checkpoint-dir checkpoints a single run; it cannot be "
                 "combined with --compare\n";
    usage(kExitBadArgs);
  }
  if (o.checkpoint_dir && o.checkpoint_every < 1) {
    std::cerr << "--checkpoint-every must be >= 1, got " << o.checkpoint_every
              << "\n";
    usage(kExitBadArgs);
  }
  if (o.checkpoint_dir && o.checkpoint_keep < 1) {
    std::cerr << "--checkpoint-keep must be >= 1, got " << o.checkpoint_keep
              << "\n";
    usage(kExitBadArgs);
  }
  return o;
}

/// Without --resume an already-populated checkpoint directory is refused
/// rather than silently resumed (or clobbered). True when refused; the
/// reason is printed.
bool refuse_populated_checkpoint_dir(const Options& opt,
                                     const std::filesystem::path& dir) {
  if (opt.resume || !latest_valid_checkpoint(dir).has_value()) return false;
  std::cerr << "checkpoint dir " << dir
            << " already holds checkpoints; pass --resume to continue "
               "that run or point --checkpoint-dir elsewhere\n";
  return true;
}

/// The --checkpoint-* options as a policy.
CheckpointPolicy checkpoint_policy(const Options& opt) {
  CheckpointPolicy policy;
  policy.dir = *opt.checkpoint_dir;
  policy.every = opt.checkpoint_every;
  policy.keep = opt.checkpoint_keep;
  return policy;
}

/// The --threads pool the run's one executor comes from; null (serial) for
/// --threads 1.
std::unique_ptr<ThreadPoolExecutor> make_pool(const Options& opt) {
  if (opt.threads == 1) return nullptr;
  return std::make_unique<ThreadPoolExecutor>(opt.threads);
}

/// Loads --fault-plan into \p plan when given. False (reason printed) when
/// the file is unreadable or corrupt.
bool load_fault_plan(const Options& opt, std::optional<FaultPlan>& plan) {
  if (!opt.fault_plan) return true;
  try {
    plan = FaultPlan::load(std::filesystem::path(*opt.fault_plan));
  } catch (const std::exception& e) {
    std::cerr << "--fault-plan: " << e.what() << "\n";
    return false;
  }
  return true;
}

/// "fault injection: <fault./recovery. counters>" for a run under a plan.
void print_fault_counters(const Options& opt, const MetricsRegistry& metrics) {
  std::cout << (opt.csv ? "# " : "") << "fault injection:";
  bool fired = false;
  for (const auto& [name, entry] : metrics.entries()) {
    if (!name.starts_with("fault.") && !name.starts_with("recovery."))
      continue;
    if (entry.count == 0) continue;
    std::cout << " " << name << "=" << entry.count;
    fired = true;
  }
  if (!fired) std::cout << " (no events fired)";
  std::cout << "\n";
}

/// "resumed from <file> at <unit> <step>" when the run resumed.
void print_resume_banner(const Options& opt, const ResumeReport& report,
                         std::string_view unit) {
  if (!report.resumed) return;
  std::cout << (opt.csv ? "# " : "") << "resumed from "
            << report.path.filename().string() << " at " << unit << " "
            << report.step
            << (report.invalid_skipped > 0
                    ? " (" + std::to_string(report.invalid_skipped) +
                          " invalid checkpoint(s) skipped)"
                    : "")
            << "\n";
}

/// --workload mode: drive the full CoupledSimulation (weather + PDA +
/// reallocation + nest payloads) instead of a bare pipeline trace. The
/// totals and fingerprint printed at the end come from checkpoint-covered
/// state, so a resumed run's closing lines are byte-identical to an
/// uninterrupted one (the CI kill-and-resume job diffs them).
int run_coupled(Machine& machine, const Options& opt) {
  const ModelStack models;
  CoupledConfig cfg;
  cfg.scenario.num_intervals = opt.events;
  cfg.scenario.seed = opt.seed;
  cfg.manager.strategy = opt.strategy;
  cfg.manager.cancel = &g_cancel;
  cfg.workload = *opt.workload;

  const std::unique_ptr<ThreadPoolExecutor> pool = make_pool(opt);
  cfg.manager.executor = pool.get();

  std::optional<FaultPlan> plan;
  if (!load_fault_plan(opt, plan)) return kExitParse;
  std::optional<FaultInjector> injector;
  if (plan) cfg.manager.injector = &injector.emplace(*plan);

  const std::uint64_t config_fp = coupled_config_fingerprint(machine, cfg);
  std::optional<CoupledCheckpointer> checkpointer;
  if (opt.checkpoint_dir) {
    if (refuse_populated_checkpoint_dir(
            opt, std::filesystem::path(*opt.checkpoint_dir)))
      return kExitBadArgs;
    checkpointer.emplace(checkpoint_policy(opt), config_fp);
    cfg.hook = &*checkpointer;
  }

  try {
    CoupledSimulation sim(machine, models.model, models.truth, cfg);
    ResumeReport resume_report;
    if (opt.resume)
      resume_report = resume_coupled(
          sim, std::filesystem::path(*opt.checkpoint_dir), config_fp);
    print_resume_banner(opt, resume_report, "interval");

    Table t({"Interval", "ROIs", "+ins/-del/=ret", "Chosen", "Exec (s)",
             "Redist (ms)", "Moved B", "Neighbour B"});
    t.set_title("Coupled run: " + machine.label() + ", strategy " +
                opt.strategy + ", workload " + *opt.workload + ", " +
                std::to_string(opt.events) + " intervals");
    try {
    for (int i = sim.interval(); i < opt.events; ++i) {
      const IntervalReport r = sim.advance();
      t.add_row({std::to_string(r.interval),
                 std::to_string(r.rois_detected),
                 diff_cell(r.diff.inserted.size(), r.diff.deleted.size(),
                           r.diff.retained.size()),
                 r.realloc.chosen,
                 Table::num(r.realloc.committed.actual_exec, 2),
                 Table::num(r.realloc.committed.actual_redist * 1e3, 2),
                 std::to_string(r.workload_traffic.total_bytes),
                 std::to_string(r.halo_traffic.total_bytes)});
    }
    } catch (const CancelledError&) {
      // advance() polls cancellation before an interval starts, so the
      // simulation state is the last completed interval: capture it, tell
      // the operator how to pick the run back up, and exit with the
      // interrupted code.
      if (checkpointer) checkpointer->checkpoint_now(sim);
      std::cerr << "interrupted at interval " << sim.interval()
                << (checkpointer
                        ? "; final checkpoint written — rerun with --resume "
                          "to continue"
                        : "")
                << "\n";
      return kExitInterrupted;
    }
    if (checkpointer) checkpointer->checkpoint_now(sim);
    if (opt.csv)
      std::cout << t.to_csv();
    else
      t.print(std::cout);

    // Totals come from the pipeline's metrics registry (checkpointed), so
    // resumed and uninterrupted runs print identical lines.
    std::cout << (opt.csv ? "# " : "") << "totals:";
    bool any = false;
    for (const auto& [name, entry] : sim.metrics().entries()) {
      if (!name.starts_with("workload.")) continue;
      if (entry.count == 0) continue;
      std::cout << " " << name << "=" << entry.count;
      any = true;
    }
    if (!any) std::cout << " (no workload counters)";
    std::cout << "\n";
    std::cout << (opt.csv ? "# " : "") << "state fingerprint: " << std::hex
              << std::setfill('0') << std::setw(16) << sim.state_fingerprint()
              << std::dec << std::setfill(' ') << "\n";
    if (plan) print_fault_counters(opt, sim.metrics());

    if (opt.images) {
      const std::filesystem::path dir(*opt.images);
      write_ppm(labels_to_rgb(sim.allocation().to_label_grid()),
                dir / "allocation.ppm");
      write_pgm(field_to_grey(sim.weather().qcloud(), /*invert=*/true),
                dir / "qcloud.pgm");
      write_pgm(field_to_grey(sim.weather().olr()), dir / "olr.pgm");
      std::cout << "images written to " << dir << "\n";
    }
    return kExitOk;
  } catch (const std::exception& e) {
    std::cerr << "run failed: " << e.what() << "\n";
    return kExitRuntime;
  }
}

}  // namespace

int main(int argc, char** argv) {
  install_interrupt_handlers();
  const Options opt = parse(argc, argv);
  if (!StrategyRegistry::global().contains(opt.strategy)) {
    std::cerr << "unknown strategy: " << opt.strategy << " (registered:";
    for (const std::string& n : StrategyRegistry::global().names())
      std::cerr << " " << n;
    std::cerr << ")\n";
    usage(kExitBadArgs);
  }

  // ---- machine (strict: unknown names are usage errors, like
  // parse_thread_count)
  std::optional<Machine> machine_opt;
  try {
    machine_opt.emplace(Machine::by_name(opt.machine, opt.cores));
  } catch (const CheckError& e) {
    std::cerr << "--machine: " << e.what() << "\n";
    usage(kExitBadArgs);
  }
  Machine& machine = *machine_opt;

  // ---- coupled-run mode (--workload): full simulation, no trace
  if (opt.workload) return run_coupled(machine, opt);

  // ---- trace
  Trace trace;
  std::optional<RealScenarioDriver> real_driver;
  if (opt.trace_in) {
    try {
      trace = load_trace(std::filesystem::path(*opt.trace_in));
    } catch (const std::exception& e) {
      std::cerr << "--trace-in: " << e.what() << "\n";
      return kExitParse;
    }
  } else if (opt.real) {
    RealScenarioConfig rc;
    rc.num_intervals = opt.events;
    rc.seed = opt.seed;
    real_driver.emplace(rc);
    for (int i = 0; i < rc.num_intervals; ++i)
      trace.push_back(real_driver->next().active);
  } else {
    SyntheticTraceConfig sc;
    sc.num_events = opt.events;
    sc.seed = opt.seed;
    trace = generate_synthetic_trace(sc);
  }
  if (opt.trace_out) save_trace(trace, std::filesystem::path(*opt.trace_out));

  // ---- run
  const ModelStack models;

  // Candidate evaluation runs on a shared pool; --threads 1 keeps the
  // pipeline serial (byte-identical results either way, see src/exec).
  const std::unique_ptr<ThreadPoolExecutor> pool = make_pool(opt);
  ManagerConfig config;
  config.cancel = &g_cancel;
  config.executor = pool.get();

  // Fault schedule: every run (and every compared strategy) gets a FRESH
  // injector from the same plan, so each replays the identical schedule.
  std::optional<FaultPlan> plan;
  if (!load_fault_plan(opt, plan)) return kExitParse;

  if (opt.compare) {
    Table cmp({"Strategy", "Exec (s)", "Redist (s)", "Total (s)",
               "Mean overlap %", "Mean avg hop-bytes"});
    cmp.set_title("Strategy comparison: " + machine.label() + ", " +
                  std::to_string(trace.size()) + " events");
    MetricsRegistry compare_metrics;
    for (const std::string& s : StrategyRegistry::global().names()) {
      std::optional<FaultInjector> injector;
      ManagerConfig case_config = config;
      if (plan) case_config.injector = &injector.emplace(*plan);
      TraceRunResult res;
      try {
        res = run_trace(machine, models.model, models.truth, s, trace,
                        case_config);
      } catch (const std::exception& e) {
        std::cerr << "strategy " << s << " failed: " << e.what() << "\n";
        return kExitRuntime;
      }
      compare_metrics.merge(res.metrics);
      cmp.add_row({s, Table::num(res.total_exec(), 2),
                   Table::num(res.total_redist(), 3),
                   Table::num(res.total(), 2),
                   Table::num(100.0 * res.mean_overlap_fraction(), 1),
                   Table::num(res.mean_avg_hop_bytes(), 2)});
    }
    if (opt.csv)
      std::cout << cmp.to_csv();
    else
      cmp.print(std::cout);
    if (plan) print_fault_counters(opt, compare_metrics);
    return kExitOk;
  }

  std::optional<FaultInjector> injector;
  if (plan) config.injector = &injector.emplace(*plan);
  TraceRunResult r;
  ResumeReport resume_report;
  try {
    if (opt.checkpoint_dir) {
      if (refuse_populated_checkpoint_dir(
              opt, std::filesystem::path(*opt.checkpoint_dir)))
        return kExitBadArgs;
      r = run_trace_checkpointed(machine, models.model, models.truth,
                                 opt.strategy, trace, config,
                                 checkpoint_policy(opt), &resume_report);
    } else {
      r = run_trace(machine, models.model, models.truth, opt.strategy, trace,
                    config);
    }
  } catch (const CancelledError&) {
    // run_trace_checkpointed already captured the progress durably.
    std::cerr << "interrupted"
              << (opt.checkpoint_dir
                      ? "; final checkpoint written — rerun with --resume "
                        "to continue"
                      : "")
              << "\n";
    return kExitInterrupted;
  } catch (const std::exception& e) {
    std::cerr << "run failed: " << e.what() << "\n";
    return kExitRuntime;
  }
  print_resume_banner(opt, resume_report, "point");

  Table t({"Event", "Nests", "+ins/-del/=ret", "Chosen", "Exec (s)",
           "Redist (ms)", "Hop-bytes avg", "Overlap %"});
  t.set_title("Run: " + machine.label() + ", strategy " + opt.strategy +
              ", " + std::to_string(trace.size()) + " events");
  for (std::size_t e = 0; e < r.outcomes.size(); ++e) {
    const StepOutcome& o = r.outcomes[e];
    t.add_row({std::to_string(e), std::to_string(trace[e].size()),
               diff_cell(static_cast<std::size_t>(o.num_inserted),
                         static_cast<std::size_t>(o.num_deleted),
                         static_cast<std::size_t>(o.num_retained)),
               o.chosen, Table::num(o.committed.actual_exec, 2),
               Table::num(o.committed.actual_redist * 1e3, 2),
               Table::num(o.traffic.avg_hops_per_byte(), 2),
               Table::num(100.0 * o.overlap_fraction, 1)});
  }
  if (opt.csv)
    std::cout << t.to_csv();
  else
    t.print(std::cout);

  std::cout << (opt.csv ? "# " : "") << "totals: exec "
            << Table::num(r.total_exec(), 2) << " s, redist "
            << Table::num(r.total_redist(), 3) << " s, mean overlap "
            << Table::num(100.0 * r.mean_overlap_fraction(), 1) << " %\n";
  std::cout << (opt.csv ? "# " : "") << "state fingerprint: " << std::hex
            << std::setfill('0') << std::setw(16) << r.final_state_fingerprint
            << std::dec << std::setfill(' ') << "\n";
  if (plan) print_fault_counters(opt, r.metrics);

  // ---- images
  if (opt.images && !r.outcomes.empty()) {
    const std::filesystem::path dir(*opt.images);
    const Allocation& final_alloc = r.outcomes.back().allocation;
    write_ppm(labels_to_rgb(final_alloc.to_label_grid()),
              dir / "allocation.ppm");
    if (real_driver) {
      write_pgm(field_to_grey(real_driver->weather().qcloud(),
                              /*invert=*/true),
                dir / "qcloud.pgm");
      write_pgm(field_to_grey(real_driver->weather().olr()),
                dir / "olr.pgm");
    }
    std::cout << "images written to " << dir << "\n";
  }
  return kExitOk;
}
