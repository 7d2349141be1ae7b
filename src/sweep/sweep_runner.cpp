#include "sweep/sweep_runner.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <memory>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "ckpt/checkpoint.hpp"
#include "core/coupled.hpp"
#include "exec/cancel.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "sweep/sweep_journal.hpp"
#include "util/check.hpp"
#include "util/fnv.hpp"

namespace stormtrack {

namespace {

/// Build every machine up front on the calling thread; workers only touch
/// them through const members.
std::vector<Machine> build_machines(const SweepSpec& spec) {
  std::vector<Machine> machines;
  machines.reserve(spec.machines.size());
  for (const SweepMachine& m : spec.machines) machines.push_back(m.factory());
  return machines;
}

/// Fill every case slot's axis coordinates and names (first axis major,
/// then machine, then strategy — the fixed order both runners report in).
std::vector<SweepCaseResult> prefill_cases(const SweepSpec& spec,
                                           const std::vector<Machine>& machines) {
  const std::size_t n = spec.num_cases();
  std::vector<SweepCaseResult> results(n);
  const std::size_t per_first = spec.machines.size() * spec.strategies.size();
  for (std::size_t i = 0; i < n; ++i) {
    SweepCaseResult& r = results[i];
    r.trace_index = i / per_first;
    r.machine_index = (i / spec.strategies.size()) % spec.machines.size();
    r.strategy_index = i % spec.strategies.size();
    r.trace_name = spec.traces.empty()
                       ? spec.scenarios[r.trace_index].name
                       : spec.traces[r.trace_index].name;
    r.machine_name = spec.machines[r.machine_index].name;
    r.machine_label = machines[r.machine_index].label();
    r.strategy = spec.strategies[r.strategy_index];
  }
  return results;
}

/// One scenario case: a full coupled run, folded into the TraceRunResult
/// shape the journal and reporting layers already understand.
TraceRunResult run_scenario_case(const Machine& machine,
                                 const ExecTimeModel& model,
                                 const GroundTruthCost& truth,
                                 const std::string& strategy,
                                 const RealScenarioConfig& scenario,
                                 const std::string& workload,
                                 const ManagerConfig& manager) {
  CoupledConfig cfg;
  cfg.scenario = scenario;
  cfg.manager = manager;
  cfg.manager.strategy = strategy;
  cfg.workload = workload;
  CoupledSimulation sim(machine, model, truth, cfg);
  TraceRunResult result;
  result.outcomes.reserve(
      static_cast<std::size_t>(std::max(scenario.num_intervals, 0)));
  for (int i = 0; i < scenario.num_intervals; ++i)
    result.outcomes.push_back(sim.advance().realloc);
  result.metrics = sim.metrics();
  result.final_state_fingerprint = sim.state_fingerprint();
  return result;
}

/// Dispatch a case to its first axis: trace replay or coupled scenario.
TraceRunResult run_case(const SweepSpec& spec,
                        const std::vector<Machine>& machines,
                        const ExecTimeModel& model,
                        const GroundTruthCost& truth,
                        const SweepCaseResult& r,
                        const ManagerConfig& config) {
  if (spec.traces.empty())
    return run_scenario_case(machines[r.machine_index], model, truth,
                             r.strategy,
                             spec.scenarios[r.trace_index].scenario,
                             spec.workload, config);
  return run_trace(machines[r.machine_index], model, truth, r.strategy,
                   spec.traces[r.trace_index].trace, config);
}

/// The pool \p spec runs on, owned for the duration of the run; null (fully
/// serial) for threads = 1 or a single case.
std::unique_ptr<ThreadPoolExecutor> make_spec_pool(const SweepSpec& spec,
                                                   std::size_t n) {
  if (spec.threads == 1 || n <= 1) return nullptr;
  const int want = spec.threads == 0 ? default_thread_count() : spec.threads;
  const int pool_size =
      std::min(want, static_cast<int>(std::min<std::size_t>(
                         n, std::numeric_limits<int>::max())));
  if (pool_size <= 1) return nullptr;
  return std::make_unique<ThreadPoolExecutor>(pool_size);
}

void check_duplicates(const std::vector<std::string>& names,
                      const char* axis, std::vector<std::string>& problems) {
  std::unordered_set<std::string_view> seen;
  for (const std::string& name : names)
    if (!seen.insert(name).second)
      problems.push_back(std::string("duplicate ") + axis + " name '" + name +
                         "'");
}

}  // namespace

SweepMachine sweep_bluegene(int cores) {
  return {"bluegene-" + std::to_string(cores),
          [cores] { return Machine::bluegene(cores); }};
}

SweepMachine sweep_fist_cluster(int cores) {
  return {"fist-" + std::to_string(cores),
          [cores] { return Machine::fist_cluster(cores); }};
}

SweepRunner::SweepRunner(const ExecTimeModel& model,
                         const GroundTruthCost& truth)
    : model_(&model), truth_(&truth) {}

std::vector<SweepCaseResult> SweepRunner::run(const SweepSpec& spec) const {
  ST_CHECK_MSG(spec.threads >= 0,
               "thread count must be >= 0, got " << spec.threads);
  ST_CHECK_MSG(spec.config.executor == nullptr,
               "SweepSpec::config.executor must be null: the runner owns the "
               "executor (set SweepSpec::threads)");
  ST_CHECK_MSG(spec.traces.empty() || spec.scenarios.empty(),
               "set either SweepSpec::traces or SweepSpec::scenarios, "
               "not both");
  ST_CHECK_MSG(spec.scenarios.empty() ||
                   WorkloadRegistry::global().contains(spec.workload),
               "unknown workload '" << spec.workload << "' in sweep spec");
  for (const std::string& s : spec.strategies)
    ST_CHECK_MSG(StrategyRegistry::global().contains(s),
                 "unknown strategy '" << s << "' in sweep spec");
  for (const SweepMachine& m : spec.machines)
    ST_CHECK_MSG(m.factory != nullptr,
                 "machine '" << m.name << "' has no factory");

  // Machines are built once on this thread and shared read-only by workers.
  const std::vector<Machine> machines = build_machines(spec);
  const std::size_t n = spec.num_cases();
  std::vector<SweepCaseResult> results = prefill_cases(spec, machines);
  const std::unique_ptr<ThreadPoolExecutor> pool = make_spec_pool(spec, n);

  // A fault plan gives every case a private injector (per-point attempt
  // state must not be shared across concurrently running cases).
  ST_CHECK_MSG(spec.fault_plan == nullptr || spec.config.injector == nullptr,
               "set either SweepSpec::fault_plan or config.injector, not both");
  std::vector<std::unique_ptr<FaultInjector>> injectors;
  if (spec.fault_plan != nullptr) {
    injectors.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
      injectors.push_back(std::make_unique<FaultInjector>(*spec.fault_plan));
  }

  // One batch over the grid: each case writes into its preallocated slot,
  // so the result vector's order never depends on scheduling. The case's
  // pipeline inherits the same executor (nested batches are safe).
  ManagerConfig case_config = spec.config;
  case_config.executor = pool.get();
  resolve_executor(pool.get()).parallel_for(n, [&](std::size_t i) {
    SweepCaseResult& r = results[i];
    ManagerConfig config = case_config;
    if (!injectors.empty()) config.injector = injectors[i].get();
    r.result = run_case(spec, machines, *model_, *truth_, r, config);
  });
  return results;
}

SweepRunReport SweepRunner::run_supervised(const SweepSpec& spec) const {
  validate_sweep_spec(spec);
  const SweepSupervision& sup = spec.supervision;

  const std::vector<Machine> machines = build_machines(spec);
  const std::size_t n = spec.num_cases();
  std::vector<SweepCaseResult> results = prefill_cases(spec, machines);
  const std::unique_ptr<ThreadPoolExecutor> pool = make_spec_pool(spec, n);

  // Replay the journal (if any) before launching anything: finished cases
  // take their recorded result verbatim and are never re-executed.
  std::unique_ptr<SweepJournal> journal;
  std::vector<char> done(n, 0);
  std::size_t replayed = 0;
  if (!sup.journal.empty()) {
    journal = std::make_unique<SweepJournal>(
        sup.journal, sweep_spec_fingerprint(spec), n, sup.resume);
    for (const auto& [index, result] : journal->replayed()) {
      results[index] = result;
      results[index].from_journal = true;
      done[index] = 1;
      ++replayed;
    }
  }

  // Per-case counters live in plain slots and are folded into the (not
  // thread-safe) supervisor registry only after the batch drains.
  struct CaseCounters {
    int attempts = 0;
    int retries = 0;
    int deadline_hits = 0;
    bool quarantined = false;
  };
  std::vector<CaseCounters> counters(n);

  ManagerConfig case_config = spec.config;
  case_config.executor = pool.get();
  resolve_executor(pool.get()).parallel_for(n, [&](std::size_t i) {
    if (done[i] != 0) return;
    SweepCaseResult& r = results[i];
    CaseCounters& c = counters[i];
    std::string last_error;
    CancelToken token;
    for (int attempt = 1; attempt <= sup.max_attempts; ++attempt) {
      c.attempts = attempt;
      // Each attempt gets a fresh deadline, armed before the retry backoff
      // that precedes it: the backoff sleep is cancellable against that
      // deadline, so a deadline shorter than the backoff wakes promptly and
      // quarantines the case once instead of oversleeping the budget (and
      // the attempt the sleep belonged to is charged exactly one deadline
      // hit, never one for the sleep plus one for the doomed attempt).
      token.reset();
      if (sup.case_deadline_seconds > 0.0)
        token.set_deadline_after(sup.case_deadline_seconds);
      if (attempt > 1) {
        ++c.retries;
        const double backoff = std::ldexp(sup.backoff_seconds, attempt - 2);
        if (backoff > 0.0 && !token.wait_for(backoff)) {
          ++c.deadline_hits;
          last_error = "case deadline expired during retry backoff";
          break;
        }
      }
      // Each attempt starts from scratch: a fresh injector (attempt state
      // must not leak across retries).
      std::unique_ptr<FaultInjector> injector;
      ManagerConfig config = case_config;
      if (spec.fault_plan != nullptr) {
        injector = std::make_unique<FaultInjector>(*spec.fault_plan);
        config.injector = injector.get();
      }
      config.cancel = &token;
      try {
        r.result = run_case(spec, machines, *model_, *truth_, r, config);
        r.status = SweepCaseStatus::kOk;
        r.attempts = attempt;
        r.error.clear();
        if (journal != nullptr) journal->append(i, r);
        return;
      } catch (const CancelledError& e) {
        ++c.deadline_hits;
        last_error = e.what();
      } catch (const std::exception& e) {
        last_error = e.what();
      }
    }
    // Quarantine: report the failure in the slot, keep the sweep alive.
    // Deliberately not journaled — a resume re-attempts quarantined cases.
    // attempts reports what was actually consumed: a deadline expiring
    // during a backoff sleep forfeits the remaining attempts.
    r.status = SweepCaseStatus::kQuarantined;
    r.attempts = c.attempts;
    r.error = last_error;
    r.result = TraceRunResult{};
    c.quarantined = true;
  });

  SweepRunReport report;
  report.supervisor.add_count("supervisor.cases",
                              static_cast<std::int64_t>(n));
  report.supervisor.add_count("supervisor.replayed",
                              static_cast<std::int64_t>(replayed));
  for (const CaseCounters& c : counters) {
    report.supervisor.add_count("supervisor.attempts", c.attempts);
    report.supervisor.add_count("supervisor.retries", c.retries);
    report.supervisor.add_count("supervisor.deadline_hits", c.deadline_hits);
    report.supervisor.add_count("supervisor.quarantined",
                                c.quarantined ? 1 : 0);
  }
  if (journal != nullptr) {
    report.supervisor.add_count("supervisor.journal_appends",
                                journal->appends());
    report.supervisor.add_count("supervisor.journal_torn_dropped",
                                journal->torn_records_dropped());
  }
  report.results = std::move(results);
  return report;
}

const char* to_string(SweepCaseStatus status) {
  switch (status) {
    case SweepCaseStatus::kOk:
      return "ok";
    case SweepCaseStatus::kQuarantined:
      return "quarantined";
  }
  return "unknown";
}

std::vector<std::string> sweep_spec_problems(const SweepSpec& spec) {
  std::vector<std::string> problems;
  if (spec.traces.empty() && spec.scenarios.empty())
    problems.emplace_back("no traces or scenarios in sweep spec");
  if (!spec.traces.empty() && !spec.scenarios.empty())
    problems.emplace_back("set either traces or scenarios, not both");
  if (!spec.scenarios.empty() &&
      !WorkloadRegistry::global().contains(spec.workload))
    problems.push_back("unknown workload '" + spec.workload + "'");
  if (spec.machines.empty())
    problems.emplace_back("no machines in sweep spec");
  if (spec.strategies.empty())
    problems.emplace_back("no strategies in sweep spec");

  std::vector<std::string> trace_names, scenario_names, machine_names;
  trace_names.reserve(spec.traces.size());
  for (const SweepTrace& t : spec.traces) trace_names.push_back(t.name);
  scenario_names.reserve(spec.scenarios.size());
  for (const SweepScenario& s : spec.scenarios)
    scenario_names.push_back(s.name);
  machine_names.reserve(spec.machines.size());
  for (const SweepMachine& m : spec.machines) machine_names.push_back(m.name);
  check_duplicates(trace_names, "trace", problems);
  check_duplicates(scenario_names, "scenario", problems);
  check_duplicates(machine_names, "machine", problems);
  check_duplicates(spec.strategies, "strategy", problems);

  for (const std::string& s : spec.strategies)
    if (!StrategyRegistry::global().contains(s))
      problems.push_back("unknown strategy '" + s + "'");
  for (const SweepMachine& m : spec.machines)
    if (m.factory == nullptr)
      problems.push_back("machine '" + m.name + "' has no factory");

  if (spec.threads < 0)
    problems.push_back("threads must be >= 0, got " +
                       std::to_string(spec.threads));
  if (spec.config.executor != nullptr)
    problems.emplace_back(
        "config.executor must be null — the runner owns the executor (set "
        "threads)");
  if (spec.fault_plan != nullptr && spec.config.injector != nullptr)
    problems.emplace_back(
        "set either SweepSpec::fault_plan or config.injector, not both");
  if (spec.config.cancel != nullptr)
    problems.emplace_back(
        "config.cancel must be null under supervision — the supervisor owns "
        "each attempt's cancel token");

  const SweepSupervision& sup = spec.supervision;
  if (sup.case_deadline_seconds < 0.0)
    problems.push_back("case_deadline_seconds must be >= 0, got " +
                       std::to_string(sup.case_deadline_seconds));
  if (sup.max_attempts < 1)
    problems.push_back("max_attempts must be >= 1, got " +
                       std::to_string(sup.max_attempts));
  if (sup.backoff_seconds < 0.0)
    problems.push_back("backoff_seconds must be >= 0, got " +
                       std::to_string(sup.backoff_seconds));
  if (sup.resume && sup.journal.empty())
    problems.emplace_back(
        "supervision.resume requires supervision.journal to be set");
  return problems;
}

void validate_sweep_spec(const SweepSpec& spec) {
  const std::vector<std::string> problems = sweep_spec_problems(spec);
  if (problems.empty()) return;
  std::ostringstream msg;
  msg << "invalid sweep spec (" << problems.size() << " problem"
      << (problems.size() == 1 ? "" : "s") << "):";
  for (const std::string& p : problems) msg << "\n  - " << p;
  ST_CHECK_MSG(false, msg.str());
}

std::uint64_t sweep_spec_fingerprint(const SweepSpec& spec) {
  Fingerprint fp;
  fp.add(static_cast<std::int64_t>(spec.traces.size()));
  for (const SweepTrace& t : spec.traces) {
    fp.add(std::string_view(t.name));
    add_fingerprint(fp, t.trace);
  }
  // Scenario sweeps fold the scenario axis and workload in; pure-trace
  // specs hash exactly as before the scenario axis existed, so established
  // journals stay valid.
  if (!spec.scenarios.empty()) {
    fp.add(std::string_view(spec.workload));
    fp.add(static_cast<std::int64_t>(spec.scenarios.size()));
    for (const SweepScenario& s : spec.scenarios) {
      fp.add(std::string_view(s.name));
      add_fingerprint(fp, s.scenario);
    }
  }
  fp.add(static_cast<std::int64_t>(spec.machines.size()));
  for (const SweepMachine& m : spec.machines) fp.add(std::string_view(m.name));
  fp.add(static_cast<std::int64_t>(spec.strategies.size()));
  for (const std::string& s : spec.strategies) fp.add(std::string_view(s));
  add_fingerprint(fp, spec.config);
  const FaultPlan* plan = spec.fault_plan;
  if (plan == nullptr && spec.config.injector != nullptr)
    plan = &spec.config.injector->plan();
  if (plan != nullptr) add_fingerprint(fp, *plan);
  return fp.value();
}

const SweepCaseResult& find_case(const std::vector<SweepCaseResult>& results,
                                 std::string_view trace,
                                 std::string_view machine,
                                 std::string_view strategy) {
  for (const SweepCaseResult& r : results)
    if (r.trace_name == trace && r.machine_name == machine &&
        r.strategy == strategy)
      return r;
  ST_CHECK_MSG(false, "no sweep case (" << trace << ", " << machine << ", "
                                        << strategy << ") in results");
  std::abort();  // unreachable — ST_CHECK_MSG(false, ...) always throws
}

MetricsRegistry merged_metrics(const std::vector<SweepCaseResult>& results) {
  MetricsRegistry merged;
  for (const SweepCaseResult& r : results) merged.merge(r.result.metrics);
  return merged;
}

}  // namespace stormtrack
