#include "core/coupled.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/checkpoint_hook.hpp"
#include "exec/cancel.hpp"
#include "fault/snapshot.hpp"
#include "util/check.hpp"
#include "util/fnv.hpp"

namespace stormtrack {

namespace {

/// The fault injector is configured once on the manager; the scenario's PDA
/// shares it so split-read faults line up with the adaptation points.
CoupledConfig with_shared_injector(CoupledConfig config) {
  if (config.scenario.pda.injector == nullptr)
    config.scenario.pda.injector = config.manager.injector;
  return config;
}

/// The pipeline polls its token at the start of apply(), which in a coupled
/// interval runs after the weather step and the tracker update; a
/// cancellation there would leave a torn interval. advance() polls the
/// token itself, before step 1, so the pipeline gets none.
ManagerConfig without_cancel(ManagerConfig config) {
  config.cancel = nullptr;
  return config;
}

}  // namespace

CoupledSimulation::CoupledSimulation(const Machine& machine,
                                     const ExecTimeModel& model,
                                     const GroundTruthCost& truth,
                                     CoupledConfig config)
    : machine_(&machine),
      config_(with_shared_injector(std::move(config))),
      driver_(config_.scenario),
      manager_(machine, model, truth, without_cancel(config_.manager)),
      workload_(WorkloadRegistry::global().create(
          config_.workload,
          WorkloadParams{config_.nest_dynamics, config_.particles})) {}

WorkloadEnv CoupledSimulation::workload_env(TrafficReport* data_movement) {
  WorkloadEnv env;
  env.comm = &machine_->comm();
  env.grid_px = machine_->grid_px();
  env.weather = &driver_.weather();
  env.payload_faults = config_.manager.injector;
  env.metrics = &manager_.metrics();
  env.executor = config_.manager.executor;
  env.data_movement = data_movement;
  return env;
}

IntervalReport CoupledSimulation::advance() {
  if (config_.manager.cancel != nullptr) config_.manager.cancel->check();
  IntervalReport report;
  report.interval = interval_++;

  // ---- 1–3. Weather step, PDA, lifecycle classification. The tracker is
  // snapshotted first so a skipped adaptation point (degradation ladder
  // bottom) can be rolled back: the replayed classification next interval
  // then assigns the same fresh nest ids it would have.
  const NestTracker::State tracker_before = driver_.tracker_snapshot();
  const RealScenarioStep step = driver_.next();
  report.rois_detected = step.pda.rectangles.size();
  report.diff = step.diff;
  if (step.data_blackout)
    manager_.metrics().add_count("recovery.blackout_intervals");

  // Active set with *frozen* regions: retained nests keep the region and
  // shape they were spawned with (see header).
  std::vector<NestSpec> active;
  for (const NestSpec& spec : step.active) {
    active.push_back(workload_->has_nest(spec.id)
                         ? workload_->nest_spec(spec.id)
                         : spec);
  }

  // Remember the committed rectangles before the reallocation so retained
  // nests' data can be moved afterwards.
  previous_rects_.clear();
  for (const auto& [id, rect] : manager_.allocation().rects())
    previous_rects_.emplace(id, rect);

  // ---- 4. Processor reallocation.
  report.realloc = manager_.apply(active);

  const WorkloadEnv move_env = workload_env(&report.workload_traffic);
  if (report.realloc.degradation == "retained_previous") {
    // The pipeline skipped the point and rolled its own state back; undo
    // the tracker update too and keep the live nests exactly as they were,
    // so the whole interval is a no-op apart from integration.
    driver_.restore_tracker(tracker_before);
    manager_.metrics().add_count("recovery.interval_rollbacks");
    report.diff = NestDiff{};
    for (const int id : workload_->nest_ids())
      report.diff.retained.push_back(workload_->nest_spec(id));
  } else {
    // ---- 5. Nest payload lifecycle, through the workload layer.
    for (const int id : report.diff.deleted) workload_->delete_nest(id);
    for (const NestSpec& spec : active) {
      if (workload_->has_nest(spec.id)) continue;
      workload_->insert_nest(spec, move_env);
    }
    for (const NestSpec& spec : active) {
      const auto prev = previous_rects_.find(spec.id);
      if (prev == previous_rects_.end()) continue;  // just inserted
      const auto now = manager_.allocation().find(spec.id);
      ST_CHECK_MSG(now.has_value(), "active nest " << spec.id
                                                   << " lost its allocation");
      if (*now == prev->second) continue;  // nothing moved
      try {
        // The workload verifies conservation / integrity internally.
        workload_->move_nest(spec.id, prev->second, *now, move_env);
      } catch (const CheckError&) {
        // Payload faults surface here as conservation / integrity check
        // failures: the moved data is gone or damaged. Rebuild the nest's
        // state from the parent model (same initialization as a fresh
        // spawn) — lossy, but the nest keeps running.
        if (config_.manager.injector == nullptr) throw;
        workload_->reinit_nest(spec.id, move_env);
        manager_.metrics().add_count("recovery.field_reinits");
      }
    }
  }

  // ---- 6. Integrate every nest on its processor rectangle. Workloads
  // whose integration moves real payloads (particle handoffs) can hit
  // injected faults here too; the recovery answer is the same.
  const WorkloadEnv step_env = workload_env(nullptr);
  for (const int id : workload_->nest_ids()) {
    const auto rect = manager_.allocation().find(id);
    ST_CHECK_MSG(rect.has_value(), "live nest " << id
                                                << " has no allocation");
    try {
      report.halo_traffic += workload_->integrate(
          id, *rect, config_.manager.steps_per_interval, step_env);
    } catch (const CheckError&) {
      if (config_.manager.injector == nullptr) throw;
      workload_->reinit_nest(id, step_env);
      manager_.metrics().add_count("recovery.field_reinits");
    }
  }
  report.integration_time = report.realloc.committed.actual_exec;

  // The interval is fully committed at this point — weather, tracker,
  // pipeline, and nest payloads are all consistent — so this is the one
  // safe cut for checkpointing.
  if (config_.hook != nullptr) config_.hook->on_interval(*this, report.interval);
  return report;
}

const std::map<int, LiveNest>& CoupledSimulation::nests() const {
  const auto* field = dynamic_cast<const FieldWorkload*>(workload_.get());
  ST_CHECK_MSG(field != nullptr,
               "nests() is only available under the field workload (this "
               "run uses '"
                   << workload_->name() << "'); use workload() instead");
  return field->nests();
}

CoupledSimulation::State CoupledSimulation::export_state() const {
  State state;
  state.driver = driver_.export_state();
  state.pipeline = manager_.export_state();
  state.workload = std::string(workload_->name());
  state.workload_state = workload_->export_state();
  state.interval = interval_;
  return state;
}

void CoupledSimulation::import_state(State state) {
  ST_CHECK_MSG(state.interval >= 0, "coupled state has negative interval "
                                        << state.interval);
  ST_CHECK_MSG(state.workload == config_.workload,
               "coupled state carries workload '"
                   << state.workload << "' but this simulation runs '"
                   << config_.workload << "'");
  // Import the payload blob into a *fresh* workload instance first: a bad
  // blob then throws before any member is touched (transactionality).
  std::unique_ptr<INestWorkload> workload = WorkloadRegistry::global().create(
      config_.workload,
      WorkloadParams{config_.nest_dynamics, config_.particles});
  workload->import_state(state.workload_state);
  // Pipeline import validates allocation invariants; still before touching
  // members so a bad checkpoint leaves this simulation unchanged.
  manager_.import_state(state.pipeline);
  for (const int id : workload->nest_ids())
    ST_CHECK_MSG(manager_.allocation().find(id).has_value(),
                 "live nest " << id << " has no allocation in the "
                                       "checkpointed pipeline state");
  driver_.import_state(std::move(state.driver));
  workload_ = std::move(workload);
  previous_rects_.clear();  // rebuilt at the top of every advance()
  interval_ = state.interval;
}

std::uint64_t CoupledSimulation::state_fingerprint() const {
  Fingerprint fp;
  fp.add(interval_);
  fp.add(manager_.state_fingerprint());
  fp.add(driver_.tracker_fingerprint());

  const WeatherModel::State weather = driver_.weather().export_state();
  fp.add(weather.step);
  for (const std::uint64_t word : weather.rng.s) fp.add(word);
  fp.add(weather.rng.spare);
  fp.add(static_cast<std::int64_t>(weather.rng.have_spare));
  fp.add(static_cast<std::int64_t>(weather.systems.size()));
  for (const CloudSystem& s : weather.systems) {
    fp.add(s.cx);
    fp.add(s.cy);
    fp.add(s.sigma_x);
    fp.add(s.sigma_y);
    fp.add(s.intensity);
    fp.add(s.vx);
    fp.add(s.vy);
    fp.add(s.growth);
    fp.add(s.age);
    fp.add(s.lifetime);
  }

  // The workload name is deliberately NOT hashed: the field workload must
  // reproduce the pre-refactor fingerprints bit-for-bit (golden test), and
  // the name already gates import via the config fingerprint.
  workload_->add_state_fingerprint(fp);
  return fp.value();
}

}  // namespace stormtrack
