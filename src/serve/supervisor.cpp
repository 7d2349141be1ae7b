#include "serve/supervisor.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <sstream>
#include <utility>

#include "ckpt/checkpoint.hpp"
#include "core/coupled.hpp"
#include "core/machine.hpp"
#include "util/check.hpp"

namespace stormtrack {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_until(Clock::time_point when) {
  return std::chrono::duration<double>(when - Clock::now()).count();
}

}  // namespace

SessionSupervisor::SessionSupervisor(std::filesystem::path state_dir,
                                     ServeLimits limits)
    : state_dir_(std::move(state_dir)),
      limits_(limits),
      queue_(FairQueueConfig{limits.aging_seconds}),
      journal_((std::filesystem::create_directories(state_dir_),
                state_dir_ / "sessions.stjl"),
               std::filesystem::exists(state_dir_ / "sessions.stjl")) {
  ST_CHECK_MSG(limits_.max_active > 0, "max_active must be positive");
  ST_CHECK_MSG(limits_.max_queued >= 0, "max_queued must not be negative");
  ST_CHECK_MSG(limits_.max_attempts > 0, "max_attempts must be positive");
  ST_CHECK_MSG(limits_.pool_threads >= 0, "pool_threads must not be negative");
  // 0 = one worker per admission slot: max_active sessions advance at once.
  if (limits_.pool_threads == 0) limits_.pool_threads = limits_.max_active;
  pool_ = std::make_unique<ThreadPoolExecutor>(limits_.pool_threads);
  next_id_ = journal_.max_id() + 1;
  for (const auto& [id, replayed] : journal_.replayed()) {
    auto session = std::make_unique<Session>();
    session->status.id = id;
    session->status.spec = replayed.spec;
    session->status.attempts = replayed.attempts;
    session->status.fingerprint = replayed.fingerprint;
    session->status.intervals_done = replayed.intervals_done;
    session->status.error = replayed.error;
    // A session the dead daemon left running surfaces as `interrupted`
    // until recover() requeues it; a never-started one stays `queued`
    // (also requeued by recover() — it is not in queue_ yet).
    session->status.state = replayed.state == SessionState::kRunning
                                ? SessionState::kInterrupted
                                : replayed.state;
    sessions_[id] = std::move(session);
  }
}

SessionSupervisor::~SessionSupervisor() { stop(); }

SessionSupervisor::RecoveryReport SessionSupervisor::recover() {
  const std::lock_guard<std::mutex> lock(mutex_);
  RecoveryReport report;
  for (auto& [id, session] : sessions_) {
    const SessionState state = session->status.state;
    if (is_terminal(state)) {
      ++report.terminal;
      continue;
    }
    // Interrupted mid-run or still queued when the previous daemon died:
    // run it (again). A previously started session resumes from its
    // checkpoint directory. sessions_ iterates in id order, so recovered
    // sessions are admitted FIFO by original submit order (at start()).
    session->status.state = SessionState::kQueued;
    queue_.push(id, session->status.spec.priority, Clock::now());
    ++report.requeued;
  }
  metrics_.add_count("server.recovered_sessions", report.terminal);
  metrics_.add_count("server.requeued_sessions", report.requeued);
  return report;
}

void SessionSupervisor::start() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (started_) return;
  started_ = true;
  stopping_ = false;
  // pool_threads cooperative workers, however many sessions are admitted.
  workers_.reserve(static_cast<std::size_t>(limits_.pool_threads));
  for (int i = 0; i < limits_.pool_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  watchdog_ = std::thread([this] { watchdog_loop(); });
  admit_locked();  // sessions requeued by recover()
}

void SessionSupervisor::stop() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_ && !started_) return;
    stopping_ = true;
    // Trip every running session's token; a session mid-slice observes
    // CancelledError at its next adaptation point and is interrupted. No
    // terminal journal record is written, so recovery after a graceful
    // stop and after SIGKILL are the same code path.
    for (auto& [id, session] : sessions_) {
      if (session->status.state == SessionState::kRunning) {
        session->cancel_kind = CancelKind::kShutdown;
        session->token.cancel("daemon stopping");
      }
    }
    work_cv_.notify_all();
    events_cv_.notify_all();
    watchdog_cv_.notify_all();
  }
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  if (watchdog_.joinable()) watchdog_.join();
  const std::lock_guard<std::mutex> lock(mutex_);
  // Sessions parked in the run queue (or in retry backoff) when the
  // workers exited never observed their cancelled token. Mark them
  // interrupted here — deliberately without a terminal journal record, so
  // recovery after a graceful stop and after SIGKILL stay the same code
  // path. Their checkpoints survive; their live simulations are dropped.
  for (auto& [id, session] : sessions_) {
    if (session->status.state != SessionState::kRunning) continue;
    session->task.reset();
    session->status.state = SessionState::kInterrupted;
    session->queued_runnable = false;
    session->slicing = false;
  }
  run_queue_.clear();
  live_sessions_ = 0;
  events_cv_.notify_all();
  started_ = false;
}

SessionSupervisor::SubmitResult SessionSupervisor::submit(
    const SessionSpec& spec) {
  SubmitResult result;
  const std::vector<std::string> problems = session_spec_problems(spec);
  if (!problems.empty()) {
    std::ostringstream reason;
    for (std::size_t i = 0; i < problems.size(); ++i) {
      reason << (i ? "; " : "") << problems[i];
    }
    result.admission = Admission::kInvalid;
    result.reason = reason.str();
    return result;
  }

  const std::lock_guard<std::mutex> lock(mutex_);
  const auto now = Clock::now();
  bump_locked("server.submitted");
  TenantStats& tenant = tenants_[spec.tenant];
  tenant.tenant = spec.tenant;
  ++tenant.submitted;
  int active = 0;
  for (const auto& [id, session] : sessions_) {
    if (session->status.state == SessionState::kRunning) ++active;
  }
  result.active = active;
  result.queued = static_cast<int>(queue_.size());
  result.estimated_wait_seconds = estimated_wait_locked();

  if (stopping_) {
    result.admission = Admission::kRejectedBusy;
    result.reason = "daemon is shutting down";
    bump_locked("server.rejected_busy");
    ++tenant.rejected;
    return result;
  }

  if (result.queued >= limits_.max_queued) {
    // Queue full. Shed the queued session with the lowest effective
    // priority if the incoming one strictly outranks it (aging counts:
    // an old low-priority session may have earned enough credit to be
    // unsheddable); otherwise reject the submit with retry-after hints.
    const std::optional<FairQueue::Entry> victim = queue_.shed_victim(now);
    if (!victim.has_value() ||
        queue_.effective_priority(*victim, now) >= spec.priority) {
      result.admission = Admission::kRejectedBusy;
      std::ostringstream reason;
      reason << "at capacity: " << active << " running, " << result.queued
             << " queued (max_queued " << limits_.max_queued
             << "), and no queued session has lower priority than "
             << spec.priority;
      result.reason = reason.str();
      bump_locked("server.rejected_busy");
      ++tenant.rejected;
      return result;
    }
    Session& shed = *sessions_.at(victim->id);
    journal_.shed(shed.status.id);
    shed.status.state = SessionState::kShed;
    shed.status.error = "shed for a priority-" + std::to_string(spec.priority) +
                        " submission under full queue";
    queue_.remove(victim->id);
    bump_locked("server.shed_sessions");
    TenantStats& shed_tenant = tenants_[shed.status.spec.tenant];
    shed_tenant.tenant = shed.status.spec.tenant;
    ++shed_tenant.shed;
    bump_locked("server.shed_by_tenant." +
                (shed.status.spec.tenant.empty() ? "default"
                                                 : shed.status.spec.tenant));
    events_cv_.notify_all();
  }

  const std::uint64_t id = next_id_++;
  // Journal before acknowledging: an accepted session survives any crash
  // from here on. (In degraded mode the record is buffered and flushed by
  // the watchdog — only a crash while still degraded can lose it.)
  journal_.submitted(id, spec);
  auto session = std::make_unique<Session>();
  session->status.id = id;
  session->status.spec = spec;
  session->status.state = SessionState::kQueued;
  sessions_[id] = std::move(session);
  queue_.push(id, spec.priority, now);
  bump_locked("server.accepted");
  ++tenant.admitted;
  // A free slot admits the session right here, so nothing ever waits (or
  // gets shed) in the queue while capacity is idle.
  admit_locked();
  result.admission = Admission::kAccepted;
  result.id = id;
  result.queued = static_cast<int>(queue_.size());
  return result;
}

SessionStatus SessionSupervisor::cancel(std::uint64_t id,
                                        const std::string& reason) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = sessions_.find(id);
  ST_CHECK_MSG(it != sessions_.end(), "no session with id " << id);
  Session& session = *it->second;
  switch (session.status.state) {
    case SessionState::kQueued: {
      queue_.remove(id);
      journal_.cancelled(id, reason);
      session.status.state = SessionState::kCancelled;
      session.status.error = reason;
      bump_locked("server.cancelled");
      events_cv_.notify_all();
      break;
    }
    case SessionState::kRunning:
      session.cancel_kind = CancelKind::kClient;
      session.token.cancel(reason);
      // A session parked in a retry backoff gets its cancellation slice
      // promptly instead of waiting for the backoff to elapse.
      promote_locked(session);
      break;
    default:
      break;  // terminal or interrupted: nothing to do
  }
  return session.status;
}

SessionStatus SessionSupervisor::status(std::uint64_t id) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = sessions_.find(id);
  ST_CHECK_MSG(it != sessions_.end(), "no session with id " << id);
  return it->second->status;
}

std::vector<SessionStatus> SessionSupervisor::list() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SessionStatus> out;
  out.reserve(sessions_.size());
  for (const auto& [id, session] : sessions_) {
    out.push_back(session->status);
  }
  return out;
}

SessionSupervisor::EventBatch SessionSupervisor::wait_events(
    std::uint64_t id, std::uint64_t from_seq, double timeout_seconds) const {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto it = sessions_.find(id);
  ST_CHECK_MSG(it != sessions_.end(), "no session with id " << id);
  const Session& session = *it->second;
  const auto ready = [&] {
    return stopping_ || is_terminal(session.status.state) ||
           session.events.size() > from_seq;
  };
  if (timeout_seconds > 0.0 && !ready()) {
    events_cv_.wait_for(
        lock, std::chrono::duration<double>(timeout_seconds), ready);
  }
  EventBatch batch;
  for (std::size_t i = from_seq; i < session.events.size(); ++i) {
    batch.events.push_back(session.events[i]);
  }
  batch.terminal = is_terminal(session.status.state);
  batch.status = session.status;
  return batch;
}

SessionStatus SessionSupervisor::wait_terminal(std::uint64_t id) const {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto it = sessions_.find(id);
  ST_CHECK_MSG(it != sessions_.end(), "no session with id " << id);
  const Session& session = *it->second;
  events_cv_.wait(lock, [&] {
    return stopping_ || is_terminal(session.status.state);
  });
  return session.status;
}

MetricsRegistry SessionSupervisor::metrics() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  MetricsRegistry snapshot = metrics_;
  // Cross-session sharing counters accrue inside the caches (internally
  // synchronized), not under mutex_; fold current totals into the
  // snapshot so they read like any other server.* counter.
  const PricingCache::Stats pricing = pricing_.stats();
  snapshot.add_count("server.pricing_shared_hits", pricing.hits);
  snapshot.add_count("server.pricing_shared_misses", pricing.misses);
  snapshot.add_count("server.pool_batches", pool_->stats().batches);
  return snapshot;
}

ServerStats SessionSupervisor::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  ServerStats stats;
  for (const auto& [id, session] : sessions_) {
    if (session->status.state == SessionState::kRunning) ++stats.active;
  }
  stats.queued = queue_.size();
  stats.healthy = journal_.healthy();
  stats.journal_pending = journal_.pending_records();
  stats.journal_write_failures =
      static_cast<std::uint64_t>(journal_.write_failures());
  stats.estimated_wait_seconds = estimated_wait_locked();
  stats.tenants.reserve(tenants_.size());
  for (const auto& [name, tenant] : tenants_) stats.tenants.push_back(tenant);
  const ExecutorStats pool = pool_->stats();
  stats.pool_threads = static_cast<std::uint64_t>(pool.threads);
  stats.pool_batches = static_cast<std::uint64_t>(pool.batches);
  for (const auto& [id, session] : sessions_) {
    if (session->status.state != SessionState::kRunning) continue;
    if (session->slicing) {
      ++stats.pool_executing;
    } else if (session->queued_runnable) {
      ++stats.pool_runnable;
    } else {
      ++stats.pool_delayed;
    }
  }
  const PricingCache::Stats pricing = pricing_.stats();
  stats.pricing_shared_hits = static_cast<std::uint64_t>(pricing.hits);
  stats.pricing_shared_misses = static_cast<std::uint64_t>(pricing.misses);
  return stats;
}

double SessionSupervisor::estimated_wait_locked() const {
  if (ewma_session_seconds_ <= 0.0) return 0.0;
  // A new arrival waits behind the whole queue, spread over the workers.
  return ewma_session_seconds_ *
         (static_cast<double>(queue_.size()) + 1.0) /
         static_cast<double>(limits_.pool_threads);
}

void SessionSupervisor::account_session_time_locked(const std::string& tenant,
                                                 double seconds) {
  TenantStats& t = tenants_[tenant];
  t.tenant = tenant;
  t.cpu_seconds += seconds;
  // EWMA with a 1/5 step: stable enough to survive one outlier session,
  // fresh enough to track a workload shift within a few sessions.
  ewma_session_seconds_ = ewma_session_seconds_ <= 0.0
                              ? seconds
                              : 0.8 * ewma_session_seconds_ + 0.2 * seconds;
}

int SessionSupervisor::active_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  int active = 0;
  for (const auto& [id, session] : sessions_) {
    if (session->status.state == SessionState::kRunning) ++active;
  }
  return active;
}

int SessionSupervisor::queued_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int>(queue_.size());
}

std::filesystem::path SessionSupervisor::checkpoint_dir(
    std::uint64_t id) const {
  return state_dir_ / "sessions" / std::to_string(id) / "ck";
}

void SessionSupervisor::bump_locked(std::string_view counter,
                                    std::int64_t amount) {
  metrics_.add_count(counter, amount);
}

void SessionSupervisor::admit_locked() {
  if (!started_ || stopping_) return;
  const auto now = Clock::now();
  while (live_sessions_ < limits_.max_active) {
    const std::optional<std::uint64_t> next = queue_.pop_best(now);
    if (!next.has_value()) return;
    Session& session = *sessions_.at(*next);
    session.status.state = SessionState::kRunning;
    session.start_attempt = session.status.attempts;
    ++live_sessions_;
    // Arm the wall-clock budget once, spanning every attempt and backoff
    // of this session (recovery re-arms in the new process: the budget is
    // per daemon life, not cumulative across crashes).
    const double deadline = session.status.spec.deadline_seconds > 0.0
                                ? session.status.spec.deadline_seconds
                                : limits_.session_deadline_seconds;
    if (deadline > 0.0 && !session.deadline_armed) {
      session.deadline_at =
          now + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(deadline));
      session.deadline_armed = true;
    }
    promote_locked(session);
  }
}

void SessionSupervisor::watchdog_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stopping_) {
    const auto now = Clock::now();
    for (auto& [id, session] : sessions_) {
      if (session->status.state != SessionState::kRunning) continue;
      if (!session->deadline_armed || session->deadline_at > now) continue;
      if (session->token.cancelled()) continue;
      // The per-attempt token deadline usually fires first; the watchdog
      // is the backstop that catches sessions parked in backoff or
      // wedged between polls.
      session->token.cancel("session deadline exceeded (watchdog)");
      bump_locked("server.watchdog_cancels");
      promote_locked(*session);
    }

    // Promote parked sessions — retry backoffs that have elapsed, and any
    // cancelled session waiting out a backoff — so no thread ever sleeps
    // on a session's behalf.
    for (auto& [id, session] : sessions_) {
      if (session->status.state != SessionState::kRunning ||
          session->slicing || session->queued_runnable) {
        continue;
      }
      if (session->runnable_at <= now || session->token.cancelled()) {
        promote_locked(*session);
      }
    }

    // Degraded-mode recovery: retry buffered journal records each sweep
    // (off the session lock — the flush does disk I/O) and account health
    // transitions in both directions.
    if (!journal_.healthy()) {
      lock.unlock();
      (void)journal_.flush_pending();
      lock.lock();
      if (stopping_) break;
    }
    const bool healthy_now = journal_.healthy();
    if (was_healthy_ && !healthy_now) {
      bump_locked("server.degraded_transitions");
    } else if (!was_healthy_ && healthy_now) {
      bump_locked("server.health_recoveries");
    }
    was_healthy_ = healthy_now;

    watchdog_cv_.wait_for(
        lock, std::chrono::duration<double>(limits_.watchdog_period_seconds));
  }
}

/// Everything a running attempt keeps alive between cooperative slices.
/// Member order is lifetime order: the simulation holds pointers into the
/// machine, the config, and the checkpointer, so it is declared (and
/// destroyed) last (first).
struct SessionSupervisor::SessionTask {
  Machine machine;
  CoupledConfig cfg;
  std::uint64_t config_fp = 0;
  int target_intervals = 0;
  std::unique_ptr<CoupledCheckpointer> checkpointer;
  std::unique_ptr<CoupledSimulation> sim;

  explicit SessionTask(Machine m) : machine(std::move(m)) {}
};

std::unique_ptr<SessionSupervisor::SessionTask> SessionSupervisor::build_task(
    Session& session, bool first_in_process) {
  SessionSpec spec;
  std::uint64_t id = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    spec = session.status.spec;
    id = session.status.id;
    // A cancel that raced in between the previous attempt's failure and
    // this one (client cancel, shutdown, or the watchdog) must be honored,
    // not cleared: only an untripped token is reset for the new attempt.
    // The check() below then surfaces any pending cancellation, and the
    // caller maps it through the still-valid cancel_kind.
    if (session.cancel_kind == CancelKind::kNone &&
        !session.token.cancelled()) {
      session.token.reset();
    }
    if (session.deadline_armed) {
      const double remaining = seconds_until(session.deadline_at);
      session.token.set_deadline_after(remaining);
    }
  }
  session.token.check();  // budget may already be gone

  auto task =
      std::make_unique<SessionTask>(Machine::by_name(spec.machine, spec.cores));
  task->target_intervals = spec.intervals;
  CoupledConfig& cfg = task->cfg;
  cfg.scenario.num_intervals = spec.intervals;
  cfg.scenario.seed = spec.seed;
  cfg.manager.strategy = spec.strategy;
  cfg.manager.cancel = &session.token;
  cfg.workload = spec.workload;
  cfg.manager.pricing_cache = &pricing_;
  // The session's pipeline and workload submit their data-parallel batches
  // into the supervisor's pool — never a private executor.
  cfg.manager.executor = pool_.get();

  const std::filesystem::path dir = checkpoint_dir(id);
  std::filesystem::create_directories(dir);
  task->config_fp = coupled_config_fingerprint(task->machine, cfg);
  CheckpointPolicy policy;
  policy.dir = dir;
  policy.every = limits_.checkpoint_every;
  policy.keep = limits_.checkpoint_keep;
  task->checkpointer =
      std::make_unique<CoupledCheckpointer>(policy, task->config_fp);
  cfg.hook = task->checkpointer.get();

  task->sim = std::make_unique<CoupledSimulation>(task->machine, models_.model,
                                                  models_.truth, cfg);
  const ResumeReport resume = resume_coupled(*task->sim, dir, task->config_fp);
  if (resume.resumed) {
    const std::lock_guard<std::mutex> lock(mutex_);
    // On the first attempt of this process the checkpoint must have come
    // from a previous daemon (crash recovery); later attempts resume
    // in-process retries.
    if (first_in_process) session.status.resumed = true;
    session.status.intervals_done = static_cast<int>(resume.step);
    bump_locked("server.resumes");
  }
  return task;
}

bool SessionSupervisor::step_task(Session& session) {
  SessionTask& task = *session.task;
  if (task.sim->interval() >= task.target_intervals) return false;
  const IntervalReport report = task.sim->advance();
  const std::lock_guard<std::mutex> lock(mutex_);
  SessionEvent event;
  event.seq = session.events.size();
  event.interval = report.interval;
  event.chosen = report.realloc.chosen;
  event.exec_seconds = report.realloc.committed.actual_exec;
  event.redist_seconds = report.realloc.committed.actual_redist;
  event.moved_bytes = report.workload_traffic.total_bytes;
  event.inserted = static_cast<int>(report.diff.inserted.size());
  event.deleted = static_cast<int>(report.diff.deleted.size());
  event.retained = static_cast<int>(report.diff.retained.size());
  session.events.push_back(std::move(event));
  session.status.intervals_done = task.sim->interval();
  session.status.next_event_seq = session.events.size();
  events_cv_.notify_all();
  return task.sim->interval() < task.target_intervals;
}

void SessionSupervisor::promote_locked(Session& session) {
  if (session.status.state != SessionState::kRunning) return;
  if (session.slicing || session.queued_runnable) return;
  session.queued_runnable = true;
  run_queue_.push_back(session.status.id);
  work_cv_.notify_one();
}

void SessionSupervisor::end_cancelled_locked(Session& session,
                                             const std::string& what,
                                             bool in_backoff) {
  const std::uint64_t id = session.status.id;
  switch (session.cancel_kind) {
    case CancelKind::kClient: {
      const std::string error =
          in_backoff ? "cancelled during retry backoff" : what;
      journal_.cancelled(id, error);
      session.status.state = SessionState::kCancelled;
      session.status.error = error;
      bump_locked("server.cancelled");
      break;
    }
    case CancelKind::kShutdown:
      // Deliberately no journal record: the next daemon's recovery
      // requeues this session exactly as after a crash.
      session.status.state = SessionState::kInterrupted;
      break;
    case CancelKind::kNone: {  // the session's own deadline
      const std::string error =
          in_backoff ? "session deadline expired during retry backoff "
                       "(last error: " +
                           session.last_error + ")"
                     : what;
      journal_.failed(id, error);
      session.status.state = SessionState::kFailed;
      session.status.error = error;
      bump_locked("server.deadline_failures");
      break;
    }
  }
  events_cv_.notify_all();
}

SessionSupervisor::SliceOutcome SessionSupervisor::run_slice(
    Session& session) {
  std::uint64_t id = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    id = session.status.id;
  }
  try {
    if (session.task == nullptr) {
      int attempt = 0;
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        // An earlier attempt of this admission failed and the session sat
        // out its retry backoff: a token that tripped meanwhile ends the
        // session here, before another attempt starts.
        if (session.status.attempts > session.start_attempt &&
            session.token.cancelled()) {
          end_cancelled_locked(session, "", /*in_backoff=*/true);
          return SliceOutcome::kTerminal;
        }
        attempt = ++session.status.attempts;
      }
      journal_.started(id, attempt);
      session.task = build_task(session, attempt == session.start_attempt + 1);
    }
    // Cancellation between slices surfaces inside sim.advance(), which
    // polls the token before each interval.
    if (step_task(session)) return SliceOutcome::kYield;
    const std::uint64_t fingerprint =
        session.task->checkpointer->checkpoint_now(*session.task->sim);
    session.task.reset();
    int intervals_done = 0;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      intervals_done = session.status.intervals_done;
    }
    journal_.finished(id, fingerprint, intervals_done);
    const std::lock_guard<std::mutex> lock(mutex_);
    session.status.state = SessionState::kDone;
    session.status.fingerprint = fingerprint;
    bump_locked("server.completed");
    events_cv_.notify_all();
    return SliceOutcome::kTerminal;
  } catch (const CancelledError& e) {
    session.task.reset();
    const std::lock_guard<std::mutex> lock(mutex_);
    end_cancelled_locked(session, e.what(), /*in_backoff=*/false);
    return SliceOutcome::kTerminal;
  } catch (const std::exception& e) {
    session.task.reset();
    const std::string error = e.what();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      session.last_error = error;
      if (session.status.attempts - session.start_attempt <
          limits_.max_attempts) {
        bump_locked("server.retries");
        // Exponential backoff (the same shape as
        // SweepRunner::run_supervised) as a parked wake-up time: no thread
        // waits on the session, the watchdog promotes it once runnable_at
        // passes (or its token trips).
        const double backoff = std::ldexp(
            limits_.backoff_seconds,
            session.status.attempts - session.start_attempt - 1);
        session.runnable_at =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(
                                   backoff > 0.0 ? backoff : 0.0));
        return SliceOutcome::kRetryLater;
      }
    }
    journal_.quarantined(id, error);
    const std::lock_guard<std::mutex> lock(mutex_);
    session.status.state = SessionState::kQuarantined;
    session.status.error = error;
    bump_locked("server.quarantined");
    events_cv_.notify_all();
    return SliceOutcome::kTerminal;
  }
}

void SessionSupervisor::worker_loop() {
  while (true) {
    Session* session = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock,
                    [&] { return stopping_ || !run_queue_.empty(); });
      if (stopping_) return;
      session = sessions_.at(run_queue_.front()).get();
      run_queue_.pop_front();
      session->queued_runnable = false;
      session->slicing = true;
    }
    const auto slice_started = Clock::now();
    const SliceOutcome outcome = run_slice(*session);
    const double slice_seconds =
        std::chrono::duration<double>(Clock::now() - slice_started).count();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      session->slicing = false;
      session->task_seconds += slice_seconds;
      switch (outcome) {
        case SliceOutcome::kYield:
          // Round-robin: to the back of the runnable queue, so N light
          // sessions interleave instead of the first admitted running to
          // completion — and no session starves.
          if (!stopping_) promote_locked(*session);
          break;
        case SliceOutcome::kRetryLater:
          break;  // parked; the watchdog promotes at runnable_at
        case SliceOutcome::kTerminal: {
          --live_sessions_;
          account_session_time_locked(session->status.spec.tenant,
                                      session->task_seconds);
          if (session->status.state == SessionState::kDone) {
            TenantStats& tenant = tenants_[session->status.spec.tenant];
            tenant.tenant = session->status.spec.tenant;
            ++tenant.completed;
          }
          admit_locked();  // the freed slot goes to the fair queue's best
          break;
        }
      }
    }
  }
}

}  // namespace stormtrack
