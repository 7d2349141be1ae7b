#pragma once

/// \file supervisor.hpp
/// The stormtrackd session scheduler: bounded admission, one cooperative
/// worker pool, per-session deadlines, supervised retries, and crash
/// recovery.
///
/// SessionSupervisor lifts SweepRunner::run_supervised's semantics —
/// deadline, bounded retries with exponential backoff, quarantine — from a
/// batch runner into a long-lived multi-tenant service:
///
///   * **Admission control.** At most `max_active` sessions run at once
///     and at most `max_queued` wait. A submit beyond both bounds is
///     REJECTED_BUSY — the daemon's memory use is bounded by
///     configuration, never by client behaviour.
///   * **One scheduling model.** Running sessions are *cooperative
///     tasks*: `pool_threads` workers advance them one adaptation interval
///     per slice, round-robin, yielding between slices — the adaptation
///     points are the only places a session can be reallocated anyway. So
///     `max_active` is an admission bound (live session state in memory),
///     not a thread count, and hundreds of light sessions multiplex onto a
///     few cores. Submission admits at once while a slot is free, so no
///     session waits (or is shed) in the queue beside idle capacity. Retry
///     backoffs park the session (no thread sleeps on it); the watchdog
///     promotes parked sessions when their backoff elapses or their token
///     trips. Every session's pipeline and workload submit their
///     data-parallel batches into the supervisor's one ThreadPoolExecutor
///     — never a private pool — and the executor's determinism contract
///     keeps per-session results byte-identical to serial execution
///     regardless of pool width or co-scheduled sessions.
///   * **Cross-session pricing reuse.** Every session's pipeline prices
///     candidates through one supervisor-wide PricingCache, scoped by
///     Machine::fingerprint(), so sessions sharing a machine model warm
///     each other (bit-identical to a pipeline's own cache;
///     `server.pricing_shared_hits` proves the sharing).
///   * **Fair scheduling.** The queue is a FairQueue (serve/fair_queue.hpp):
///     per-priority lanes with an aging credit, so a low-priority session's
///     effective priority rises the longer it waits and no session starves
///     under sustained high-priority load (the load-gen bench asserts
///     zero starvation). Rejections carry the queue depth and an estimated
///     wait (EWMA of recent session durations) as retry-after guidance.
///   * **Graceful degradation under overload.** When the queue is full, a
///     submit with strictly higher priority sheds the queued session with
///     the lowest *effective* priority — ties displace the newest entry,
///     so work that has waited longest is the last to go (terminal state
///     `shed`, counted as `server.shed_sessions` and per tenant as
///     `server.shed_by_tenant.<tenant>`) — rather than rejecting important
///     work because of unimportant work.
///   * **Degraded I/O mode.** A failing journal disk (ENOSPC, EIO — real
///     or injected via util/fs_fault.hpp) never wedges the daemon: records
///     buffer in memory, health flips to degraded (stats()), the watchdog
///     retries the flush each sweep, and health returns once writes
///     succeed. Acknowledged sessions are journaled before the accept is
///     sent, so anything the client saw accepted survives a restart.
///   * **Deadlines.** Each session gets a wall-clock budget (its spec's,
///     else the server default) spanning all attempts and backoff sleeps.
///     The budget is enforced twice over: the session's CancelToken is
///     armed per attempt, and a watchdog thread sweeps running sessions to
///     cancel any that outlived their budget.
///   * **Supervised retries.** An attempt that throws is retried after a
///     parked exponential backoff, resuming from the session's latest
///     checkpoint; `max_attempts` failures quarantine the session. A
///     cancel, deadline, or stop during the backoff ends the session
///     without another attempt.
///   * **Crash recovery.** Every lifecycle transition is journaled
///     (serve/session_journal.hpp) and every session checkpoints into its
///     own directory, so a daemon killed at any instant can be restarted:
///     recover() requeues sessions the dead daemon left queued or running,
///     and their resumed runs land on the same state fingerprint as
///     uninterrupted ones.
///
/// Threading: public methods are safe from any thread. One mutex guards
/// all session state; the simulation itself runs outside the lock (pool
/// workers only take it to publish events and state changes).

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/experiment.hpp"
#include "exec/cancel.hpp"
#include "exec/executor.hpp"
#include "redist/pricing_cache.hpp"
#include "serve/fair_queue.hpp"
#include "serve/protocol.hpp"
#include "serve/session.hpp"
#include "serve/session_journal.hpp"
#include "util/metrics.hpp"

namespace stormtrack {

/// Service limits; every bound has a safe default.
struct ServeLimits {
  /// Admitted (running) sessions at once: a bound on live session state,
  /// not a thread count.
  int max_active = 2;
  int max_queued = 8;      ///< Waiting sessions before REJECTED_BUSY.
  int max_attempts = 3;    ///< Attempts before quarantine.
  double backoff_seconds = 0.05;  ///< First retry sleep; doubles after.
  /// Default per-session wall-clock budget; 0 = unlimited. A spec's own
  /// deadline_seconds (when > 0) takes precedence.
  double session_deadline_seconds = 0.0;
  int checkpoint_every = 1;  ///< Checkpoint cadence (intervals).
  int checkpoint_keep = 3;   ///< Checkpoints retained per session.
  double watchdog_period_seconds = 0.05;  ///< Deadline sweep cadence.
  /// Queue-wait seconds per +1 effective priority in the fair queue;
  /// <= 0 disables aging (see serve/fair_queue.hpp).
  double aging_seconds = 0.5;
  /// Workers that advance admitted sessions one adaptation interval per
  /// slice (see the file comment); sessions' pipelines submit their
  /// parallel batches into a shared executor of the same width. 0 = one
  /// worker per max_active slot.
  int pool_threads = 0;
};

class SessionSupervisor {
 public:
  enum class Admission : std::uint8_t {
    kAccepted = 0,
    kRejectedBusy = 1,  ///< Bounds hit and nothing to shed.
    kInvalid = 2,       ///< Spec failed validation; reason says why.
  };

  struct SubmitResult {
    Admission admission = Admission::kRejectedBusy;
    std::uint64_t id = 0;  ///< Valid when accepted.
    std::string reason;    ///< Valid when not accepted.
    int active = 0;        ///< Running sessions at decision time.
    int queued = 0;        ///< Queued sessions at decision time.
    /// Backpressure hint on rejection: expected seconds until a queue
    /// slot opens (EWMA of recent session durations; 0 before any
    /// session has finished).
    double estimated_wait_seconds = 0.0;
  };

  struct RecoveryReport {
    int terminal = 0;  ///< Finished sessions recovered for reporting.
    int requeued = 0;  ///< Queued/running sessions requeued to run again.
  };

  /// What wait_events() hands back.
  struct EventBatch {
    std::vector<SessionEvent> events;  ///< seq >= the requested from_seq.
    bool terminal = false;             ///< Session reached a final state.
    SessionStatus status;
  };

  /// Opens (or creates) the state directory: the lifecycle journal lives
  /// at state_dir/sessions.stjl, per-session checkpoints under
  /// state_dir/sessions/<id>/ck. Replays an existing journal; sessions
  /// the previous daemon left unfinished surface as `interrupted` until
  /// recover() requeues them.
  SessionSupervisor(std::filesystem::path state_dir, ServeLimits limits);
  ~SessionSupervisor();

  SessionSupervisor(const SessionSupervisor&) = delete;
  SessionSupervisor& operator=(const SessionSupervisor&) = delete;

  /// Requeue every session the journal shows as unfinished (call before
  /// start()). Safe on a fresh state directory (reports zeros).
  RecoveryReport recover();

  /// Spawn the pool workers and the watchdog, then admit sessions
  /// recover() requeued. Idempotent.
  void start();

  /// Graceful stop: cancels running sessions (they stop at the next
  /// adaptation point, keeping their checkpoints and journal entries but
  /// receiving *no* terminal journal record — the next daemon's recover()
  /// requeues them exactly as after a crash), drains nothing, joins all
  /// threads. Idempotent.
  void stop();

  /// Admission-controlled submission; see the class comment. Accepted
  /// sessions are journaled before this returns; once start() has run, an
  /// accepted session is admitted at once while a max_active slot is free.
  [[nodiscard]] SubmitResult submit(const SessionSpec& spec);

  /// Cancel a queued or running session (no-op past terminal). Returns
  /// the status as of the request — a running session stops at its next
  /// adaptation point, so the returned state may still be `running`.
  /// Throws CheckError for unknown ids.
  SessionStatus cancel(std::uint64_t id, const std::string& reason);

  /// Throws CheckError for unknown ids.
  [[nodiscard]] SessionStatus status(std::uint64_t id) const;

  /// All sessions, ascending by id.
  [[nodiscard]] std::vector<SessionStatus> list() const;

  /// Block up to \p timeout_seconds for events of session \p id with
  /// seq >= \p from_seq (or for the session to go terminal); returns
  /// whatever is available. Throws CheckError for unknown ids.
  [[nodiscard]] EventBatch wait_events(std::uint64_t id,
                                       std::uint64_t from_seq,
                                       double timeout_seconds) const;

  /// Convenience for tests: block until \p id is terminal.
  [[nodiscard]] SessionStatus wait_terminal(std::uint64_t id) const;

  /// `server.*` counters (submitted, accepted, rejected_busy,
  /// shed_sessions, shed_by_tenant.<tenant>, completed, failed,
  /// quarantined, cancelled, retries, deadline_failures, watchdog_cancels,
  /// recovered_sessions, requeued_sessions, resumes, degraded_transitions,
  /// health_recoveries). Snapshot copy.
  [[nodiscard]] MetricsRegistry metrics() const;

  /// Load, health, and per-tenant accounting snapshot (the kStatsReply
  /// payload).
  [[nodiscard]] ServerStats stats() const;

  /// False while journal records sit buffered in memory because appends
  /// are failing (degraded mode; see the class comment).
  [[nodiscard]] bool healthy() const { return journal_.healthy(); }

  [[nodiscard]] int active_count() const;
  [[nodiscard]] int queued_count() const;
  [[nodiscard]] const std::filesystem::path& state_dir() const {
    return state_dir_;
  }
  /// Effective limits: pool_threads resolved (never 0).
  [[nodiscard]] const ServeLimits& limits() const { return limits_; }

 private:
  /// Why a session's CancelToken tripped (guarded by mutex_);
  /// end_cancelled_locked maps it to the terminal state.
  enum class CancelKind : std::uint8_t {
    kNone = 0,      ///< Token tripped by its own deadline.
    kClient = 1,    ///< cancel() request → `cancelled`.
    kShutdown = 2,  ///< stop() → `interrupted`, no journal record.
  };

  /// A session's live simulation between cooperative slices (machine,
  /// config, checkpointer, CoupledSimulation). Defined in supervisor.cpp.
  struct SessionTask;

  struct Session {
    SessionStatus status;
    std::vector<SessionEvent> events;  ///< events[i].seq == i.
    CancelToken token;
    CancelKind cancel_kind = CancelKind::kNone;
    /// Wall-clock budget end, armed when the session first starts.
    std::chrono::steady_clock::time_point deadline_at{};
    bool deadline_armed = false;
    /// Live simulation state across slices; null when no attempt is in
    /// flight. Touched only by the worker slicing the session (mutex_ not
    /// required) and by stop()'s post-join sweep.
    std::unique_ptr<SessionTask> task;
    /// status.attempts at admission; retry arithmetic is relative to it.
    int start_attempt = 0;
    /// A worker is inside run_slice right now.
    bool slicing = false;
    /// Queued in run_queue_ awaiting its next slice.
    bool queued_runnable = false;
    /// Earliest next slice (retry backoff parks the session here instead
    /// of sleeping a thread; the watchdog promotes it).
    std::chrono::steady_clock::time_point runnable_at{};
    /// Carried across retry slices for the quarantine record.
    std::string last_error;
    /// Summed slice wall time, folded into tenant accounting + the EWMA
    /// when the session goes terminal.
    double task_seconds = 0.0;
  };

  /// Disposition of one cooperative slice.
  enum class SliceOutcome : std::uint8_t {
    kYield = 0,       ///< More intervals remain; requeue for another slice.
    kTerminal = 1,    ///< Session reached a terminal state.
    kRetryLater = 2,  ///< Attempt failed; park until runnable_at.
  };

  void worker_loop();
  void watchdog_loop();
  /// Build the session's simulation for a new attempt (machine, config,
  /// checkpointer, resume-from-checkpoint). \p first_in_process
  /// distinguishes a cross-daemon checkpoint resume (reported as
  /// status.resumed) from an in-process retry resume. Throws
  /// CancelledError / CheckError like the underlying machinery. mutex_
  /// not held.
  [[nodiscard]] std::unique_ptr<SessionTask> build_task(Session& session,
                                                        bool first_in_process);
  /// Advance one adaptation interval and publish its event; false when
  /// every interval is done. mutex_ not held.
  bool step_task(Session& session);
  /// One cooperative slice: first call of an attempt builds the task,
  /// later calls advance one interval; maps exceptions to terminal states
  /// or a parked retry. mutex_ not held.
  [[nodiscard]] SliceOutcome run_slice(Session& session);
  /// Queue a running session for its next slice (no-op when it is already
  /// queued or mid-slice). mutex_ held.
  void promote_locked(Session& session);
  /// Move queued sessions into the run queue while fewer than max_active
  /// are live; no-op before start() and once stopping. mutex_ held.
  void admit_locked();
  /// Terminal state of a session whose token tripped, by cancel_kind:
  /// client → cancelled, deadline → failed, shutdown → interrupted (no
  /// journal record). \p what is the CancelledError text; \p in_backoff
  /// means the token tripped while the session sat out a retry backoff,
  /// which reports its own text (the deadline one carries last_error).
  /// mutex_ held.
  void end_cancelled_locked(Session& session, const std::string& what,
                            bool in_backoff);

  [[nodiscard]] std::filesystem::path checkpoint_dir(std::uint64_t id) const;
  void bump_locked(std::string_view counter, std::int64_t amount = 1);
  /// EWMA duration scaled by the queue ahead of a hypothetical new entry.
  /// mutex_ held.
  [[nodiscard]] double estimated_wait_locked() const;
  /// Fold a finished session's slice time into the tenant account and the
  /// EWMA duration estimate. mutex_ held.
  void account_session_time_locked(const std::string& tenant,
                                   double seconds);

  std::filesystem::path state_dir_;
  ServeLimits limits_;
  const ModelStack models_;  ///< Shared, const — thread-safe memo inside.
  /// Shared executor every session submits into. Constructed before any
  /// session and outlives them all.
  std::unique_ptr<ThreadPoolExecutor> pool_;
  /// Cross-session pricing cache (scoped by machine fingerprint); wired
  /// into every session. Internally synchronized — not guarded by mutex_.
  PricingCache pricing_;

  mutable std::mutex mutex_;
  /// Signals workers only (run queue/stop). The watchdog sleeps on its own
  /// condition variable so a promotion's notify_one always wakes a worker.
  mutable std::condition_variable work_cv_;
  /// Signals event waiters (events/terminal).
  mutable std::condition_variable events_cv_;
  /// Paces the watchdog sweep; notified only by stop().
  mutable std::condition_variable watchdog_cv_;
  std::map<std::uint64_t, std::unique_ptr<Session>> sessions_;
  /// Queued session ids: per-priority lanes with aging (class comment).
  FairQueue queue_;
  /// Admitted sessions awaiting their next slice, round-robin (a yielded
  /// session goes to the back, so no session starves).
  std::deque<std::uint64_t> run_queue_;
  /// Admitted sessions not yet through a worker's terminal path — the
  /// admission bound max_active compares against this.
  int live_sessions_ = 0;
  std::uint64_t next_id_ = 1;
  bool stopping_ = false;
  bool started_ = false;
  MetricsRegistry metrics_;
  /// Per-tenant accounting (key = SessionSpec::tenant, "" = default).
  std::map<std::string, TenantStats> tenants_;
  /// EWMA of slice seconds per session; 0 until the first session
  /// finishes. Drives estimated_wait_seconds.
  double ewma_session_seconds_ = 0.0;
  /// Last health observed by the watchdog, for transition counters.
  bool was_healthy_ = true;

  SessionJournal journal_;
  std::vector<std::thread> workers_;
  std::thread watchdog_;
};

}  // namespace stormtrack
