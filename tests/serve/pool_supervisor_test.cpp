/// Cooperative pool scheduling, the supervisor's only model: sessions are
/// tasks that yield at adaptation points, max_active is an admission bound
/// rather than a thread count, a submit takes a free slot at once, results
/// stay byte-identical to serial execution on any pool width, retries park
/// instead of sleeping a thread (and a cancel or stop during the backoff
/// ends the session without another attempt), and the cross-session
/// pricing cache proves its sharing.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/coupled.hpp"
#include "core/experiment.hpp"
#include "core/machine.hpp"
#include "serve/session_journal.hpp"
#include "serve/supervisor.hpp"

namespace stormtrack {
namespace {

namespace fs = std::filesystem;
using Admission = SessionSupervisor::Admission;

class PoolSupervisorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("st_pool_" + std::string(::testing::UnitTest::GetInstance()
                                         ->current_test_info()
                                         ->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  static SessionSpec quick_spec(int intervals, std::uint64_t seed = 11) {
    SessionSpec spec;
    spec.cores = 256;
    spec.intervals = intervals;
    spec.seed = seed;
    return spec;
  }

  /// Spec that fails at every attempt: dragonfly rejects a core count
  /// that does not fit its group structure, and the supervisor only
  /// validates names at admission.
  static SessionSpec doomed_spec() {
    SessionSpec spec;
    spec.machine = "dragonfly";
    spec.cores = 100;
    spec.intervals = 3;
    return spec;
  }

  static ServeLimits pool_limits(int pool_threads, int max_active) {
    ServeLimits limits;
    limits.pool_threads = pool_threads;
    limits.max_active = max_active;
    limits.max_queued = 64;
    limits.watchdog_period_seconds = 0.005;
    return limits;
  }

  /// The library-level reference run: fingerprint of \p spec executed
  /// inline, serially, with no caches shared with anything.
  static std::uint64_t serial_fingerprint(const SessionSpec& spec) {
    Machine machine = Machine::by_name(spec.machine, spec.cores);
    const ModelStack models;
    CoupledConfig cfg;
    cfg.scenario.num_intervals = spec.intervals;
    cfg.scenario.seed = spec.seed;
    cfg.manager.strategy = spec.strategy;
    cfg.workload = spec.workload;
    CoupledSimulation sim(machine, models.model, models.truth, cfg);
    for (int i = 0; i < spec.intervals; ++i) (void)sim.advance();
    return sim.state_fingerprint();
  }

  /// Poll until \p supervisor has \p parked sessions sitting out a retry
  /// backoff.
  static void wait_parked(const SessionSupervisor& supervisor,
                          std::uint64_t parked) {
    while (supervisor.stats().pool_delayed < parked) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  /// Poll until \p id reports at least \p intervals completed.
  static void wait_progress(const SessionSupervisor& supervisor,
                            std::uint64_t id, int intervals) {
    while (supervisor.status(id).intervals_done < intervals) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  fs::path dir_;
};

TEST_F(PoolSupervisorTest, FingerprintsMatchSerialOnEveryPoolWidth) {
  // The cooperative-yield determinism suite: the same three sessions land
  // on the same per-session fingerprints whether they run inline (serial
  // reference) or multiplex onto 1, 2, or 8 pool threads.
  const std::vector<SessionSpec> specs = {quick_spec(3, 11), quick_spec(3, 22),
                                          quick_spec(2, 33)};
  std::vector<std::uint64_t> reference;
  reference.reserve(specs.size());
  for (const SessionSpec& spec : specs) {
    reference.push_back(serial_fingerprint(spec));
  }

  for (const int width : {1, 2, 8}) {
    SessionSupervisor supervisor(
        dir_ / ("w" + std::to_string(width)), pool_limits(width, 8));
    supervisor.start();
    std::vector<std::uint64_t> ids;
    ids.reserve(specs.size());
    for (const SessionSpec& spec : specs) {
      const auto submit = supervisor.submit(spec);
      ASSERT_EQ(submit.admission, Admission::kAccepted);
      ids.push_back(submit.id);
    }
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const SessionStatus status = supervisor.wait_terminal(ids[i]);
      EXPECT_EQ(status.state, SessionState::kDone);
      EXPECT_EQ(status.fingerprint, reference[i])
          << "pool width " << width << ", session " << i;
      EXPECT_EQ(status.attempts, 1);
    }
    supervisor.stop();
  }
}

TEST_F(PoolSupervisorTest, MaxActiveIsAnAdmissionBoundNotAThreadCount) {
  // Twelve sessions live at once on a single worker thread: a thread per
  // session would need twelve. Round-robin slicing keeps all twelve active
  // until the first one finishes, so the all-admitted snapshot is
  // guaranteed to be observable.
  SessionSupervisor supervisor(dir_, pool_limits(1, 12));
  supervisor.start();

  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 12; ++i) {
    const auto submit = supervisor.submit(quick_spec(4, 100 + i));
    ASSERT_EQ(submit.admission, Admission::kAccepted) << submit.reason;
    ids.push_back(submit.id);
  }
  while (true) {
    const ServerStats snapshot = supervisor.stats();
    if (snapshot.active == 12) {
      EXPECT_EQ(snapshot.queued, 0u);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (const std::uint64_t id : ids) {
    EXPECT_EQ(supervisor.wait_terminal(id).state, SessionState::kDone);
  }
  EXPECT_EQ(supervisor.metrics().get("server.completed").count, 12);
  const ServerStats stats = supervisor.stats();
  EXPECT_EQ(stats.pool_threads, 1u);
  EXPECT_GT(stats.pool_batches, 0u);
  supervisor.stop();
}

TEST_F(PoolSupervisorTest, SessionsInterleaveOnOneWorker) {
  // Round-robin slicing: with one worker, a second session makes progress
  // long before the first (6 intervals) finishes — a thread per session
  // would serialize them whole.
  SessionSupervisor supervisor(dir_, pool_limits(1, 4));
  supervisor.start();
  const auto first = supervisor.submit(quick_spec(6, 11));
  const auto second = supervisor.submit(quick_spec(6, 22));
  ASSERT_EQ(first.admission, Admission::kAccepted);
  ASSERT_EQ(second.admission, Admission::kAccepted);

  wait_progress(supervisor, second.id, 1);
  const SessionStatus status = supervisor.status(first.id);
  EXPECT_EQ(status.state, SessionState::kRunning);
  EXPECT_LT(status.intervals_done, 6);

  EXPECT_EQ(supervisor.wait_terminal(first.id).state, SessionState::kDone);
  EXPECT_EQ(supervisor.wait_terminal(second.id).state, SessionState::kDone);
  supervisor.stop();
}

TEST_F(PoolSupervisorTest, SharedPricingCacheWarmsAcrossSessions) {
  // Two identical sessions on the same machine model: the second prices
  // its candidates out of the first one's cache entries. The hit counter
  // is the proof of sharing; the fingerprint equality is the proof that
  // sharing changed nothing.
  SessionSupervisor supervisor(dir_, pool_limits(2, 4));
  supervisor.start();
  const auto first = supervisor.submit(quick_spec(3, 11));
  const auto second = supervisor.submit(quick_spec(3, 11));
  ASSERT_EQ(first.admission, Admission::kAccepted);
  ASSERT_EQ(second.admission, Admission::kAccepted);
  const SessionStatus a = supervisor.wait_terminal(first.id);
  const SessionStatus b = supervisor.wait_terminal(second.id);
  EXPECT_EQ(a.state, SessionState::kDone);
  EXPECT_EQ(b.state, SessionState::kDone);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.fingerprint, serial_fingerprint(quick_spec(3, 11)));

  EXPECT_GT(supervisor.metrics().get("server.pricing_shared_hits").count, 0);
  const ServerStats stats = supervisor.stats();
  EXPECT_GT(stats.pricing_shared_hits, 0u);
  EXPECT_GT(stats.pricing_shared_misses, 0u);
  EXPECT_GT(stats.pricing_shared_hit_rate(), 0.0);
  supervisor.stop();
}

TEST_F(PoolSupervisorTest, DefaultPoolWidthIsOneWorkerPerAdmissionSlot) {
  ServeLimits limits;
  limits.max_active = 3;
  ASSERT_EQ(limits.pool_threads, 0);
  SessionSupervisor supervisor(dir_, limits);
  EXPECT_EQ(supervisor.limits().pool_threads, 3);
  EXPECT_EQ(supervisor.stats().pool_threads, 3u);
}

TEST_F(PoolSupervisorTest, SubmitAdmitsAtOnceWhileASlotIsFree) {
  // An hour-long watchdog period rules out any background admission: the
  // submit itself must move the session out of the queue.
  ServeLimits limits = pool_limits(1, 2);
  limits.watchdog_period_seconds = 3600.0;
  SessionSupervisor supervisor(dir_, limits);
  supervisor.start();

  const auto first = supervisor.submit(quick_spec(100000, 11));
  const auto second = supervisor.submit(quick_spec(100000, 22));
  ASSERT_EQ(first.admission, Admission::kAccepted);
  ASSERT_EQ(second.admission, Admission::kAccepted);
  EXPECT_EQ(first.queued, 0);
  EXPECT_EQ(second.queued, 0);
  EXPECT_EQ(supervisor.status(first.id).state, SessionState::kRunning);
  EXPECT_EQ(supervisor.status(second.id).state, SessionState::kRunning);

  // Both slots taken: the third waits in the queue.
  const auto third = supervisor.submit(quick_spec(1, 33));
  ASSERT_EQ(third.admission, Admission::kAccepted);
  EXPECT_EQ(third.queued, 1);
  EXPECT_EQ(supervisor.status(third.id).state, SessionState::kQueued);

  // A session's terminal path hands its slot to the queue.
  (void)supervisor.cancel(first.id, "make way");
  EXPECT_EQ(supervisor.wait_terminal(third.id).state, SessionState::kDone);
  (void)supervisor.cancel(second.id, "done");
  EXPECT_EQ(supervisor.wait_terminal(second.id).state,
            SessionState::kCancelled);
  supervisor.stop();
}

TEST_F(PoolSupervisorTest, RetriesParkAndQuarantineWithoutALaneThread) {
  ServeLimits limits = pool_limits(1, 4);
  limits.max_attempts = 2;
  limits.backoff_seconds = 0.001;
  SessionSupervisor supervisor(dir_, limits);
  supervisor.start();
  const auto doomed = supervisor.submit(doomed_spec());
  const auto healthy = supervisor.submit(quick_spec(2, 11));
  ASSERT_EQ(doomed.admission, Admission::kAccepted);
  ASSERT_EQ(healthy.admission, Admission::kAccepted);

  const SessionStatus bad = supervisor.wait_terminal(doomed.id);
  EXPECT_EQ(bad.state, SessionState::kQuarantined);
  EXPECT_EQ(bad.attempts, 2);
  EXPECT_FALSE(bad.error.empty());
  // The only worker kept serving the healthy session while the doomed
  // one sat out its parked backoff.
  EXPECT_EQ(supervisor.wait_terminal(healthy.id).state, SessionState::kDone);
  EXPECT_EQ(supervisor.metrics().get("server.retries").count, 1);
  EXPECT_EQ(supervisor.metrics().get("server.quarantined").count, 1);
  supervisor.stop();
}

TEST_F(PoolSupervisorTest, CancelDuringRetryBackoffEndsWithoutAnotherAttempt) {
  ServeLimits limits = pool_limits(1, 4);
  limits.max_attempts = 3;
  limits.backoff_seconds = 30.0;  // parked far longer than the test runs
  SessionSupervisor supervisor(dir_, limits);
  supervisor.start();
  const auto doomed = supervisor.submit(doomed_spec());
  ASSERT_EQ(doomed.admission, Admission::kAccepted);
  wait_parked(supervisor, 1);

  (void)supervisor.cancel(doomed.id, "operator asked");
  const SessionStatus status = supervisor.wait_terminal(doomed.id);
  EXPECT_EQ(status.state, SessionState::kCancelled);
  EXPECT_EQ(status.error, "cancelled during retry backoff");
  EXPECT_EQ(status.attempts, 1);
  EXPECT_EQ(supervisor.metrics().get("server.cancelled").count, 1);
  supervisor.stop();

  SessionJournal journal(dir_ / "sessions.stjl", true);
  EXPECT_EQ(journal.replayed().at(doomed.id).state, SessionState::kCancelled);
}

TEST_F(PoolSupervisorTest, StopDuringRetryBackoffInterruptsWithoutARecord) {
  ServeLimits limits = pool_limits(1, 4);
  limits.max_attempts = 3;
  limits.backoff_seconds = 30.0;
  SessionSupervisor supervisor(dir_, limits);
  supervisor.start();
  const auto doomed = supervisor.submit(doomed_spec());
  ASSERT_EQ(doomed.admission, Admission::kAccepted);
  wait_parked(supervisor, 1);

  supervisor.stop();
  const SessionStatus status = supervisor.status(doomed.id);
  EXPECT_EQ(status.state, SessionState::kInterrupted);
  EXPECT_EQ(status.attempts, 1);
  // No terminal record: the next daemon's recover() requeues it.
  SessionJournal journal(dir_ / "sessions.stjl", true);
  EXPECT_EQ(journal.replayed().at(doomed.id).state, SessionState::kRunning);
}

TEST_F(PoolSupervisorTest, ClientCancelStopsAParkedOrRunningSession) {
  SessionSupervisor supervisor(dir_, pool_limits(1, 4));
  supervisor.start();
  const auto submit = supervisor.submit(quick_spec(50, 11));
  ASSERT_EQ(submit.admission, Admission::kAccepted);
  wait_progress(supervisor, submit.id, 1);
  (void)supervisor.cancel(submit.id, "operator asked");
  const SessionStatus status = supervisor.wait_terminal(submit.id);
  EXPECT_EQ(status.state, SessionState::kCancelled);
  EXPECT_LT(status.intervals_done, 50);
  EXPECT_EQ(supervisor.metrics().get("server.cancelled").count, 1);
  supervisor.stop();
}

TEST_F(PoolSupervisorTest, GracefulStopInterruptsAndRecoveryResumesExactly) {
  const SessionSpec spec = quick_spec(6, 11);
  std::uint64_t id = 0;
  {
    SessionSupervisor supervisor(dir_, pool_limits(2, 4));
    supervisor.start();
    const auto submit = supervisor.submit(spec);
    ASSERT_EQ(submit.admission, Admission::kAccepted);
    id = submit.id;
    wait_progress(supervisor, id, 2);
    supervisor.stop();
    const SessionStatus interrupted = supervisor.status(id);
    // Usually interrupted mid-run; done is possible if the last slice
    // finished before stop() swept it.
    EXPECT_TRUE(interrupted.state == SessionState::kInterrupted ||
                interrupted.state == SessionState::kDone);
  }
  SessionSupervisor supervisor(dir_, pool_limits(2, 4));
  const auto report = supervisor.recover();
  EXPECT_GE(report.requeued + report.terminal, 1);
  supervisor.start();
  const SessionStatus resumed = supervisor.wait_terminal(id);
  EXPECT_EQ(resumed.state, SessionState::kDone);
  EXPECT_EQ(resumed.intervals_done, 6);
  EXPECT_EQ(resumed.fingerprint, serial_fingerprint(spec));
  supervisor.stop();
}

TEST_F(PoolSupervisorTest, StatsAccountEveryAdmittedSessionExactlyOnce) {
  SessionSupervisor supervisor(dir_, pool_limits(2, 6));
  supervisor.start();
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 6; ++i) {
    const auto submit = supervisor.submit(quick_spec(4, 200 + i));
    ASSERT_EQ(submit.admission, Admission::kAccepted);
    ids.push_back(submit.id);
  }
  // While sessions run, every admitted session is in exactly one of the
  // three pool states (executing / runnable / parked); the sum is the
  // active count in the same locked snapshot.
  for (int probe = 0; probe < 20; ++probe) {
    const ServerStats stats = supervisor.stats();
    EXPECT_EQ(stats.pool_executing + stats.pool_runnable + stats.pool_delayed,
              stats.active);
    if (stats.active == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  for (const std::uint64_t id : ids) {
    EXPECT_EQ(supervisor.wait_terminal(id).state, SessionState::kDone);
  }
  const ServerStats stats = supervisor.stats();
  EXPECT_EQ(stats.pool_threads, 2u);
  EXPECT_EQ(stats.pool_executing + stats.pool_runnable + stats.pool_delayed,
            0u);
  supervisor.stop();
}

TEST_F(PoolSupervisorTest, FairQueueAgingStillFeedsThePoolWithoutStarvation) {
  // One admission slot, held by a running blocker, so the priority-0
  // victim really waits in the fair queue: first behind queued priority-9
  // work, then against a stream of priority-9 submissions for every slot
  // that frees up. Aging credit must pull the victim through the fair
  // queue into the pool before the stream ends.
  ServeLimits limits = pool_limits(1, 1);
  limits.max_queued = 4;
  limits.aging_seconds = 0.005;  // 9 levels of credit in 45 ms of waiting
  SessionSupervisor supervisor(dir_, limits);
  supervisor.start();

  // Admitted inside submit(): the slot is taken before the victim exists,
  // and the blocker holds it until it is cancelled below.
  const auto blocker = supervisor.submit(quick_spec(100000, 5));
  ASSERT_EQ(blocker.admission, Admission::kAccepted);
  ASSERT_EQ(blocker.queued, 0);

  SessionSpec victim = quick_spec(1, 7);
  victim.priority = 0;
  const auto victim_submit = supervisor.submit(victim);
  ASSERT_EQ(victim_submit.admission, Admission::kAccepted);
  ASSERT_EQ(victim_submit.queued, 1);

  int victim_done_at = -1;
  constexpr int kStream = 30;
  for (int i = 0; i < kStream; ++i) {
    SessionSpec noisy = quick_spec(2, 1000 + static_cast<std::uint64_t>(i));
    noisy.priority = 9;
    // Never submit into a full queue: that sheds the victim outright,
    // which is overload behaviour, not the starvation question. Only this
    // thread submits, so the check cannot race into a shed.
    while (supervisor.queued_count() >= limits.max_queued) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const auto submit = supervisor.submit(noisy);
    ASSERT_EQ(submit.admission, Admission::kAccepted) << submit.reason;
    if (submit.queued == limits.max_queued) {
      // The victim is queued behind three priority-9 sessions: free the
      // slot (once; later cancels of a terminal blocker are no-ops).
      (void)supervisor.cancel(blocker.id, "make way");
    }
    if (victim_done_at < 0 &&
        is_terminal(supervisor.status(victim_submit.id).state)) {
      victim_done_at = i;
    }
  }
  EXPECT_EQ(supervisor.wait_terminal(blocker.id).state,
            SessionState::kCancelled);
  const SessionStatus victim_status =
      supervisor.wait_terminal(victim_submit.id);
  EXPECT_EQ(victim_status.state, SessionState::kDone);
  // Starvation would mean the victim only ran once the stream drained;
  // aging must have promoted it while high-priority work kept arriving.
  EXPECT_GE(victim_done_at, 0) << "victim did not finish during the stream";
  supervisor.stop();
}

}  // namespace
}  // namespace stormtrack
