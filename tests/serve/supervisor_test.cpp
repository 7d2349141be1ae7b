#include "serve/supervisor.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <thread>

#include "ckpt/checkpoint.hpp"
#include "core/coupled.hpp"
#include "core/experiment.hpp"
#include "core/machine.hpp"
#include "util/check.hpp"

namespace stormtrack {
namespace {

namespace fs = std::filesystem;
using Admission = SessionSupervisor::Admission;

class SupervisorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("st_super_" + std::string(::testing::UnitTest::GetInstance()
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

  /// Poll until \p id reports at least \p intervals completed.
  static void wait_progress(const SessionSupervisor& supervisor,
                            std::uint64_t id, int intervals) {
    while (supervisor.status(id).intervals_done < intervals) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  fs::path dir_;
};

TEST_F(SupervisorTest, RunsSessionsToDoneWithTheRealPipelineFingerprint) {
  ServeLimits limits;
  limits.max_active = 2;
  SessionSupervisor supervisor(dir_, limits);
  supervisor.start();

  const auto first = supervisor.submit(quick_spec(3, 11));
  const auto second = supervisor.submit(quick_spec(3, 22));
  ASSERT_EQ(first.admission, Admission::kAccepted);
  ASSERT_EQ(second.admission, Admission::kAccepted);
  EXPECT_EQ(first.id, 1u);
  EXPECT_EQ(second.id, 2u);

  const SessionStatus a = supervisor.wait_terminal(first.id);
  const SessionStatus b = supervisor.wait_terminal(second.id);
  EXPECT_EQ(a.state, SessionState::kDone);
  EXPECT_EQ(b.state, SessionState::kDone);
  EXPECT_EQ(a.intervals_done, 3);
  EXPECT_EQ(a.attempts, 1);
  EXPECT_NE(a.fingerprint, 0u);
  EXPECT_NE(a.fingerprint, b.fingerprint);  // different seeds, states

  // The supervisor's result is pinned to the library run it claims to
  // be: an inline CoupledSimulation under the same spec must land on the
  // same fingerprint.
  const SessionSpec spec = quick_spec(3, 11);
  Machine machine = Machine::by_name(spec.machine, spec.cores);
  const ModelStack models;
  CoupledConfig cfg;
  cfg.scenario.num_intervals = spec.intervals;
  cfg.scenario.seed = spec.seed;
  cfg.manager.strategy = spec.strategy;
  cfg.workload = spec.workload;
  CoupledSimulation sim(machine, models.model, models.truth, cfg);
  for (int i = 0; i < spec.intervals; ++i) (void)sim.advance();
  EXPECT_EQ(a.fingerprint, sim.state_fingerprint());

  EXPECT_EQ(supervisor.metrics().get("server.completed").count, 2);
  supervisor.stop();
}

TEST_F(SupervisorTest, StreamsEventsInOrder) {
  SessionSupervisor supervisor(dir_, ServeLimits{});
  supervisor.start();
  const auto submit = supervisor.submit(quick_spec(4));
  ASSERT_EQ(submit.admission, Admission::kAccepted);

  std::uint64_t seq = 0;
  std::vector<SessionEvent> events;
  while (true) {
    const auto batch = supervisor.wait_events(submit.id, seq, 1.0);
    for (const SessionEvent& event : batch.events) {
      events.push_back(event);
      seq = event.seq + 1;
    }
    if (batch.terminal) break;
  }
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, i);
    EXPECT_EQ(events[i].interval, static_cast<int>(i));
    EXPECT_FALSE(events[i].chosen.empty());
  }
  supervisor.stop();
}

TEST_F(SupervisorTest, AdmissionBoundsQueueAndRejectsBusy) {
  ServeLimits limits;
  limits.max_active = 1;
  limits.max_queued = 2;
  SessionSupervisor supervisor(dir_, limits);
  // Deliberately not started: nothing drains the queue, so the bounds
  // are exact and deterministic.
  EXPECT_EQ(supervisor.submit(quick_spec(2)).admission, Admission::kAccepted);
  EXPECT_EQ(supervisor.submit(quick_spec(2)).admission, Admission::kAccepted);

  const auto third = supervisor.submit(quick_spec(2));
  EXPECT_EQ(third.admission, Admission::kRejectedBusy);
  EXPECT_EQ(third.queued, 2);
  EXPECT_NE(third.reason.find("at capacity"), std::string::npos);

  // A misbehaving client hammering submit never grows state: every extra
  // submission bounces and the queue stays at its bound.
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(supervisor.submit(quick_spec(2)).admission,
              Admission::kRejectedBusy);
  }
  EXPECT_EQ(supervisor.queued_count(), 2);
  EXPECT_EQ(supervisor.metrics().get("server.rejected_busy").count, 51);
  EXPECT_EQ(supervisor.list().size(), 2u);
}

TEST_F(SupervisorTest, HigherPrioritySubmitShedsTheLowestQueued) {
  ServeLimits limits;
  limits.max_active = 1;
  limits.max_queued = 2;
  SessionSupervisor supervisor(dir_, limits);

  SessionSpec low = quick_spec(2);
  low.priority = 1;
  SessionSpec lower = quick_spec(2);
  lower.priority = 0;
  const auto first = supervisor.submit(low);
  const auto second = supervisor.submit(lower);

  SessionSpec urgent = quick_spec(2);
  urgent.priority = 7;
  const auto third = supervisor.submit(urgent);
  ASSERT_EQ(third.admission, Admission::kAccepted);

  // The priority-0 session was shed; the queue is still at its bound.
  EXPECT_EQ(supervisor.status(second.id).state, SessionState::kShed);
  EXPECT_EQ(supervisor.status(first.id).state, SessionState::kQueued);
  EXPECT_EQ(supervisor.queued_count(), 2);
  EXPECT_EQ(supervisor.metrics().get("server.shed_sessions").count, 1);

  // Equal priority does not shed: shedding only ever trades up.
  SessionSpec equal = quick_spec(2);
  equal.priority = 1;
  EXPECT_EQ(supervisor.submit(equal).admission, Admission::kRejectedBusy);
}

TEST_F(SupervisorTest, InvalidSpecsNeverReachTheQueue) {
  SessionSupervisor supervisor(dir_, ServeLimits{});
  SessionSpec bad = quick_spec(2);
  bad.machine = "myrinet";
  bad.intervals = 0;
  const auto result = supervisor.submit(bad);
  EXPECT_EQ(result.admission, Admission::kInvalid);
  EXPECT_NE(result.reason.find("myrinet"), std::string::npos);
  EXPECT_NE(result.reason.find("intervals"), std::string::npos);
  EXPECT_EQ(supervisor.queued_count(), 0);
  EXPECT_TRUE(supervisor.list().empty());
}

TEST_F(SupervisorTest, CancelQueuedAndRunningSessions) {
  ServeLimits limits;
  limits.max_active = 1;
  SessionSupervisor supervisor(dir_, limits);
  supervisor.start();

  const auto running = supervisor.submit(quick_spec(10000));
  ASSERT_EQ(running.admission, Admission::kAccepted);
  const auto queued = supervisor.submit(quick_spec(5));
  ASSERT_EQ(queued.admission, Admission::kAccepted);

  // Cancelling the queued session is immediate.
  const SessionStatus queued_status =
      supervisor.cancel(queued.id, "not needed");
  EXPECT_EQ(queued_status.state, SessionState::kCancelled);
  EXPECT_EQ(queued_status.error, "not needed");

  // Cancelling the running one lands at the next adaptation point.
  wait_progress(supervisor, running.id, 1);
  (void)supervisor.cancel(running.id, "stop please");
  const SessionStatus final_status = supervisor.wait_terminal(running.id);
  EXPECT_EQ(final_status.state, SessionState::kCancelled);
  EXPECT_NE(final_status.error.find("stop please"), std::string::npos);
  EXPECT_LT(final_status.intervals_done, 10000);
  EXPECT_EQ(supervisor.metrics().get("server.cancelled").count, 2);

  EXPECT_THROW((void)supervisor.cancel(999, "x"), CheckError);
  supervisor.stop();
}

TEST_F(SupervisorTest, DeadlineFailsTheSessionPromptly) {
  ServeLimits limits;
  limits.session_deadline_seconds = 0.2;
  limits.watchdog_period_seconds = 0.02;
  SessionSupervisor supervisor(dir_, limits);
  supervisor.start();

  const auto submit = supervisor.submit(quick_spec(100000));
  ASSERT_EQ(submit.admission, Admission::kAccepted);
  const auto start = std::chrono::steady_clock::now();
  const SessionStatus status = supervisor.wait_terminal(submit.id);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_EQ(status.state, SessionState::kFailed);
  EXPECT_NE(status.error.find("deadline"), std::string::npos);
  EXPECT_LT(elapsed, 10.0);  // generous for sanitizer builds
  EXPECT_EQ(supervisor.metrics().get("server.deadline_failures").count, 1);
  supervisor.stop();
}

TEST_F(SupervisorTest, RepeatedFailuresQuarantineAfterRetries) {
  ServeLimits limits;
  limits.max_attempts = 2;
  limits.backoff_seconds = 0.001;
  SessionSupervisor supervisor(dir_, limits);
  supervisor.start();

  const auto submit = supervisor.submit(doomed_spec());
  ASSERT_EQ(submit.admission, Admission::kAccepted);
  const SessionStatus status = supervisor.wait_terminal(submit.id);
  EXPECT_EQ(status.state, SessionState::kQuarantined);
  EXPECT_EQ(status.attempts, 2);
  EXPECT_FALSE(status.error.empty());
  EXPECT_EQ(supervisor.metrics().get("server.retries").count, 1);
  EXPECT_EQ(supervisor.metrics().get("server.quarantined").count, 1);
  supervisor.stop();
}

TEST_F(SupervisorTest, DeadlineDuringBackoffCancelsTheSleepPromptly) {
  ServeLimits limits;
  limits.max_attempts = 3;
  limits.backoff_seconds = 30.0;  // would dwarf the deadline if slept out
  limits.session_deadline_seconds = 0.3;
  limits.watchdog_period_seconds = 0.02;
  SessionSupervisor supervisor(dir_, limits);
  supervisor.start();

  const auto submit = supervisor.submit(doomed_spec());
  ASSERT_EQ(submit.admission, Admission::kAccepted);
  const auto start = std::chrono::steady_clock::now();
  const SessionStatus status = supervisor.wait_terminal(submit.id);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_EQ(status.state, SessionState::kFailed);
  EXPECT_NE(status.error.find("deadline expired during retry backoff"),
            std::string::npos)
      << status.error;
  // The parked session keeps the failure that sent it into backoff.
  EXPECT_NE(status.error.find("(last error: "), std::string::npos)
      << status.error;
  EXPECT_EQ(status.attempts, 1);  // no attempt starts after the deadline
  // The 30 s backoff must have been interrupted by the 0.3 s budget, not
  // slept to completion.
  EXPECT_LT(elapsed, 10.0);
  EXPECT_EQ(supervisor.metrics().get("server.deadline_failures").count, 1);
  supervisor.stop();
}

TEST_F(SupervisorTest, SubmitWakesALaneEvenWithTheWatchdogParked) {
  ServeLimits limits;
  limits.max_active = 1;
  // Park the watchdog in an hour-long sleep. A submit emits exactly one
  // notification, which must reach the single worker — the watchdog
  // sleeps on its own condition variable and cannot swallow it. Before the
  // split this hung ~half the time; run a few rounds so a regression is
  // loud.
  limits.watchdog_period_seconds = 3600.0;
  SessionSupervisor supervisor(dir_, limits);
  supervisor.start();

  for (int round = 0; round < 4; ++round) {
    const auto submit =
        supervisor.submit(quick_spec(1, 100 + static_cast<std::uint64_t>(round)));
    ASSERT_EQ(submit.admission, Admission::kAccepted);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!is_terminal(supervisor.status(submit.id).state)) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "no worker woke for session " << submit.id
          << " — the submit notification was lost";
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_EQ(supervisor.status(submit.id).state, SessionState::kDone);
  }
  // stop() must also wake the parked watchdog promptly.
  const auto stop_start = std::chrono::steady_clock::now();
  supervisor.stop();
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          stop_start)
                .count(),
            10.0);
}

TEST_F(SupervisorTest, StopLeavesRunningSessionsInterruptedWithoutTerminalRecord) {
  ServeLimits limits;
  limits.max_active = 1;
  SessionSupervisor supervisor(dir_, limits);
  supervisor.start();
  const auto submit = supervisor.submit(quick_spec(10000));
  ASSERT_EQ(submit.admission, Admission::kAccepted);
  wait_progress(supervisor, submit.id, 1);
  supervisor.stop();
  EXPECT_EQ(supervisor.status(submit.id).state, SessionState::kInterrupted);

  // The journal confirms the absence of a terminal record: replaying it
  // shows the session still running — exactly what crash recovery keys on.
  SessionJournal journal(dir_ / "sessions.stjl", true);
  EXPECT_EQ(journal.replayed().at(submit.id).state, SessionState::kRunning);
}

}  // namespace
}  // namespace stormtrack
