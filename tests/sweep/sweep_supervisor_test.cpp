#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <vector>

#include "sweep/sweep_journal.hpp"
#include "sweep/sweep_runner.hpp"
#include "exec/cancel.hpp"
#include "exec/executor.hpp"
#include "util/check.hpp"

namespace stormtrack {
namespace {

namespace fs = std::filesystem;

class SweepSupervisorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("st_supervisor_" + std::string(::testing::UnitTest::GetInstance()
                                               ->current_test_info()
                                               ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// 2 traces x 1 machine x 2 strategies = 4 cases, serial for determinism.
  SweepSpec grid() const {
    SweepSpec spec;
    SyntheticTraceConfig a;
    a.num_events = 4;
    a.seed = 3;
    SyntheticTraceConfig b;
    b.num_events = 6;
    b.seed = 8;
    spec.traces.push_back({"a", generate_synthetic_trace(a)});
    spec.traces.push_back({"b", generate_synthetic_trace(b)});
    spec.machines.push_back(sweep_bluegene(256));
    spec.strategies = {"scratch", "diffusion"};
    spec.threads = 1;
    return spec;
  }

  ModelStack models_;
  fs::path dir_;
};

void expect_same_result(const SweepCaseResult& got,
                        const SweepCaseResult& want) {
  EXPECT_EQ(got.trace_name, want.trace_name);
  EXPECT_EQ(got.strategy, want.strategy);
  ASSERT_EQ(got.result.outcomes.size(), want.result.outcomes.size());
  EXPECT_EQ(got.result.total_exec(), want.result.total_exec());
  EXPECT_EQ(got.result.total_redist(), want.result.total_redist());
  EXPECT_EQ(got.result.total_hop_bytes(), want.result.total_hop_bytes());
  EXPECT_EQ(got.result.final_state_fingerprint,
            want.result.final_state_fingerprint);
  for (std::size_t e = 0; e < want.result.outcomes.size(); ++e) {
    EXPECT_EQ(got.result.outcomes[e].chosen, want.result.outcomes[e].chosen);
    EXPECT_EQ(got.result.outcomes[e].allocation.rects(),
              want.result.outcomes[e].allocation.rects());
  }
}

TEST_F(SweepSupervisorTest, CleanGridMatchesPlainRunExactly) {
  const SweepRunner runner(models_);
  const SweepSpec spec = grid();
  const std::vector<SweepCaseResult> plain = runner.run(spec);
  const SweepRunReport report = runner.run_supervised(spec);

  ASSERT_EQ(report.results.size(), plain.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    SCOPED_TRACE("case " + std::to_string(i));
    EXPECT_EQ(report.results[i].status, SweepCaseStatus::kOk);
    EXPECT_EQ(report.results[i].attempts, 1);
    EXPECT_FALSE(report.results[i].from_journal);
    EXPECT_TRUE(report.results[i].error.empty());
    expect_same_result(report.results[i], plain[i]);
  }
  EXPECT_EQ(report.supervisor.get("supervisor.cases").count, 4);
  EXPECT_EQ(report.supervisor.get("supervisor.attempts").count, 4);
  EXPECT_EQ(report.supervisor.get("supervisor.retries").count, 0);
  EXPECT_EQ(report.supervisor.get("supervisor.quarantined").count, 0);
}

TEST_F(SweepSupervisorTest, DeadlineQuarantinesAfterBoundedRetries) {
  const SweepRunner runner(models_);
  SweepSpec spec = grid();
  // A deadline no attempt can meet: the token is already expired at the
  // pipeline's first poll, so every attempt dies deterministically.
  spec.supervision.case_deadline_seconds = 1e-9;
  spec.supervision.max_attempts = 3;
  spec.supervision.backoff_seconds = 0.0;

  const SweepRunReport report = runner.run_supervised(spec);
  ASSERT_EQ(report.results.size(), 4u);
  for (const SweepCaseResult& r : report.results) {
    SCOPED_TRACE(r.trace_name + "/" + r.strategy);
    EXPECT_EQ(r.status, SweepCaseStatus::kQuarantined);
    EXPECT_EQ(r.attempts, 3);
    EXPECT_FALSE(r.error.empty());
    EXPECT_TRUE(r.result.outcomes.empty());
    EXPECT_STREQ(to_string(r.status), "quarantined");
  }
  EXPECT_EQ(report.supervisor.get("supervisor.attempts").count, 12);
  EXPECT_EQ(report.supervisor.get("supervisor.retries").count, 8);
  EXPECT_EQ(report.supervisor.get("supervisor.deadline_hits").count, 12);
  EXPECT_EQ(report.supervisor.get("supervisor.quarantined").count, 4);
}

TEST_F(SweepSupervisorTest, DeadlineDuringBackoffWakesPromptly) {
  const SweepRunner runner(models_);
  SweepSpec spec = grid();
  spec.traces.resize(1);
  spec.strategies = {"scratch"};  // one case: timing assertions stay tight
  // Attempt 1 dies at the pipeline's first poll; the retry backoff before
  // attempt 2 is 30 s, far past this test's patience. The backoff sleep is
  // cancellable against the fresh per-attempt deadline, so the case must
  // quarantine in milliseconds — charged exactly one deadline hit for the
  // sleep, with the remaining attempt forfeited.
  spec.supervision.case_deadline_seconds = 1e-9;
  spec.supervision.max_attempts = 3;
  spec.supervision.backoff_seconds = 30.0;

  const auto t0 = std::chrono::steady_clock::now();
  const SweepRunReport report = runner.run_supervised(spec);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(elapsed, 10.0) << "backoff sleep ignored the deadline";

  ASSERT_EQ(report.results.size(), 1u);
  const SweepCaseResult& r = report.results[0];
  EXPECT_EQ(r.status, SweepCaseStatus::kQuarantined);
  EXPECT_EQ(r.attempts, 2);
  EXPECT_NE(r.error.find("backoff"), std::string::npos) << r.error;
  EXPECT_EQ(report.supervisor.get("supervisor.retries").count, 1);
  EXPECT_EQ(report.supervisor.get("supervisor.deadline_hits").count, 2);
  EXPECT_EQ(report.supervisor.get("supervisor.quarantined").count, 1);
}

TEST_F(SweepSupervisorTest, ResumeReExecutesOnlyUnfinishedCases) {
  const SweepRunner runner(models_);
  SweepSpec spec = grid();
  const std::vector<SweepCaseResult> reference = runner.run(spec);

  // Simulate a sweep killed after cases 0 and 2 finished: journal exactly
  // those two, as the dead run's supervisor would have.
  const fs::path journal_path = dir_ / "sweep.stjl";
  {
    SweepJournal journal(journal_path, sweep_spec_fingerprint(spec), 4,
                         /*resume=*/false);
    journal.append(0, reference[0]);
    journal.append(2, reference[2]);
  }

  spec.supervision.journal = journal_path;
  spec.supervision.resume = true;
  const SweepRunReport report = runner.run_supervised(spec);

  ASSERT_EQ(report.results.size(), 4u);
  EXPECT_TRUE(report.results[0].from_journal);
  EXPECT_FALSE(report.results[1].from_journal);
  EXPECT_TRUE(report.results[2].from_journal);
  EXPECT_FALSE(report.results[3].from_journal);
  // Replayed or re-executed, every case matches the uninterrupted sweep.
  for (std::size_t i = 0; i < 4; ++i) {
    SCOPED_TRACE("case " + std::to_string(i));
    EXPECT_EQ(report.results[i].status, SweepCaseStatus::kOk);
    expect_same_result(report.results[i], reference[i]);
  }
  EXPECT_EQ(report.supervisor.get("supervisor.replayed").count, 2);
  // Only the two re-executed cases consumed attempts or were appended.
  EXPECT_EQ(report.supervisor.get("supervisor.attempts").count, 2);
  EXPECT_EQ(report.supervisor.get("supervisor.journal_appends").count, 2);

  // The journal now holds all four cases: a second resume replays the full
  // grid without running anything.
  const SweepRunReport again = runner.run_supervised(spec);
  EXPECT_EQ(again.supervisor.get("supervisor.replayed").count, 4);
  EXPECT_EQ(again.supervisor.get("supervisor.attempts").count, 0);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(again.results[i].from_journal);
    expect_same_result(again.results[i], reference[i]);
  }
}

TEST_F(SweepSupervisorTest, QuarantinedCasesAreNotJournaledAndRetryOnResume) {
  const SweepRunner runner(models_);
  SweepSpec broken = grid();
  broken.supervision.journal = dir_ / "sweep.stjl";
  broken.supervision.case_deadline_seconds = 1e-9;  // every case dies
  broken.supervision.backoff_seconds = 0.0;
  const SweepRunReport first = runner.run_supervised(broken);
  EXPECT_EQ(first.supervisor.get("supervisor.quarantined").count, 4);
  EXPECT_EQ(first.supervisor.get("supervisor.journal_appends").count, 0);

  // The deadline is an execution knob, so it does not change the spec
  // fingerprint: the fixed sweep resumes against the same journal and
  // re-attempts every quarantined case successfully.
  SweepSpec fixed = grid();
  fixed.supervision.journal = dir_ / "sweep.stjl";
  fixed.supervision.resume = true;
  const SweepRunReport second = runner.run_supervised(fixed);
  EXPECT_EQ(second.supervisor.get("supervisor.replayed").count, 0);
  EXPECT_EQ(second.supervisor.get("supervisor.quarantined").count, 0);
  EXPECT_EQ(second.supervisor.get("supervisor.journal_appends").count, 4);
  for (const SweepCaseResult& r : second.results)
    EXPECT_EQ(r.status, SweepCaseStatus::kOk);
}

TEST_F(SweepSupervisorTest, SpecProblemsAreReportedPerField) {
  SweepSpec spec = grid();
  spec.traces.push_back({"a", spec.traces[0].trace});  // duplicate name
  spec.strategies.push_back("not-a-strategy");
  spec.machines.push_back({"null-factory", nullptr});
  spec.threads = -2;
  CancelToken token;
  spec.config.cancel = &token;
  SerialExecutor serial;
  spec.config.executor = &serial;
  spec.supervision.case_deadline_seconds = -1.0;
  spec.supervision.max_attempts = 0;
  spec.supervision.backoff_seconds = -0.5;
  spec.supervision.resume = true;  // without a journal

  const std::vector<std::string> problems = sweep_spec_problems(spec);
  ASSERT_EQ(problems.size(), 10u);
  const std::string all = [&] {
    std::string joined;
    for (const std::string& p : problems) joined += p + "\n";
    return joined;
  }();
  EXPECT_NE(all.find("duplicate trace"), std::string::npos);
  EXPECT_NE(all.find("unknown strategy 'not-a-strategy'"), std::string::npos);
  EXPECT_NE(all.find("'null-factory' has no factory"), std::string::npos);
  EXPECT_NE(all.find("threads must be >= 0"), std::string::npos);
  EXPECT_NE(all.find("config.cancel must be null"), std::string::npos);
  EXPECT_NE(all.find("config.executor must be null"), std::string::npos);
  EXPECT_NE(all.find("case_deadline_seconds must be >= 0"), std::string::npos);
  EXPECT_NE(all.find("max_attempts must be >= 1"), std::string::npos);
  EXPECT_NE(all.find("backoff_seconds must be >= 0"), std::string::npos);
  EXPECT_NE(all.find("resume requires supervision.journal"),
            std::string::npos);

  try {
    validate_sweep_spec(spec);
    FAIL() << "invalid spec must be rejected";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("invalid sweep spec (10 problems)"),
              std::string::npos);
  }
  EXPECT_THROW((void)SweepRunner(models_).run_supervised(spec), CheckError);
  EXPECT_TRUE(sweep_spec_problems(grid()).empty());
  EXPECT_NO_THROW(validate_sweep_spec(grid()));
}

TEST_F(SweepSupervisorTest, FingerprintIgnoresExecutionKnobsOnly) {
  const SweepSpec base = grid();
  const std::uint64_t fp = sweep_spec_fingerprint(base);
  EXPECT_EQ(sweep_spec_fingerprint(grid()), fp);  // deterministic

  // Execution knobs must not orphan a journal...
  SweepSpec threads = grid();
  threads.threads = 8;
  threads.supervision.case_deadline_seconds = 5.0;
  threads.supervision.max_attempts = 7;
  EXPECT_EQ(sweep_spec_fingerprint(threads), fp);

  // ...but anything that changes the results must.
  SweepSpec strategies = grid();
  strategies.strategies.push_back("dynamic");
  EXPECT_NE(sweep_spec_fingerprint(strategies), fp);

  SweepSpec renamed = grid();
  renamed.traces[0].name = "renamed";
  EXPECT_NE(sweep_spec_fingerprint(renamed), fp);

  SweepSpec retraced = grid();
  SyntheticTraceConfig other;
  other.num_events = 4;
  other.seed = 999;  // same shape, different contents
  retraced.traces[0].trace = generate_synthetic_trace(other);
  EXPECT_NE(sweep_spec_fingerprint(retraced), fp);

  SweepSpec tuned = grid();
  tuned.config.steps_per_interval += 1;
  EXPECT_NE(sweep_spec_fingerprint(tuned), fp);
}

TEST_F(SweepSupervisorTest, FingerprintBindsInitialViewAndResizeSchedule) {
  // Both reach every case through spec.config, so a journal written under
  // one view or resize schedule must not replay under another.
  const std::uint64_t fp = sweep_spec_fingerprint(grid());

  SweepSpec narrow = grid();
  narrow.config.initial_view_px = 8;
  EXPECT_NE(sweep_spec_fingerprint(narrow), fp);

  SweepSpec short_view = grid();
  short_view.config.initial_view_py = 8;
  EXPECT_NE(sweep_spec_fingerprint(short_view), fp);

  SweepSpec resized = grid();
  resized.config.resize_schedule = {{2, 8, 16}};
  EXPECT_NE(sweep_spec_fingerprint(resized), fp);
  EXPECT_NE(sweep_spec_fingerprint(resized), sweep_spec_fingerprint(narrow));
}

}  // namespace
}  // namespace stormtrack
