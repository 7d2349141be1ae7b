#include "fault/fault_injector.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <vector>

#include "core/experiment.hpp"
#include "core/pipeline.hpp"
#include "pda/pda.hpp"
#include "util/check.hpp"
#include "wsim/split_file.hpp"
#include "wsim/weather.hpp"

namespace stormtrack {
namespace {

FaultEvent event(FaultKind kind, int point, int rank = -1) {
  FaultEvent e;
  e.kind = kind;
  e.point = point;
  e.rank = rank;
  return e;
}

FaultEvent task_event(int point, const char* site, int index, int attempts) {
  FaultEvent e;
  e.kind = FaultKind::kTaskFault;
  e.point = point;
  e.site = site;
  e.index = index;
  e.attempts = attempts;
  return e;
}

// ---------------------------------------------------------- injector core

TEST(FaultInjector, TransientReadFiresItsAttemptBudgetThenClears) {
  FaultPlan plan;
  FaultEvent e = event(FaultKind::kSplitReadTransient, 1, 4);
  e.attempts = 2;
  plan.events.push_back(e);
  FaultInjector inj(plan);

  inj.begin_point(0);
  EXPECT_EQ(inj.check_split_read(4), SplitReadFault::kNone);  // wrong point
  inj.begin_point(1);
  EXPECT_EQ(inj.check_split_read(3), SplitReadFault::kNone);  // wrong rank
  EXPECT_EQ(inj.check_split_read(4), SplitReadFault::kTransient);
  EXPECT_EQ(inj.check_split_read(4), SplitReadFault::kTransient);
  EXPECT_EQ(inj.check_split_read(4), SplitReadFault::kNone);  // budget spent
  EXPECT_EQ(inj.stats().split_read_faults, 2);
}

TEST(FaultInjector, PermanentReadAlwaysFiresAndWildcardMatchesAnyRank) {
  FaultPlan plan;
  plan.events.push_back(event(FaultKind::kSplitReadPermanent, 0, -1));
  FaultInjector inj(plan);
  inj.begin_point(0);
  for (int r = 0; r < 3; ++r)
    EXPECT_EQ(inj.check_split_read(r), SplitReadFault::kPermanent);
}

TEST(FaultInjector, GuardTaskMatchesSiteAndIndex) {
  FaultPlan plan;
  plan.events.push_back(task_event(0, "build_candidates", 1, 1));
  FaultInjector inj(plan);
  inj.begin_point(0);
  inj.guard_task("build_candidates", 0);  // wrong index: no throw
  inj.guard_task("predict_costs", 1);     // wrong site: no throw
  EXPECT_THROW(inj.guard_task("build_candidates", 1), FaultError);
  inj.guard_task("build_candidates", 1);  // attempts=1: cleared
  EXPECT_EQ(inj.stats().task_faults, 1);
}

TEST(FaultInjector, RanksDyingAtIsSortedAndDeduplicated) {
  FaultPlan plan;
  plan.events.push_back(event(FaultKind::kRankDeath, 2, 9));
  plan.events.push_back(event(FaultKind::kRankDeath, 2, 4));
  plan.events.push_back(event(FaultKind::kRankDeath, 2, 9));
  plan.events.push_back(event(FaultKind::kRankDeath, 5, 1));
  const FaultInjector inj(plan);
  EXPECT_EQ(inj.ranks_dying_at(2), (std::vector<int>{4, 9}));
  EXPECT_TRUE(inj.ranks_dying_at(3).empty());
}

TEST(FaultInjector, OnPayloadMatchesEndpointsAndCountsStats) {
  FaultPlan plan;
  FaultEvent drop = event(FaultKind::kPayloadDrop, 0, 2);
  drop.attempts = 0;  // every message from rank 2
  plan.events.push_back(drop);
  FaultEvent corrupt = event(FaultKind::kPayloadCorrupt, 0, -1);
  corrupt.peer = 7;
  corrupt.attempts = 0;
  plan.events.push_back(corrupt);
  FaultInjector inj(plan);
  inj.begin_point(0);
  EXPECT_EQ(inj.on_payload(2, 5, 100), PayloadFaultHook::Action::kDrop);
  EXPECT_EQ(inj.on_payload(3, 7, 100), PayloadFaultHook::Action::kCorrupt);
  EXPECT_EQ(inj.on_payload(3, 5, 100), PayloadFaultHook::Action::kNone);
  EXPECT_EQ(inj.stats().payload_drops, 1);
  EXPECT_EQ(inj.stats().payload_corruptions, 1);
}

TEST(ExchangePayloads, HookDropsAndCorruptsInFlight) {
  const Torus3D topo(4, 4, 4, LinkParams{1e-6, 1e-7, 1e8});
  const RowMajorMapping map(64);
  const SimComm comm(topo, map);

  FaultPlan plan;
  FaultEvent drop = event(FaultKind::kPayloadDrop, 0, 1);
  drop.attempts = 0;
  plan.events.push_back(drop);
  FaultEvent corrupt = event(FaultKind::kPayloadCorrupt, 0, 2);
  corrupt.attempts = 0;
  plan.events.push_back(corrupt);
  FaultInjector inj(plan);
  inj.begin_point(0);

  std::vector<TypedMessage<double>> msgs{
      {0, 5, {1.0, 2.0}},   // untouched
      {1, 5, {3.0, 4.0}},   // dropped
      {2, 5, {5.0, 6.0}},   // last element corrupted
  };
  const auto clean = exchange_payloads(comm, msgs);
  const auto faulty = exchange_payloads(comm, msgs, &inj);

  // Pricing happens before injection: the bytes were sent either way.
  EXPECT_EQ(faulty.traffic.total_bytes, clean.traffic.total_bytes);

  ASSERT_EQ(faulty.received_by(5).size(), 2u);
  EXPECT_EQ(faulty.received_by(5)[0].src, 0);
  EXPECT_EQ(faulty.received_by(5)[0].payload, (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(faulty.received_by(5)[1].src, 2);
  EXPECT_EQ(faulty.received_by(5)[1].payload[0], 5.0);
  EXPECT_NE(faulty.received_by(5)[1].payload[1], 6.0) << "corruption missing";
}

// ------------------------------------------------------- PDA degradation

class PdaFaultTest : public ::testing::Test {
 protected:
  PdaFaultTest() {
    WeatherConfig wc;
    wc.domain.resolution_km = 24.0;
    model_.emplace(wc, 42);
    for (int i = 0; i < 12; ++i) model_->step();  // let clouds organize
    files_ = write_split_files(*model_, 8, 8);
  }

  std::optional<WeatherModel> model_;
  std::vector<SplitFile> files_;
};

TEST_F(PdaFaultTest, PermanentLossYieldsLostFilesAndSuspectClusters) {
  PdaConfig cfg;
  cfg.analysis_procs = 16;
  const PdaResult clean = parallel_data_analysis(files_, cfg);
  ASSERT_FALSE(clean.qcloudinfo.empty()) << "scenario must detect clouds";
  EXPECT_FALSE(clean.degraded());
  EXPECT_TRUE(clean.lost_files.empty());

  // Lose the strongest subdomain's file permanently.
  const int lost_rank = clean.qcloudinfo.front().file_rank;
  FaultPlan plan;
  plan.events.push_back(event(FaultKind::kSplitReadPermanent, 0, lost_rank));
  FaultInjector inj(plan);
  inj.begin_point(0);
  cfg.injector = &inj;
  const PdaResult degraded = parallel_data_analysis(files_, cfg);

  EXPECT_TRUE(degraded.degraded());
  ASSERT_EQ(degraded.lost_files.size(), 1u);
  EXPECT_EQ(degraded.lost_files[0].file_rank, lost_rank);
  EXPECT_EQ(degraded.lost_files[0].qcloud, 0.0);
  EXPECT_EQ(degraded.qcloudinfo.size(), clean.qcloudinfo.size() - 1);
  for (const QCloudInfo& q : degraded.qcloudinfo)
    EXPECT_NE(q.file_rank, lost_rank);
  // Exactly the clusters with a member within 2 file-grid hops of the hole
  // must be flagged.
  const QCloudInfo& lost = degraded.lost_files[0];
  bool any_near = false;
  for (const QCloudInfo& q : degraded.qcloudinfo)
    if (std::max(std::abs(q.file_x - lost.file_x),
                 std::abs(q.file_y - lost.file_y)) <= 2)
      any_near = true;
  EXPECT_EQ(!degraded.suspect_clusters.empty(), any_near);
  for (const int c : degraded.suspect_clusters) {
    EXPECT_GE(c, 0);
    EXPECT_LT(c, static_cast<int>(degraded.clusters.size()));
  }
}

TEST_F(PdaFaultTest, TransientLossWithinRetryBudgetIsInvisible) {
  PdaConfig cfg;
  cfg.analysis_procs = 16;
  const PdaResult clean = parallel_data_analysis(files_, cfg);
  ASSERT_FALSE(clean.qcloudinfo.empty());

  FaultPlan plan;
  FaultEvent e =
      event(FaultKind::kSplitReadTransient, 0, clean.qcloudinfo[0].file_rank);
  e.attempts = 2;  // < max_read_retries
  plan.events.push_back(e);
  FaultInjector inj(plan);
  inj.begin_point(0);
  cfg.injector = &inj;
  const PdaResult retried = parallel_data_analysis(files_, cfg);

  EXPECT_FALSE(retried.degraded());
  EXPECT_EQ(retried.qcloudinfo.size(), clean.qcloudinfo.size());
  EXPECT_EQ(retried.rectangles, clean.rectangles);
  EXPECT_EQ(inj.stats().split_read_faults, 2) << "retries must have fired";
}

TEST_F(PdaFaultTest, TransientBeyondRetryBudgetLosesTheFile) {
  PdaConfig cfg;
  cfg.analysis_procs = 16;
  cfg.max_read_retries = 3;
  const PdaResult clean = parallel_data_analysis(files_, cfg);
  ASSERT_FALSE(clean.qcloudinfo.empty());

  FaultPlan plan;
  FaultEvent e =
      event(FaultKind::kSplitReadTransient, 0, clean.qcloudinfo[0].file_rank);
  e.attempts = 10;  // outlasts the 1 + max_read_retries read attempts
  plan.events.push_back(e);
  FaultInjector inj(plan);
  inj.begin_point(0);
  cfg.injector = &inj;
  const PdaResult degraded = parallel_data_analysis(files_, cfg);
  ASSERT_EQ(degraded.lost_files.size(), 1u);
  EXPECT_EQ(degraded.lost_files[0].file_rank, clean.qcloudinfo[0].file_rank);
}

// ------------------------------------------------- pipeline ladder rungs

class LadderTest : public ::testing::Test {
 protected:
  LadderTest() : machine_(Machine::bluegene(256)) {}

  static NestSpec nest(int id, int nx, int ny) {
    NestSpec n;
    n.id = id;
    n.region = Rect{0, 0, nx / 3, ny / 3};
    n.shape = NestShape{nx, ny};
    return n;
  }

  static std::vector<NestSpec> active() {
    return {nest(1, 200, 200), nest(2, 300, 250)};
  }

  ModelStack models_;
  Machine machine_;
};

TEST_F(LadderTest, CleanPlanMatchesNoInjectorRun) {
  AdaptationPipeline plain(machine_, models_.model, models_.truth,
                           ManagerConfig{});
  FaultInjector inj((FaultPlan()));
  ManagerConfig cfg;
  cfg.injector = &inj;
  AdaptationPipeline faulted(machine_, models_.model, models_.truth, cfg);
  for (int i = 0; i < 3; ++i) {
    const StepOutcome a = plain.apply(active());
    const StepOutcome b = faulted.apply(active());
    EXPECT_EQ(a.chosen, b.chosen);
    EXPECT_FALSE(b.degraded);
    EXPECT_DOUBLE_EQ(a.committed.actual_redist, b.committed.actual_redist);
  }
  EXPECT_EQ(plain.state_fingerprint(), faulted.state_fingerprint());
}

TEST_F(LadderTest, TransientTaskFaultRetriesAndCommits) {
  FaultPlan plan;
  plan.events.push_back(task_event(1, "build_candidates", 1, 1));
  FaultInjector inj(plan);
  ManagerConfig cfg;
  cfg.injector = &inj;
  AdaptationPipeline pipe(machine_, models_.model, models_.truth, cfg);
  EXPECT_FALSE(pipe.apply(active()).degraded);  // point 0: clean
  const StepOutcome out = pipe.apply(active()); // point 1: faulted
  EXPECT_TRUE(out.degraded);
  EXPECT_EQ(out.degradation, "retried");
  EXPECT_EQ(out.chosen, "diffusion");  // full rung succeeded on retry
  EXPECT_EQ(pipe.metrics().get("recovery.retried_points").count, 1);
  EXPECT_EQ(pipe.metrics().get("recovery.rollbacks").count, 1);
  EXPECT_EQ(pipe.metrics().get("fault.task_faults").count, 1);
}

TEST_F(LadderTest, DiffusionPinnedFaultFallsBackToScratchOnly) {
  // index 1 of build_candidates is the diffusion partitioner; attempts=0
  // keeps it failing across retries, so only the scratch-only rung passes.
  FaultPlan plan;
  plan.events.push_back(task_event(1, "build_candidates", 1, 0));
  FaultInjector inj(plan);
  ManagerConfig cfg;
  cfg.injector = &inj;
  AdaptationPipeline pipe(machine_, models_.model, models_.truth, cfg);
  pipe.apply(active());
  const StepOutcome out = pipe.apply(active());
  EXPECT_TRUE(out.degraded);
  EXPECT_EQ(out.degradation, "scratch_only");
  EXPECT_EQ(out.chosen, "scratch");
  EXPECT_EQ(pipe.metrics().get("recovery.scratch_fallbacks").count, 1);
  EXPECT_EQ(pipe.metrics().get("recovery.rollbacks").count, 2);
  // The committed allocation still covers the machine for both nests.
  EXPECT_EQ(out.allocation.num_nests(), 2u);
}

TEST_F(LadderTest, UnrecoverableFaultRetainsPreviousAllocation) {
  // The commit site runs on every rung; attempts=0 defeats the whole ladder.
  FaultPlan plan;
  plan.events.push_back(task_event(1, "commit", 0, 0));
  FaultInjector inj(plan);
  ManagerConfig cfg;
  cfg.injector = &inj;
  AdaptationPipeline pipe(machine_, models_.model, models_.truth, cfg);
  const StepOutcome before = pipe.apply(active());
  const StepOutcome out = pipe.apply(active());
  EXPECT_TRUE(out.degraded);
  EXPECT_EQ(out.degradation, "retained_previous");
  EXPECT_EQ(out.chosen, "retained");
  EXPECT_EQ(out.allocation.rects(), before.allocation.rects());
  EXPECT_EQ(pipe.metrics().get("recovery.skipped_points").count, 1);
  EXPECT_EQ(pipe.metrics().get("recovery.rollbacks").count, 3);
  // The next point is clean and proceeds normally from the retained state.
  const StepOutcome after = pipe.apply(active());
  EXPECT_FALSE(after.degraded);
}

TEST_F(LadderTest, EveryCommitIsValidatorGated) {
  FaultInjector inj((FaultPlan()));
  ManagerConfig cfg;
  cfg.injector = &inj;
  AdaptationPipeline pipe(machine_, models_.model, models_.truth, cfg);
  pipe.apply(active());
  pipe.apply(active());
  EXPECT_EQ(pipe.metrics().get("recovery.validations").count, 2);
}

}  // namespace
}  // namespace stormtrack
