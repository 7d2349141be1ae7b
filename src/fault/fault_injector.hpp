#pragma once

/// \file fault_injector.hpp
/// Runtime interpreter for a FaultPlan.
///
/// One FaultInjector is shared by every component of a run (split-file
/// reader, exchange_payloads, executor task guards, the adaptation
/// pipeline). The pipeline advances it with begin_point(); components then
/// query it with their own coordinates (file rank, message endpoints, task
/// site + index) and the injector decides purely from the plan and the
/// current point — never from call order — so N-thread runs observe the
/// same faults as serial runs.
///
/// The only call-order-dependent state is the per-event attempt counter for
/// *transient* faults, which FaultPlan::validate() restricts to concrete
/// single targets: all of a transient event's firings happen at one rank's
/// read site, which retries sequentially, so the counter is still
/// deterministic under threading.

#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "fault/fault_plan.hpp"
#include "simmpi/simcomm.hpp"

namespace stormtrack {

/// Thrown by injected faults (distinct from CheckError so recovery code can
/// tell injected failures from genuine invariant violations in tests; the
/// degradation ladder catches both).
class FaultError : public std::runtime_error {
 public:
  FaultError(FaultKind kind, bool transient, const std::string& what)
      : std::runtime_error(what), kind_(kind), transient_(transient) {}

  [[nodiscard]] FaultKind kind() const { return kind_; }
  /// True when a bounded retry may clear the fault.
  [[nodiscard]] bool transient() const { return transient_; }

 private:
  FaultKind kind_;
  bool transient_;
};

/// What a split-file read attempt should do.
enum class SplitReadFault {
  kNone,       ///< Read succeeds.
  kTransient,  ///< This attempt fails; retrying may succeed.
  kPermanent,  ///< Every attempt fails; the file is lost.
};

/// Injection counters, surfaced as fault.* metrics by the pipeline.
struct FaultInjectorStats {
  std::int64_t split_read_faults = 0;
  std::int64_t payload_drops = 0;
  std::int64_t payload_corruptions = 0;
  std::int64_t task_faults = 0;
};

/// See file comment.
class FaultInjector final : public PayloadFaultHook {
 public:
  /// Validates the plan (throws CheckError on a malformed one).
  explicit FaultInjector(FaultPlan plan);

  /// Enter an adaptation point; idempotent for the same point. Faults only
  /// fire for the current point.
  void begin_point(int point);
  [[nodiscard]] int point() const;

  /// Consult the plan for one read attempt of \p file_rank's split file at
  /// the current point. Transient events consume one of their attempts per
  /// call; permanent/corrupt events always fire.
  [[nodiscard]] SplitReadFault check_split_read(int file_rank);

  /// Throw FaultError if a task fault is scheduled for (site, index) at the
  /// current point. attempts=0 events always fire; attempts>0 events fire
  /// that many executions (ladder retries re-run the batch).
  void guard_task(std::string_view site, std::size_t index);

  /// Ranks with a kRankDeath event at \p point (ascending, deduplicated).
  [[nodiscard]] std::vector<int> ranks_dying_at(int point) const;

  /// PayloadFaultHook: match drop/corrupt events against the message's
  /// endpoints at the current point (rank = src, peer = dst, -1 wildcards).
  [[nodiscard]] Action on_payload(int src, int dst,
                                  std::int64_t bytes) override;

  [[nodiscard]] FaultInjectorStats stats() const;
  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

  /// Complete interpreter position, for checkpoint/restart: the current
  /// point, every event's firing count (transient attempt budgets), and the
  /// cumulative stats. Restoring it into an injector built from the same
  /// plan resumes the exact fault schedule mid-campaign.
  struct State {
    int point = -1;
    std::vector<int> fired;
    FaultInjectorStats stats;
  };
  [[nodiscard]] State export_state() const;
  /// Throws CheckError when \p state does not match this injector's plan
  /// (wrong event count — the checkpoint was taken under a different plan).
  void import_state(const State& state);

 private:
  [[nodiscard]] bool consume_attempt_locked(std::size_t event_index);

  FaultPlan plan_;
  mutable std::mutex mutex_;
  int point_ = -1;
  std::vector<int> fired_;  ///< Per-event firing counts (attempt budgets).
  FaultInjectorStats stats_;
};

}  // namespace stormtrack
