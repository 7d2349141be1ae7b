#pragma once

/// \file pipeline.hpp
/// Staged orchestration of processor reallocation at adaptation points
/// (§IV).
///
/// An AdaptationPipeline owns the committed allocation tree of one strategy
/// on one machine and advances it one adaptation point at a time through
/// six explicit stages that communicate via a PipelineContext:
///
///   DiffNests        classify the new active nest set against the
///                    committed one (insert / delete / retain);
///   DeriveWeights    predict execution-time ratios for the active nests
///                    with the §IV-C-2 model and assemble the
///                    ReconfigRequest;
///   BuildCandidates  propose both candidate trees — partition-from-scratch
///                    (§IV-A) and tree-based hierarchical diffusion
///                    (§IV-B) — allocate them, and price each retained
///                    nest's redistribution with the streaming cost walk
///                    (one summary holds prediction terms and ground
///                    truth; no message matrix is built);
///   PredictCosts     price every candidate with the §IV-C performance
///                    models (redistribution: §IV-C-1; execution:
///                    §IV-C-2);
///   Commit           ask the configured IStrategy which candidate to
///                    commit — on predictions only, like the real system;
///   Redistribute     charge every candidate's redistribution phases at
///                    the simulated network's ground truth (read from the
///                    BuildCandidates summaries) and ground-truth execution
///                    (both candidates are scored so experiments can judge
///                    decisions against the road not taken, §V-F), then
///                    install the committed tree + allocation.
///
/// A MetricsRegistry threads through every stage: each adaptation point
/// accumulates per-stage wall time and counters alongside the paper's
/// redistribution/execution/hop-byte metrics.
///
/// Fault tolerance (ManagerConfig::injector): each adaptation point is
/// transactional — the committed tree, allocation, and nest map are
/// snapshotted up front and restored whenever a stage throws, then a
/// degradation ladder runs the point again: full retry (clears transient
/// faults), scratch-only (skips the diffusion candidate), and finally
/// retaining the previous allocation and skipping the point. Permanent
/// rank deaths shrink the usable grid view before the stages run
/// (rank-loss recovery), and every allocation is validated
/// (fault/invariants.hpp) before it is installed. Recovery surfaces as
/// fault.* / recovery.* metrics.

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "alloc/partitioner.hpp"
#include "core/machine.hpp"
#include "core/nest_tracker.hpp"
#include "core/strategy.hpp"
#include "fault/fault_injector.hpp"
#include "perfmodel/exec_model.hpp"
#include "perfmodel/ground_truth.hpp"
#include "perfmodel/redist_model.hpp"
#include "redist/pricing_cache.hpp"
#include "redist/redistributor.hpp"
#include "util/metrics.hpp"

namespace stormtrack {

class CancelToken;
class Executor;

/// Pipeline stages in execution order.
enum class PipelineStage {
  kDiffNests = 0,
  kDeriveWeights,
  kBuildCandidates,
  kPredictCosts,
  kCommit,
  kRedistribute,
};

inline constexpr int kNumPipelineStages = 6;

/// Stage display name ("diff_nests", ...).
[[nodiscard]] std::string_view to_string(PipelineStage stage);

/// MetricsRegistry key of a stage's wall time; numbered so the registry's
/// sorted iteration reproduces execution order ("stage.1_diff_nests", ...).
[[nodiscard]] std::string_view stage_metric_name(PipelineStage stage);

/// Scheduled malleability event (ReSHAPE-style): before adaptation point
/// \p point runs, the usable processor view becomes \p px × \p py.
struct ResizeEvent {
  int point = 0;  ///< 0-based adaptation-point index the resize precedes.
  int px = 0;     ///< New view width, 1..machine grid_px.
  int py = 0;     ///< New view height, 1..machine grid_py.
};

/// Pipeline tunables.
struct ManagerConfig {
  /// Commit strategy, resolved by name in StrategyRegistry::global():
  /// "scratch", "diffusion", "dynamic", "hysteresis", or anything
  /// registered by the embedding application.
  std::string strategy = "diffusion";
  /// Knobs forwarded to the strategy factory.
  StrategyOptions strategy_options;
  /// Nest time steps simulated between consecutive adaptation points: the
  /// paper invokes PDA every 2 simulation minutes, and a 4 km nest steps
  /// ~24 simulated seconds at a time — 5 steps per interval.
  int steps_per_interval = 5;
  /// Where candidate pricings are memoized (pricing_cache.hpp); null
  /// means the pipeline's own instance. A non-null cache is shared with
  /// other pipelines on the same machine model, so they warm each other;
  /// it must outlive the pipeline. Results are bit-identical either way —
  /// entries are pure functions of (machine fingerprint, pricing key). The
  /// daemon's supervisor hands one instance to every session.
  PricingCache* pricing_cache = nullptr;
  /// Initial usable view of the machine grid, origin-anchored; 0 (the
  /// default) means the full grid. A run can start on a sub-view and grow
  /// into the machine later via resize_schedule — the malleable-job shape.
  int initial_view_px = 0;
  int initial_view_py = 0;
  /// Grow/shrink events applied between adaptation points: every event
  /// with point == p runs (in schedule order) at the start of apply() for
  /// point p, before any fault injection. Deterministic and replayed
  /// identically across checkpoint resume.
  std::vector<ResizeEvent> resize_schedule;
  /// Runs the scratch and diffusion candidates concurrently through
  /// BuildCandidates / PredictCosts / Redistribute (the candidates are
  /// independent until Commit); null = serial. Each candidate accumulates
  /// into its own PipelineCandidate slot in the same floating-point order
  /// as the serial loop, so results are identical for any executor. Must
  /// outlive the pipeline; may be shared (SweepRunner hands its pool to
  /// every case).
  Executor* executor = nullptr;
  /// When set, adaptation points run transactionally under the injector's
  /// fault schedule (see the file comment). Null (the default) keeps the
  /// pre-fault behavior exactly: any stage exception propagates to the
  /// caller. Must outlive the pipeline.
  FaultInjector* injector = nullptr;
  /// Cooperative cancellation: polled once at the start of every apply(),
  /// *outside* the degradation ladder — a cancelled or timed-out run
  /// throws CancelledError between transactions and is never mistaken for
  /// a fault to degrade around. Null = never cancelled. Must outlive the
  /// pipeline.
  const CancelToken* cancel = nullptr;
};

/// Model-predicted and ground-truth costs of one candidate allocation.
struct CandidateMetrics {
  double predicted_redist = 0.0;  ///< §IV-C-1 model (s).
  double predicted_exec = 0.0;    ///< §IV-C-2 model (s per interval).
  double actual_redist = 0.0;     ///< Simulated network time (s).
  double actual_exec = 0.0;       ///< Ground-truth interval time (s).

  [[nodiscard]] double predicted_total() const {
    return predicted_redist + predicted_exec;
  }
  [[nodiscard]] double actual_total() const {
    return actual_redist + actual_exec;
  }
};

/// One candidate allocation flowing through the pipeline stages.
struct PipelineCandidate {
  std::string name;               ///< Proposing partitioner's name.
  AllocTree tree;                 ///< Proposed allocation tree.
  Allocation alloc;               ///< Subdivision of the process grid.
  /// Streaming redistribution cost aggregates, one per retained nest, in
  /// PipelineContext::retained order: the prediction terms PredictCosts
  /// reads and the ground-truth phase Redistribute charges. No stage
  /// materializes a message matrix.
  std::vector<RedistCostSummary> costs;
  CandidateMetrics metrics;
  TrafficReport traffic;          ///< Simulated redistribution traffic.
  std::int64_t overlap_points = 0;
  std::int64_t total_points = 0;

  /// Return the slot to its freshly-constructed state while keeping vector
  /// capacity (scratch reuse across adaptation points).
  void reset();
};

/// Blackboard the stages communicate through. One instance lives in the
/// pipeline and is reset() — capacity kept — per attempt, so steady-state
/// adaptation points reuse every scratch buffer instead of reallocating.
struct PipelineContext {
  std::vector<NestSpec> active;    ///< New active set, ascending by id.
  std::vector<NestSpec> retained;  ///< Survivors (old-set iteration order).
  std::vector<NestSpec> inserted;
  std::vector<NestId> deleted;
  ReconfigRequest request;         ///< DeriveWeights output.
  std::vector<PipelineCandidate> candidates;  ///< BuildCandidates output.
  std::size_t committed_index = 0;            ///< Commit output.

  /// Clear all per-point state, retaining allocated capacity.
  void reset();

  /// Candidate named \p name, or nullptr.
  [[nodiscard]] const PipelineCandidate* find(std::string_view name) const;
  [[nodiscard]] const PipelineCandidate& committed() const {
    return candidates.at(committed_index);
  }
};

/// Everything observable about one adaptation point.
struct StepOutcome {
  std::string chosen;               ///< Committed candidate name.
  CandidateMetrics scratch;         ///< Both candidates always evaluated.
  CandidateMetrics diffusion;
  CandidateMetrics committed;       ///< Copy of the committed candidate's.
  TrafficReport traffic;            ///< Committed redistribution traffic.
  double overlap_fraction = 0.0;    ///< Fig. 11 metric (retained nests).
  int num_deleted = 0;
  int num_retained = 0;
  int num_inserted = 0;
  Allocation allocation;            ///< Committed allocation.
  /// Degradation-ladder outcome (fault injection only): false for a clean
  /// first-attempt commit; otherwise `degradation` is "retried",
  /// "scratch_only", or "retained_previous" (the point was skipped and
  /// `allocation` is the previous one).
  bool degraded = false;
  std::string degradation;
  int ranks_lost = 0;               ///< Rank deaths recovered at this point.
};

/// See file comment.
class AdaptationPipeline {
 public:
  /// All referents must outlive the pipeline. The strategy is resolved
  /// from StrategyRegistry::global() by config.strategy.
  AdaptationPipeline(const Machine& machine, const ExecTimeModel& model,
                     const GroundTruthCost& truth, ManagerConfig config);

  /// Apply one adaptation point: \p active is the complete new active nest
  /// set (stable ids across calls).
  StepOutcome apply(std::span<const NestSpec> active);

  [[nodiscard]] const Allocation& allocation() const { return allocation_; }
  [[nodiscard]] const AllocTree& tree() const { return tree_; }
  [[nodiscard]] const ManagerConfig& config() const { return config_; }
  [[nodiscard]] const Machine& machine() const { return *machine_; }
  [[nodiscard]] const IStrategy& strategy() const { return *strategy_; }

  /// Per-stage wall times and counters accumulated since construction (or
  /// the last clear_metrics()). The mutable overload lets the embedding
  /// system (CoupledSimulation) record its own recovery.* counters in the
  /// same registry.
  [[nodiscard]] const MetricsRegistry& metrics() const { return metrics_; }
  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }
  void clear_metrics() { metrics_.clear(); }

  /// Usable process-grid view: the full machine grid (or
  /// config.initial_view) until rank-loss recovery or resize_view changes
  /// it.
  [[nodiscard]] int view_px() const { return view_px_; }
  [[nodiscard]] int view_py() const { return view_py_; }

  /// Malleability: grow or shrink the usable origin-anchored view to
  /// \p px × \p py (each within the machine grid) between adaptation
  /// points. The committed tree is re-subdivided on the new view and only
  /// displaced blocks move (same mechanics as rank-loss recovery, surfaced
  /// as elastic.* metrics). Growing re-includes retired columns/rows — do
  /// not schedule grows past ranks lost to faults. Throws CheckError when
  /// the view cannot hold the committed nests.
  void resize_view(int px, int py);

  /// FNV-1a fingerprint of the committed state (tree, allocation, nest
  /// map, grid view). Rollback tests assert a failed point leaves it
  /// unchanged; determinism tests assert serial == threaded.
  [[nodiscard]] std::uint64_t state_fingerprint() const;

  /// Complete committed state for checkpoint/restart. Everything apply()
  /// mutates is captured: the committed tree and allocation, the active
  /// nest map, the adaptation-point counter, the (possibly shrunk) grid
  /// view, the injector-stats watermark, accumulated metrics, and any
  /// cross-point strategy state (hysteresis incumbent). A pipeline built
  /// from the same Machine/models/config that import_state()s this
  /// produces the exact apply() sequence — and state_fingerprint() — of
  /// the original run.
  struct PipelineState {
    AllocTree tree;
    Allocation allocation;
    std::vector<NestSpec> current;    ///< Active nests, ascending by id.
    int point_index = 0;
    int view_px = 0;
    int view_py = 0;
    FaultInjectorStats seen_faults;
    MetricsRegistry metrics;
    std::string strategy_state;       ///< IStrategy::export_state() blob.
    /// Scheduled resize events consumed so far; import_state cross-checks
    /// it against the configured schedule so a checkpoint taken under a
    /// different resize plan is rejected instead of silently diverging.
    int resize_events_applied = 0;
  };
  [[nodiscard]] PipelineState export_state() const;
  /// Validates against this pipeline's machine (grid extents, allocation
  /// invariants) before installing; throws CheckError on any mismatch so a
  /// checkpoint from a different machine/config is rejected loudly.
  void import_state(const PipelineState& state);

 private:
  /// Degradation-ladder attempt shapes.
  enum class AttemptMode {
    kFull,         ///< Both candidates, strategy commit.
    kScratchOnly,  ///< Scratch candidate only, committed unconditionally.
  };

  StepOutcome apply_attempt(PipelineContext& ctx,
                            std::span<const NestSpec> active,
                            AttemptMode mode);
  void recover_rank_loss(int rank);
  /// Re-subdivide the committed tree on the current view and move the
  /// displaced blocks; metrics land under `<metric_prefix>_redist`,
  /// `<metric_prefix>_total_points`, `<metric_prefix>_overlap_points`,
  /// `<metric_prefix>_moved_points` (plus a `<family>.validations` bump,
  /// where family is the prefix up to its first dot).
  void reallocate_on_view(const std::string& metric_prefix);
  [[nodiscard]] Rect view_rect() const {
    return Rect{0, 0, view_px_, view_py_};
  }

  void stage_diff_nests(PipelineContext& ctx,
                        std::span<const NestSpec> active);
  void stage_derive_weights(PipelineContext& ctx) const;
  void stage_build_candidates(PipelineContext& ctx, AttemptMode mode) const;
  void stage_predict_costs(PipelineContext& ctx) const;
  void stage_commit(PipelineContext& ctx, AttemptMode mode);
  StepOutcome stage_redistribute(PipelineContext& ctx);

  const Machine* machine_;
  const ExecTimeModel* model_;
  const GroundTruthCost* truth_;
  ManagerConfig config_;
  std::unique_ptr<IStrategy> strategy_;
  MetricsRegistry metrics_;

  AllocTree tree_;
  Allocation allocation_;
  std::map<int, NestSpec> current_;  ///< Active nests by id.
  int point_index_ = 0;              ///< Adaptation points applied so far.
  int view_px_ = 0;                  ///< Usable grid view (rank death and
  int view_py_ = 0;                  ///< resizes; never renumbers ranks).
  int resize_events_applied_ = 0;    ///< Schedule entries consumed so far.
  FaultInjectorStats seen_faults_;   ///< Injector stats at last apply() end.
  PipelineContext ctx_;              ///< Reused scratch; reset() per attempt.
  /// Memoized pricing used when config_.pricing_cache is null; contents
  /// are pure functions of their keys, so the cache is *not* part of the
  /// checkpointed state — a resumed run simply starts cold and recomputes.
  /// Its capacity sets the flush timing, and so the cost_cache_hits/misses
  /// and probe counts that the bench baselines pin.
  mutable PricingCache own_cache_{1 << 16};
  std::uint64_t scope_ = 0;  ///< machine_->fingerprint(), every key's scope.
};

}  // namespace stormtrack
