#pragma once

/// \file redistributor.hpp
/// Planning and execution of nest-data redistribution (§IV).
///
/// When a retained nest's processor rectangle changes, every old owner
/// (sender) ships to every new owner (receiver) the intersection of their
/// nest-space regions; the phase runs as one MPI_Alltoallv per nest, with
/// processors that are neither senders nor receivers contributing zero
/// counts — exactly the scheme the paper implements inside WRF. This module
/// computes the sparse message matrix, the paper's Fig. 10/11 metrics
/// (hop-bytes and sender/receiver data-point overlap), and moves a nest
/// field with real payloads.
///
/// Prediction vs movement: an adaptation point only needs aggregate costs,
/// both for the §IV-C-1 *prediction* and for the *ground truth* the
/// simulated network charges for every candidate's phases. Both come from
/// the streaming redistribution_cost(): since the decomposition is a tensor
/// product, it prices from per-dimension block-pair lists built with an
/// interval index over the receiver blocks (interval_index.hpp), enumerating
/// only the *moved* (off-rank) intersections: O(moved blocks · log P)
/// instead of the dense O(senders × receivers) walk, and O(W + H) for the
/// identity moves diffusion keeps producing. The moved blocks arrive in
/// for_each_redist_block's exact order, which is also the message order of
/// plan_redistribution(), so the summary's aggregates — including the
/// phase time SimComm::alltoallv would charge the materialized plan — are
/// bit-identical to the materialized totals. No production path builds a
/// message plan: plan_redistribution() remains as the test oracle (with
/// redistribution_cost_dense(), the retained dense reference walk) and for
/// the micro-benches.
///
/// Pricing and payload moves are free functions over a communicator:
/// redistribution_cost(…, &comm) prices a move,
/// redistribute_field(comm, …) moves a nest field (the field workload's
/// move_nest), and workloads with their own payload layout call
/// exchange_payloads (simmpi/simcomm.hpp) directly. Every production
/// pricing uses kDefaultBytesPerPoint.

#include <atomic>
#include <cstdint>
#include <vector>

#include "perfmodel/ground_truth.hpp"  // NestShape
#include "redist/block_decomp.hpp"
#include "simmpi/simcomm.hpp"
#include "util/grid2d.hpp"

namespace stormtrack {

/// Per-nest-grid-point payload in bytes. A WRF nest carries a full column
/// of model state per horizontal point: ~150 prognostic/diagnostic 3D
/// fields × 27 levels × 4-byte reals (the WRF restart-state order of
/// magnitude — all of it must move when the nest changes processors).
inline constexpr int kDefaultBytesPerPoint = 150 * 27 * 4;

/// Process-wide instrumentation of the redistribution machinery. The
/// counters prove (in tests and the perf-smoke CI gate) that the adaptation
/// path stays allocation-free: a pipeline apply() prices and charges every
/// phase through cost_queries and never moves plans_built or
/// messages_materialized — those move only where tests and benches build a
/// plan on purpose. Relaxed atomics — counts are observability only and
/// never feed back into results.
struct RedistCounters {
  std::int64_t plans_built = 0;             ///< plan_redistribution() calls
                                            ///< (tests and benches only).
  std::int64_t messages_materialized = 0;   ///< Message objects pushed by
                                            ///< those plans.
  std::int64_t message_bytes_materialized = 0;  ///< sizeof(Message) × above.
  std::int64_t cost_queries = 0;            ///< Pricings requested (sparse,
                                            ///< dense, or cache-served).
  /// Bisection probes the sparse pricing's interval index performed while
  /// locating receiver blocks — the measurable O(moved blocks · log P)
  /// asymptotic, gated against quadratic regressions by the perf-smoke
  /// bench at up to 1M ranks.
  std::int64_t intersection_probes = 0;
  /// Off-rank block intersections the sparse pricing actually visited
  /// ("moved blocks"); fully-local senders are skipped without being
  /// enumerated, so an identity move counts zero.
  std::int64_t moved_blocks_enumerated = 0;
  /// PricingCache queries served from / missing the memo (incremental
  /// candidate pricing; see pricing_cache.hpp).
  std::int64_t cost_cache_hits = 0;
  std::int64_t cost_cache_misses = 0;
};

/// Snapshot of the process-wide counters (monotonic since process start).
[[nodiscard]] RedistCounters redist_counters();

namespace detail {
struct RedistCounterState {
  std::atomic<std::int64_t> plans_built{0};
  std::atomic<std::int64_t> messages_materialized{0};
  std::atomic<std::int64_t> cost_queries{0};
  std::atomic<std::int64_t> intersection_probes{0};
  std::atomic<std::int64_t> moved_blocks_enumerated{0};
  std::atomic<std::int64_t> cost_cache_hits{0};
  std::atomic<std::int64_t> cost_cache_misses{0};
};
RedistCounterState& redist_counter_state();
}  // namespace detail

/// Invoke `fn(sender_rank, receiver_rank, intersection)` for every
/// non-empty sender×receiver nest-region intersection of the move from
/// \p old_rect to \p new_rect, in plan_redistribution's exact order
/// (sender blocks row-major over old_rect, receivers row-major within each
/// sender's overlapping part range). Sender ranks arrive strictly
/// ascending, so per-sender aggregation needs no map. Allocation-free.
template <typename Fn>
void for_each_redist_block(const NestShape& nest, const Rect& old_rect,
                           const Rect& new_rect, int grid_px, Fn&& fn) {
  const BlockDecomposition old_d(nest, old_rect, grid_px);
  const BlockDecomposition new_d(nest, new_rect, grid_px);
  for (int j = 0; j < old_rect.h; ++j) {
    for (int i = 0; i < old_rect.w; ++i) {
      const Rect region = old_d.owned_region(i, j);
      if (region.empty()) continue;
      const int sender = old_d.rank_at(i, j);
      const PartRange cols = overlapping_parts(region.x, region.x_end(),
                                               nest.nx, new_rect.w);
      const PartRange rows = overlapping_parts(region.y, region.y_end(),
                                               nest.ny, new_rect.h);
      for (int rj = rows.first; rj <= rows.last; ++rj) {
        for (int ri = cols.first; ri <= cols.last; ++ri) {
          const Rect inter = region.intersect(new_d.owned_region(ri, rj));
          if (inter.empty()) continue;
          fn(sender, new_d.rank_at(ri, rj), inter);
        }
      }
    }
  }
}

/// Exact number of messages for_each_redist_block will emit, in
/// O(old_rect.w + old_rect.h): the decomposition is a tensor product, so
/// the count factors into (intersecting column-block pairs) × (intersecting
/// row-block pairs). Empty receiver blocks — a rectangle with more
/// processors along an axis than the nest has points — intersect nothing
/// and are not counted. Used to reserve() message vectors before the fill
/// loops.
[[nodiscard]] std::int64_t count_redist_messages(const NestShape& nest,
                                                 const Rect& old_rect,
                                                 const Rect& new_rect,
                                                 int grid_px);

/// Sparse message matrix plus the point-accounting of a planned
/// redistribution.
struct RedistPlan {
  std::vector<Message> messages;     ///< (sender, receiver, bytes); includes
                                     ///< self messages (priced as local).
  std::int64_t total_points = 0;     ///< Nest points moved (== nest area).
  std::int64_t overlap_points = 0;   ///< Points whose owner rank is
                                     ///< unchanged (Fig. 11 numerator).

  /// Fraction of nest points that stay on their processor.
  [[nodiscard]] double overlap_fraction() const {
    if (total_points == 0) return 0.0;
    return static_cast<double>(overlap_points) /
           static_cast<double>(total_points);
  }
};

/// Plan the redistribution of one nest from \p old_rect to \p new_rect on a
/// process grid of width \p grid_px. Message count is
/// O(actual sender/receiver intersections), not O(|senders|·|receivers|).
[[nodiscard]] RedistPlan plan_redistribution(const NestShape& nest,
                                             const Rect& old_rect,
                                             const Rect& new_rect,
                                             int grid_px,
                                             int bytes_per_point =
                                                 kDefaultBytesPerPoint);

/// Aggregate cost view of one redistribution phase, accumulated by the
/// streaming redistribution_cost() without materializing messages. The
/// traffic fields (traffic()) match SimComm::alltoallv's accounting of the
/// same plan bit-for-bit; worst_pair_time / worst_sender_time are the
/// §IV-C-1 prediction terms (see RedistTimeModel::predict(const
/// RedistCostSummary&)). The hop, time and prediction fields are only
/// filled when a communicator is supplied.
struct RedistCostSummary {
  std::int64_t total_points = 0;    ///< Nest points moved (== nest area).
  std::int64_t overlap_points = 0;  ///< Points staying on their rank.
  std::int64_t total_bytes = 0;     ///< Payload bytes moved off-rank.
  std::int64_t hop_bytes = 0;       ///< Σ bytes × hops (Fig. 10 numerator).
  std::int64_t local_bytes = 0;     ///< Bytes "moved" rank→itself.
  std::int64_t num_messages = 0;    ///< Off-rank messages in the phase.
  int max_hops = 0;                 ///< Longest route used.
  /// Ground truth: the phase time the simulated network charges, exactly
  /// SimComm::alltoallv(plan.messages).modeled_time.
  double phase_time = 0.0;
  /// §IV-C-1 on direct networks: max over sender/receiver pairs of the
  /// pair time.
  double worst_pair_time = 0.0;
  /// §IV-C-1 on switched networks: max over senders of the sum of that
  /// sender's pair times.
  double worst_sender_time = 0.0;

  /// Fraction of nest points that stay on their processor.
  [[nodiscard]] double overlap_fraction() const {
    if (total_points == 0) return 0.0;
    return static_cast<double>(overlap_points) /
           static_cast<double>(total_points);
  }

  /// The phase as SimComm::alltoallv would report it for the materialized
  /// plan.
  [[nodiscard]] TrafficReport traffic() const {
    return TrafficReport{phase_time, total_bytes, hop_bytes,
                         local_bytes, num_messages, max_hops};
  }
};

/// Streaming cost of the move from \p old_rect to \p new_rect — the sparse
/// pricing path. Exploits the tensor-product structure of the block
/// decomposition: per-dimension (sender block, receiver block, overlap)
/// pair lists are built with the interval index (interval_index.hpp) in
/// O((W + H) · log P) probes, the integer aggregates (points, bytes,
/// message count) come out in closed form, and only *off-rank* block
/// intersections — the moved blocks — are enumerated for hop-bytes and the
/// §IV-C-1 prediction terms, in the dense walk's exact order so every
/// field, including the order-dependent worst_sender_time float sum, is
/// bit-identical to redistribution_cost_dense(). An identity move (the
/// diffusion strategy's steady state) enumerates nothing: O(W + H) total.
/// With \p comm bound, also accumulates hop-bytes, the prediction terms and
/// the ground-truth phase time against that communicator's topology and
/// mapping: per-sender sums run while a sender's blocks stream past, and
/// per-receiver sums land in thread-local scratch indexed by receiver
/// block, cleared in O(receivers touched). Without \p comm the hop/time
/// fields stay zero. No allocation in steady state (thread-local scratch
/// reused across queries).
[[nodiscard]] RedistCostSummary redistribution_cost(
    const NestShape& nest, const Rect& old_rect, const Rect& new_rect,
    int grid_px, int bytes_per_point = kDefaultBytesPerPoint,
    const SimComm* comm = nullptr);

/// Reference implementation of redistribution_cost: the dense
/// O(senders × receivers) walk over for_each_redist_block. Kept as the
/// ground truth the property tests (and any future sparse-path change)
/// compare against, field-for-field with EXPECT_EQ. Bumps the same
/// cost_queries counter; never probes the interval index.
[[nodiscard]] RedistCostSummary redistribution_cost_dense(
    const NestShape& nest, const Rect& old_rect, const Rect& new_rect,
    int grid_px, int bytes_per_point = kDefaultBytesPerPoint,
    const SimComm* comm = nullptr);

/// Move one nest's global \p field from \p old_rect to \p new_rect over
/// \p comm, as real payloads: scatter it by the old decomposition, run the
/// typed exchange (exchange_payloads, under \p faults when set), reassemble
/// from the delivered messages and return the reassembled field. An injected
/// payload fault surfaces as a CheckError from the conservation/integrity
/// checks: dropped blocks fail conservation, corrupted blocks fail the
/// bit-exact comparison against the source field. When \p traffic is set it
/// receives the exchange's accounting.
[[nodiscard]] Grid2D<double> redistribute_field(
    const SimComm& comm, const Grid2D<double>& field, const Rect& old_rect,
    const Rect& new_rect, int grid_px, PayloadFaultHook* faults = nullptr,
    TrafficReport* traffic = nullptr);

}  // namespace stormtrack
