#include "redist/redistributor.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "redist/interval_index.hpp"
#include "topo/mapping.hpp"
#include "topo/topology.hpp"
#include "util/check.hpp"

namespace stormtrack {

namespace detail {

RedistCounterState& redist_counter_state() {
  static RedistCounterState state;
  return state;
}

}  // namespace detail

RedistCounters redist_counters() {
  const auto& s = detail::redist_counter_state();
  RedistCounters out;
  out.plans_built = s.plans_built.load(std::memory_order_relaxed);
  out.messages_materialized =
      s.messages_materialized.load(std::memory_order_relaxed);
  out.message_bytes_materialized =
      out.messages_materialized * static_cast<std::int64_t>(sizeof(Message));
  out.cost_queries = s.cost_queries.load(std::memory_order_relaxed);
  out.intersection_probes =
      s.intersection_probes.load(std::memory_order_relaxed);
  out.moved_blocks_enumerated =
      s.moved_blocks_enumerated.load(std::memory_order_relaxed);
  out.cost_cache_hits = s.cost_cache_hits.load(std::memory_order_relaxed);
  out.cost_cache_misses = s.cost_cache_misses.load(std::memory_order_relaxed);
  return out;
}

namespace {

/// Intersecting (sender block, receiver block) pairs along one axis: each
/// sender block meets the receiver blocks of its overlapping part range,
/// minus the empty ones inside it. When n >= parts no block is empty, and
/// when n < parts every block holds at most one item, so the non-empty
/// receivers of [first, last] number min(last - first + 1, items covered).
std::int64_t count_axis_pairs(int n, int old_parts, int new_parts) {
  std::int64_t pairs = 0;
  for (int s = 0; s < old_parts; ++s) {
    const Span1D span = block_range(s, n, old_parts);
    if (span.count == 0) continue;
    const PartRange r =
        overlapping_parts(span.begin, span.end(), n, new_parts);
    const int covered = block_range(r.last, n, new_parts).end() -
                        block_range(r.first, n, new_parts).begin;
    pairs += std::min(r.last - r.first + 1, covered);
  }
  return pairs;
}

}  // namespace

std::int64_t count_redist_messages(const NestShape& nest, const Rect& old_rect,
                                   const Rect& new_rect, int grid_px) {
  // The decomposition is a tensor product of independent column and row
  // splits, so (sender block, receiver block) pairs with a non-empty
  // intersection factor into intersecting column-block pairs × intersecting
  // row-block pairs. The constructions validate the arguments exactly as
  // the fill loops would.
  [[maybe_unused]] const BlockDecomposition old_d(nest, old_rect, grid_px);
  [[maybe_unused]] const BlockDecomposition new_d(nest, new_rect, grid_px);
  return count_axis_pairs(nest.nx, old_rect.w, new_rect.w) *
         count_axis_pairs(nest.ny, old_rect.h, new_rect.h);
}

RedistPlan plan_redistribution(const NestShape& nest, const Rect& old_rect,
                               const Rect& new_rect, int grid_px,
                               int bytes_per_point) {
  ST_CHECK_MSG(bytes_per_point > 0, "bytes_per_point must be positive");
  RedistPlan plan;
  plan.total_points = static_cast<std::int64_t>(nest.nx) * nest.ny;
  plan.messages.reserve(static_cast<std::size_t>(
      count_redist_messages(nest, old_rect, new_rect, grid_px)));

  for_each_redist_block(
      nest, old_rect, new_rect, grid_px,
      [&](int sender, int receiver, const Rect& inter) {
        plan.messages.push_back(
            Message{sender, receiver, inter.area() * bytes_per_point});
        if (sender == receiver) plan.overlap_points += inter.area();
      });

  auto& counters = detail::redist_counter_state();
  counters.plans_built.fetch_add(1, std::memory_order_relaxed);
  counters.messages_materialized.fetch_add(
      static_cast<std::int64_t>(plan.messages.size()),
      std::memory_order_relaxed);
  return plan;
}

RedistCostSummary redistribution_cost_dense(const NestShape& nest,
                                            const Rect& old_rect,
                                            const Rect& new_rect, int grid_px,
                                            int bytes_per_point,
                                            const SimComm* comm) {
  ST_CHECK_MSG(bytes_per_point > 0, "bytes_per_point must be positive");
  RedistCostSummary s;
  s.total_points = static_cast<std::int64_t>(nest.nx) * nest.ny;
  const Topology* topo = comm != nullptr ? &comm->topology() : nullptr;
  const bool direct = topo != nullptr && topo->is_direct_network();

  // Per-rank serial times, indexed by global rank: the send sums are the
  // switched-network §IV-C-1 term, and both sides feed the ground-truth
  // phase time — each rank's terms added in walk (= message) order.
  thread_local RankTimeSums send_time;
  thread_local RankTimeSums recv_time;
  if (comm != nullptr) {
    send_time.begin(static_cast<std::size_t>(comm->size()));
    recv_time.begin(static_cast<std::size_t>(comm->size()));
  }

  for_each_redist_block(
      nest, old_rect, new_rect, grid_px,
      [&](int sender, int receiver, const Rect& inter) {
        const std::int64_t points = inter.area();
        const std::int64_t bytes = points * bytes_per_point;
        if (sender == receiver) {
          s.overlap_points += points;
          s.local_bytes += bytes;
          return;
        }
        s.total_bytes += bytes;
        s.num_messages += 1;
        if (topo == nullptr) return;
        const int h = comm->hops(sender, receiver);
        s.hop_bytes += bytes * h;
        s.max_hops = std::max(s.max_hops, h);
        const double t = topo->pair_time(h, bytes);
        if (direct) s.worst_pair_time = std::max(s.worst_pair_time, t);
        send_time.add(static_cast<std::size_t>(sender), t);
        recv_time.add(static_cast<std::size_t>(receiver), t);
      });
  if (comm != nullptr) {
    if (!direct) s.worst_sender_time = send_time.max();
    s.phase_time =
        comm->alltoallv_time(std::max(send_time.max(), recv_time.max()),
                             s.hop_bytes, s.total_bytes);
  }

  detail::redist_counter_state().cost_queries.fetch_add(
      1, std::memory_order_relaxed);
  return s;
}

// ---------------------------------------------------------- sparse pricing

namespace {

/// One per-dimension (sender block, receiver block) intersection.
struct AxisEntry {
  int r = 0;        ///< Receiver part index.
  int len = 0;      ///< Overlap length (> 0).
  bool diag = false;  ///< Sender and receiver sit on the same grid line.
};

/// Per-dimension pair list in CSR-by-sender-part layout, plus the closed-
/// form aggregates the 2-D summary factors into. Lives in thread-local
/// scratch: reset() keeps capacity, so steady-state pricing is
/// allocation-free like the dense walk it replaced.
struct AxisPairs {
  std::vector<AxisEntry> entries;  ///< Grouped by sender part, r ascending.
  std::vector<int> offsets;        ///< entries index per sender part (+1).
  std::vector<int> nonempty;       ///< Sender parts with >= 1 entry.
  std::vector<int> off_diag;       ///< Sender parts with >= 1 off-diag entry.
  std::int64_t pair_count = 0;
  std::int64_t diag_count = 0;
  std::int64_t diag_len = 0;       ///< Σ overlap length over diagonal pairs.

  void reset() {
    entries.clear();
    offsets.clear();
    nonempty.clear();
    off_diag.clear();
    pair_count = 0;
    diag_count = 0;
    diag_len = 0;
  }

  /// A sender part whose every intersection is diagonal (at most one per
  /// part and dimension) emits no off-rank message along this axis.
  [[nodiscard]] bool all_diag(int s) const {
    return offsets[static_cast<std::size_t>(s) + 1] ==
               offsets[static_cast<std::size_t>(s)] + 1 &&
           entries[static_cast<std::size_t>(offsets[
               static_cast<std::size_t>(s)])].diag;
  }
};

/// Build one dimension's pair list: for each sender block of the old split,
/// locate the overlapping receiver blocks of the new split via the interval
/// index (O(log parts) probes each) and record the surviving intersections.
/// A pair is *diagonal* when sender and receiver occupy the same absolute
/// grid line (old_origin + s == new_origin + r) — a message is local iff
/// both its column pair and its row pair are diagonal.
void build_axis_pairs(int n, int old_parts, int new_parts, int old_origin,
                      int new_origin, AxisPairs& out, std::int64_t& probes) {
  out.reset();
  out.offsets.reserve(static_cast<std::size_t>(old_parts) + 1);
  const BlockIntervalIndex index(n, new_parts);
  for (int s = 0; s < old_parts; ++s) {
    out.offsets.push_back(static_cast<int>(out.entries.size()));
    const Span1D span = block_range(s, n, old_parts);
    if (span.count == 0) continue;
    const PartRange pr = index.overlapping(span.begin, span.end(), &probes);
    bool any_off_diag = false;
    for (int r = pr.first; r <= pr.last; ++r) {
      const Span1D rs = block_range(r, n, new_parts);
      const int lo = std::max(span.begin, rs.begin);
      const int hi = std::min(span.end(), rs.end());
      if (hi <= lo) continue;  // empty receiver block inside the range
      const bool diag = old_origin + s == new_origin + r;
      out.entries.push_back(AxisEntry{r, hi - lo, diag});
      ++out.pair_count;
      if (diag) {
        ++out.diag_count;
        out.diag_len += hi - lo;
      } else {
        any_off_diag = true;
      }
    }
    if (static_cast<int>(out.entries.size()) > out.offsets.back())
      out.nonempty.push_back(s);
    if (any_off_diag) out.off_diag.push_back(s);
  }
  out.offsets.push_back(static_cast<int>(out.entries.size()));
}

/// Hop keys of one communicator's ranks, indexed by global rank. A key is
/// filled on first touch, which is also where its rank → node lookup and
/// node-range check run: once per distinct rank, not once per block. Lives
/// in thread-local scratch and stays valid across queries on the same
/// communicator, whose topology and mapping never change. Each slot records
/// the SimComm::id() it was filled for, and ids are never reused, so
/// switching communicators invalidates every slot at once: neither a switch
/// of machines nor Machine construction pays for the table's size. A slot
/// is 24 B, so a 1M-rank communicator leaves 24 MiB per topology class on
/// each thread that priced it; binding a communicator under a quarter of
/// that size releases a table above 64Ki slots (1.5 MiB), so a long-lived
/// worker does not keep the largest machine it has seen.
template <class Key>
class RankKeys {
 public:
  void bind(const SimComm& comm) {
    owner_ = comm.id();
    size_ = static_cast<std::size_t>(comm.size());
    if (slots_.size() > std::max<std::size_t>(4 * size_, 1 << 16))
      slots_ = std::vector<Slot>(size_);
    else if (slots_.size() < size_)
      slots_.resize(size_);
  }

  template <class Fill>
  [[nodiscard]] Key get(std::size_t rank, Fill&& fill) {
    // Also bounds every per-rank index of the query (RankTimeSums).
    ST_CHECK_MSG(rank < size_, "rank " << static_cast<std::int64_t>(rank)
                                       << " outside communicator of "
                                       << size_ << " ranks");
    Slot& slot = slots_[rank];
    if (slot.owner != owner_) {
      slot.key = fill();
      slot.owner = owner_;
    }
    return slot.key;
  }

 private:
  struct Slot {
    Key key{};
    std::uint64_t owner = 0;  ///< SimComm::id() of the key; ids start at 1.
  };
  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  std::uint64_t owner_ = 0;
};

/// Everything the moved-block loop reads, besides the hop kernel.
struct MovedBlocks {
  const SimComm& comm;
  const BlockDecomposition& old_d;
  const BlockDecomposition& new_d;
  const AxisPairs& cols;
  const AxisPairs& rows;
  int bytes_per_point;
};

/// Call \p fn with the concrete hop kernel of \p topo: resolved once per
/// query, so the per-block hop rule is an inlined, non-virtual call. A new
/// topology class has to add its kernel here; one without is refused.
template <class Fn>
decltype(auto) visit_hop_kernel(const ITopology& topo, Fn&& fn) {
  if (const auto* t = dynamic_cast<const Dragonfly*>(&topo)) return fn(*t);
  if (const auto* t = dynamic_cast<const Torus3D*>(&topo)) return fn(*t);
  if (const auto* t = dynamic_cast<const FatTree*>(&topo)) return fn(*t);
  if (const auto* t = dynamic_cast<const SwitchedNetwork*>(&topo))
    return fn(*t);
  const auto* mesh = dynamic_cast<const Mesh2D*>(&topo);
  ST_CHECK_MSG(mesh != nullptr, "no hop kernel for topology " << topo.name());
  return fn(*mesh);
}

/// Price every moved (off-rank) block of one query: fill the hop and time
/// fields of \p s and the moved-block count, and return the phase's serial
/// term, the largest per-sender or per-receiver time sum.
///
/// The blocks are enumerated in the dense walk's exact order: sender cells
/// row-major (j outer, i inner), receivers (rj outer, ri inner) within each
/// sender — the materialized plan's message order. Integer sums and float
/// maxes are order-free, but the per-sender and per-receiver time sums are
/// float *sums* folded into a max — this order is what keeps
/// worst_sender_time and phase_time bit-identical to
/// redistribution_cost_dense() and SimComm::alltoallv. Sender cells whose
/// column and row pairs are all diagonal move nothing and are skipped
/// wholesale (a fully-local sender contributes max(·, 0), which the initial
/// 0.0 already covers) — the identity-move fast path; every other sender
/// moves at least one block.
///
/// A rank's node is looked up and range-checked once per communicator and
/// thread (RankKeys; SimComm::hops checks both nodes of every pair), after
/// which a block costs one inlined hop rule of \p kernel on two keys.
template <class Kernel>
double price_moved_blocks(const Kernel& kernel, const MovedBlocks& q,
                          RedistCostSummary& s, std::int64_t& moved_blocks) {
  const Topology& topo = q.comm.topology();
  const Mapping& mapping = q.comm.mapping();
  thread_local RankKeys<typename Kernel::Key> keys;
  keys.bind(q.comm);
  const auto key_of = [&](std::size_t rank) {
    return keys.get(rank, [&] {
      const int node = mapping.node_of_rank(static_cast<int>(rank));
      kernel.require_node(node);  // non-virtual on the concrete class
      return kernel.key(node);
    });
  };
  // Per-receiver serial time of the ground-truth phase, by global rank.
  thread_local RankTimeSums recv_time;
  recv_time.begin(static_cast<std::size_t>(q.comm.size()));
  const bool direct = topo.is_direct_network();
  const Rect& new_rect = q.new_d.proc_rect();
  const std::size_t grid_px = static_cast<std::size_t>(q.new_d.grid_px());
  const AxisPairs& cols = q.cols;
  const AxisPairs& rows = q.rows;

  // Accumulate in locals: the per-receiver stores would otherwise alias
  // the summary's fields and force a reload of each one per block.
  std::int64_t hop_bytes = 0;
  std::int64_t moved = 0;
  int max_hops = 0;
  double worst_pair = 0.0;
  double worst_send = 0.0;
  for (const int j : rows.nonempty) {
    const int rb = rows.offsets[static_cast<std::size_t>(j)];
    const int re = rows.offsets[static_cast<std::size_t>(j) + 1];
    const std::vector<int>& col_list =
        rows.all_diag(j) ? cols.off_diag : cols.nonempty;
    for (const int i : col_list) {
      const int cb = cols.offsets[static_cast<std::size_t>(i)];
      const int ce = cols.offsets[static_cast<std::size_t>(i) + 1];
      const auto sender =
          key_of(static_cast<std::size_t>(q.old_d.rank_at(i, j)));
      double sender_sum = 0.0;
      for (int rj = rb; rj < re; ++rj) {
        const AxisEntry& row_pair = rows.entries[static_cast<std::size_t>(rj)];
        // Global rank of receiver block (0, row_pair.r): BlockDecomposition::
        // rank_at's arithmetic, within the rectangle by construction.
        const std::size_t row_rank =
            static_cast<std::size_t>(new_rect.y + row_pair.r) * grid_px +
            static_cast<std::size_t>(new_rect.x);
        for (int ci = cb; ci < ce; ++ci) {
          const AxisEntry& col_pair =
              cols.entries[static_cast<std::size_t>(ci)];
          if (row_pair.diag && col_pair.diag) continue;  // local block
          ++moved;
          const std::int64_t bytes = static_cast<std::int64_t>(col_pair.len) *
                                     row_pair.len * q.bytes_per_point;
          const std::size_t receiver =
              row_rank + static_cast<std::size_t>(col_pair.r);
          const int h = kernel.hops(sender, key_of(receiver));
          hop_bytes += bytes * h;
          max_hops = std::max(max_hops, h);
          const double t = topo.pair_time(h, bytes);
          if (direct) worst_pair = std::max(worst_pair, t);
          sender_sum += t;
          recv_time.add(receiver, t);
        }
      }
      worst_send = std::max(worst_send, sender_sum);
    }
  }
  s.hop_bytes = hop_bytes;
  s.max_hops = max_hops;
  s.worst_pair_time = worst_pair;
  if (!direct) s.worst_sender_time = worst_send;
  moved_blocks = moved;
  return std::max(worst_send, recv_time.max());
}

}  // namespace

RedistCostSummary redistribution_cost(const NestShape& nest,
                                      const Rect& old_rect,
                                      const Rect& new_rect, int grid_px,
                                      int bytes_per_point,
                                      const SimComm* comm) {
  ST_CHECK_MSG(bytes_per_point > 0, "bytes_per_point must be positive");
  // Same argument validation (and rank arithmetic) as the dense walk.
  const BlockDecomposition old_d(nest, old_rect, grid_px);
  const BlockDecomposition new_d(nest, new_rect, grid_px);

  thread_local AxisPairs cols;
  thread_local AxisPairs rows;
  std::int64_t probes = 0;
  build_axis_pairs(nest.nx, old_rect.w, new_rect.w, old_rect.x, new_rect.x,
                   cols, probes);
  build_axis_pairs(nest.ny, old_rect.h, new_rect.h, old_rect.y, new_rect.y,
                   rows, probes);

  // The 2-D aggregates factor over the tensor product: every (column pair,
  // row pair) combination is one intersecting (sender, receiver) block with
  // area clen·rlen, and it is local exactly when both pairs are diagonal.
  RedistCostSummary s;
  s.total_points = static_cast<std::int64_t>(nest.nx) * nest.ny;
  s.overlap_points = cols.diag_len * rows.diag_len;
  s.local_bytes = s.overlap_points * bytes_per_point;
  s.total_bytes = (s.total_points - s.overlap_points) * bytes_per_point;
  s.num_messages =
      cols.pair_count * rows.pair_count - cols.diag_count * rows.diag_count;

  std::int64_t moved_blocks = 0;
  // Without a moved block every comm-dependent field, phase_time included,
  // is zero (alltoallv charges an all-local phase nothing).
  if (comm != nullptr && s.num_messages > 0) {
    const MovedBlocks blocks{*comm, old_d, new_d, cols, rows, bytes_per_point};
    const double serial = visit_hop_kernel(
        comm->topology(), [&](const auto& kernel) {
          return price_moved_blocks(kernel, blocks, s, moved_blocks);
        });
    s.phase_time =
        comm->alltoallv_time(serial, s.hop_bytes, s.total_bytes);
  }

  auto& counters = detail::redist_counter_state();
  counters.cost_queries.fetch_add(1, std::memory_order_relaxed);
  counters.intersection_probes.fetch_add(probes, std::memory_order_relaxed);
  counters.moved_blocks_enumerated.fetch_add(moved_blocks,
                                             std::memory_order_relaxed);
  return s;
}

Grid2D<double> redistribute_field(const SimComm& comm,
                                  const Grid2D<double>& field,
                                  const Rect& old_rect, const Rect& new_rect,
                                  int grid_px, PayloadFaultHook* faults,
                                  TrafficReport* traffic) {
  const NestShape nest{field.width(), field.height()};

  // Build typed messages: one per intersecting (sender region, receiver
  // region) pair, payload = the intersection's values, row-major, prefixed
  // by the intersection rectangle (as 4 doubles) so the receiver can place
  // the block without global knowledge of the old decomposition.
  std::vector<TypedMessage<double>> msgs;
  msgs.reserve(static_cast<std::size_t>(
      count_redist_messages(nest, old_rect, new_rect, grid_px)));
  for_each_redist_block(
      nest, old_rect, new_rect, grid_px,
      [&](int sender, int receiver, const Rect& inter) {
        TypedMessage<double> m;
        m.src = sender;
        m.dst = receiver;
        m.payload.resize(static_cast<std::size_t>(inter.area()) + 4);
        m.payload[0] = inter.x;
        m.payload[1] = inter.y;
        m.payload[2] = inter.w;
        m.payload[3] = inter.h;
        double* out = m.payload.data() + 4;
        for (int y = inter.y; y < inter.y_end(); ++y, out += inter.w)
          std::copy_n(&field(inter.x, y), inter.w, out);
        msgs.push_back(std::move(m));
      });

  const ExchangeResult<double> ex =
      exchange_payloads(comm, std::move(msgs), faults);

  // Reassemble the field from delivered blocks (grouped by destination;
  // placement only needs every block once, in any deterministic order).
  Grid2D<double> out(nest.nx, nest.ny, 0.0);
  std::int64_t placed = 0;
  for (const TypedMessage<double>& m : ex.messages) {
    ST_CHECK_MSG(m.payload.size() >= 4, "malformed redistribution payload");
    const Rect inter{static_cast<int>(m.payload[0]),
                     static_cast<int>(m.payload[1]),
                     static_cast<int>(m.payload[2]),
                     static_cast<int>(m.payload[3])};
    ST_CHECK_MSG(static_cast<std::int64_t>(m.payload.size()) ==
                     inter.area() + 4,
                 "payload size does not match block " << inter);
    const double* in = m.payload.data() + 4;
    for (int y = inter.y; y < inter.y_end(); ++y, in += inter.w)
      std::copy_n(in, inter.w, &out(inter.x, y));
    placed += inter.area();
  }
  ST_CHECK_MSG(placed == static_cast<std::int64_t>(nest.nx) * nest.ny,
               "redistribution conservation violated: placed " << placed
                                                               << " of "
                                                               << nest.nx *
                                                                      nest.ny);
  // Placement copies values verbatim, so the reassembled field must be
  // bit-identical to the source; any mismatch means payload bytes were
  // damaged in flight.
  for (int y = 0; y < nest.ny; ++y)
    for (int x = 0; x < nest.nx; ++x)
      ST_CHECK_MSG(std::bit_cast<std::uint64_t>(out(x, y)) ==
                       std::bit_cast<std::uint64_t>(field(x, y)),
                   "redistribution integrity violated at (" << x << ", " << y
                                                            << ")");
  if (traffic != nullptr) *traffic = ex.traffic;
  return out;
}

}  // namespace stormtrack
