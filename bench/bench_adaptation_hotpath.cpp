/// \file bench_adaptation_hotpath.cpp
/// Candidate-pricing throughput of the adaptation hot path: the streaming
/// redistribution-cost walk (redistribution_cost + RedistTimeModel) plus
/// the memoized execution-time model, at 64–4096 BG/L ranks and 1–8 nests.
///
/// This is the perf-regression anchor for the allocation-free pricing
/// path. Besides advisory wall times (1-CPU CI runners make wall time too
/// noisy to gate on), every row pins *deterministic* counters that the CI
/// perf-smoke job diffs against bench/baselines/BENCH_adaptation.json via
/// tools/check_bench_regression.py:
///
///   counter_cost_queries            streaming pricings performed
///   counter_plans_built             RedistPlan materializations — must
///                                   stay 0 in the pricing loop
///   counter_messages_materialized   Message structs pushed — must stay 0
///   counter_intersection_probes     interval-index bisection steps
///   counter_moved_blocks            off-rank blocks enumerated
///   counter_exec_lookups            ExecTimeModel::predict calls
///   counter_exec_misses             cold interpolations (cache misses)
///
/// A regression that reintroduces message-vector materialization into
/// pricing, or defeats the exec-model memo cache, moves these counters far
/// beyond the 25% gate even when wall time hides it.
///
/// A second, extreme-scale section prices at 65536–1048576 ranks on all
/// four topology models (rows "topo=<name>/ranks=<P>", pricing-only, no
/// exec model). Those rows pin the same counters AND assert in-binary
/// (CheckError -> nonzero exit) that intersection probes stay sub-linear
/// in the rank count — the dense sender×receiver walk this path replaced
/// was Ω(P) per query, so quadratic behaviour cannot sneak past the drift
/// gate.
///
/// A last row, "pipeline/topo=dragonfly/ranks=1024", covers the whole
/// adaptation path rather than pricing alone: run_trace under the dynamic
/// strategy on a synthetic trace. Candidate pricing and the ground-truth
/// Redistribute stage both read the streaming cost summaries, so this row
/// pins counter_plans_built = counter_messages_materialized = 0 for the
/// full pipeline (also asserted in-binary) next to its cost queries and
/// moved blocks, and reports its wall time per moved block (advisory).

#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/experiment.hpp"
#include "core/machine.hpp"
#include "core/traces.hpp"
#include "perfmodel/redist_model.hpp"
#include "redist/redistributor.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace stormtrack {
namespace {

/// One retained nest at one adaptation point: price moving `shape` from
/// `old_rect` to `new_rect`.
struct PricingCase {
  NestShape shape;
  Rect old_rect;
  Rect new_rect;
};

Rect random_rect(Xoshiro256& rng, int px, int py) {
  const int w = static_cast<int>(rng.uniform_int(1, px));
  const int h = static_cast<int>(rng.uniform_int(1, py));
  const int x = static_cast<int>(rng.uniform_int(0, px - w));
  const int y = static_cast<int>(rng.uniform_int(0, py - h));
  return Rect{x, y, w, h};
}

/// The pricing workload of `points` adaptation points over `nests` nests.
/// Shapes and rects recur across points (a pool, like real traces where
/// the same nests persist between events) so the exec-model cache sees the
/// recurrence it is built for; everything is drawn from a fixed-seed
/// Xoshiro so the counter fields are bit-deterministic across runs and
/// machines.
std::vector<PricingCase> make_workload(int points, int nests, int px, int py,
                                       std::uint64_t seed) {
  Xoshiro256 rng(seed);
  const int pool_size = 4 * nests;
  std::vector<NestShape> shapes;
  shapes.reserve(static_cast<std::size_t>(pool_size));
  for (int i = 0; i < pool_size; ++i)
    shapes.push_back(NestShape{static_cast<int>(rng.uniform_int(100, 450)),
                               static_cast<int>(rng.uniform_int(100, 450))});
  std::vector<std::pair<Rect, Rect>> moves;
  moves.reserve(16);
  for (int i = 0; i < 16; ++i)
    moves.emplace_back(random_rect(rng, px, py), random_rect(rng, px, py));

  std::vector<PricingCase> out;
  out.reserve(static_cast<std::size_t>(points) *
              static_cast<std::size_t>(nests));
  for (int p = 0; p < points; ++p)
    for (int n = 0; n < nests; ++n) {
      const auto& [old_rect, new_rect] =
          moves[static_cast<std::size_t>((p * 5 + n * 3) % 16)];
      out.push_back(PricingCase{
          shapes[static_cast<std::size_t>((p + n) % pool_size)], old_rect,
          new_rect});
    }
  return out;
}

/// Counter deltas from \p before to \p after.
RedistCounters counter_delta(const RedistCounters& before,
                             const RedistCounters& after) {
  RedistCounters d;
  d.cost_queries = after.cost_queries - before.cost_queries;
  d.plans_built = after.plans_built - before.plans_built;
  d.messages_materialized =
      after.messages_materialized - before.messages_materialized;
  d.message_bytes_materialized =
      after.message_bytes_materialized - before.message_bytes_materialized;
  d.intersection_probes =
      after.intersection_probes - before.intersection_probes;
  d.moved_blocks_enumerated =
      after.moved_blocks_enumerated - before.moved_blocks_enumerated;
  return d;
}

struct RowResult {
  double wall_seconds = 0.0;
  std::int64_t cases = 0;
  RedistCounters redist;          ///< Deltas over the pricing loop.
  ExecModelCacheStats exec;
  double checksum = 0.0;          ///< Defeats dead-code elimination.
};

RowResult run_config(int ranks, int nests) {
  const Machine machine = Machine::bluegene(ranks);
  const RedistTimeModel redist_model(machine.comm());
  // Fresh model per row: the exec lookup/miss counters of each row are
  // independent of the row execution order.
  const ModelStack models;

  constexpr int kPoints = 192;
  constexpr int kRepeats = 3;
  const std::vector<PricingCase> workload =
      make_workload(kPoints, nests, machine.grid_px(), machine.grid_py(),
                    0x9e3779b9ULL ^ (static_cast<std::uint64_t>(ranks) << 8) ^
                        static_cast<std::uint64_t>(nests));

  RowResult row;
  const RedistCounters before = redist_counters();
  const auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < kRepeats; ++r)
    for (const PricingCase& c : workload) {
      const RedistCostSummary cost = redistribution_cost(
          c.shape, c.old_rect, c.new_rect, machine.grid_px(),
          kDefaultBytesPerPoint, &machine.comm());
      row.checksum += redist_model.predict(cost);
      row.checksum += models.model.predict(
          c.shape, static_cast<int>(c.new_rect.area()));
    }
  const auto t1 = std::chrono::steady_clock::now();
  const RedistCounters after = redist_counters();

  row.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  row.cases = static_cast<std::int64_t>(workload.size()) * kRepeats;
  row.redist = counter_delta(before, after);
  row.exec = models.model.cache_stats();
  return row;
}

// ------------------------------------------------- extreme-scale section

/// Pricing-only row at extreme rank counts: no exec model, no plans — the
/// sparse interval-index walk is the only per-candidate work that survives
/// at this scale.
RowResult run_extreme(const std::string& topo, int ranks) {
  const Machine machine = Machine::by_name(topo, ranks);
  constexpr int kQueries = 24;
  const std::vector<PricingCase> workload =
      make_workload(kQueries, 1, machine.grid_px(), machine.grid_py(),
                    0x5ca1ab1eULL ^ (static_cast<std::uint64_t>(ranks) << 4) ^
                        static_cast<std::uint64_t>(topo.size()));

  RowResult row;
  const RedistCounters before = redist_counters();
  const auto t0 = std::chrono::steady_clock::now();
  for (const PricingCase& c : workload) {
    const RedistCostSummary cost = redistribution_cost(
        c.shape, c.old_rect, c.new_rect, machine.grid_px(),
        kDefaultBytesPerPoint, &machine.comm());
    row.checksum += static_cast<double>(cost.hop_bytes) +
                    cost.worst_pair_time + cost.worst_sender_time;
  }
  const auto t1 = std::chrono::steady_clock::now();
  const RedistCounters after = redist_counters();

  row.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  row.cases = static_cast<std::int64_t>(workload.size());
  row.redist = counter_delta(before, after);

  // The scaling gate: grid-spanning rects probe O((w + h) · log P) — far
  // below one probe per rank. Linear (let alone quadratic) behaviour
  // trips this long before the counter-drift gate would notice.
  const double per_query = static_cast<double>(row.redist.intersection_probes) /
                           static_cast<double>(row.redist.cost_queries);
  ST_CHECK_MSG(per_query < static_cast<double>(ranks),
               topo << " at " << ranks << " ranks: " << per_query
                    << " probes/query is not sub-linear in the rank count");
  return row;
}

// ------------------------------------------------ whole adaptation path

/// run_trace under the dynamic strategy: every stage of every adaptation
/// point, the ground-truth Redistribute stage included. Serial (the
/// default executor), so the pipeline's own pricing cache — and with it
/// the moved-block count — is deterministic.
RowResult run_pipeline(const std::string& topo, int ranks) {
  const Machine machine = Machine::by_name(topo, ranks);
  const ModelStack models;
  SyntheticTraceConfig cfg;
  cfg.num_events = 30;
  cfg.seed = 0xada97;
  const Trace trace = generate_synthetic_trace(cfg);

  RowResult row;
  const RedistCounters before = redist_counters();
  const auto t0 = std::chrono::steady_clock::now();
  const TraceRunResult run =
      run_trace(machine, models.model, models.truth, "dynamic", trace);
  const auto t1 = std::chrono::steady_clock::now();
  row.redist = counter_delta(before, redist_counters());

  row.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  row.cases = static_cast<std::int64_t>(trace.size());
  row.checksum = run.total();
  ST_CHECK_MSG(row.redist.plans_built == 0 &&
                   row.redist.messages_materialized == 0,
               topo << " at " << ranks << " ranks: the adaptation path built "
                    << row.redist.plans_built << " plans ("
                    << row.redist.messages_materialized << " messages)");
  return row;
}

}  // namespace
}  // namespace stormtrack

int main(int argc, char** argv) {
  using namespace stormtrack;

  constexpr int kRanks[] = {64, 256, 1024, 4096};
  constexpr int kNests[] = {1, 2, 4, 8};

  bench::JsonSummary summary("adaptation_hotpath");
  Table table({"Ranks", "Nests", "Pricings", "Wall (ms)", "Pricings/s",
               "Plans built", "Exec hit rate"});
  table.set_title(
      "Candidate-pricing throughput (streaming cost + memoized exec model)");

  for (const int ranks : kRanks)
    for (const int nests : kNests) {
      const RowResult row = run_config(ranks, nests);
      const double per_second =
          row.wall_seconds > 0.0
              ? static_cast<double>(row.cases) / row.wall_seconds
              : 0.0;
      table.add_row({std::to_string(ranks), std::to_string(nests),
                     std::to_string(row.cases),
                     Table::num(row.wall_seconds * 1e3, 2),
                     Table::num(per_second, 0),
                     std::to_string(row.redist.plans_built),
                     Table::num(row.exec.hit_rate(), 3)});
      summary
          .add_row("ranks=" + std::to_string(ranks) +
                       "/nests=" + std::to_string(nests),
                   row.wall_seconds, 1, row.cases)
          .add_field("counter_cost_queries",
                     static_cast<double>(row.redist.cost_queries))
          .add_field("counter_plans_built",
                     static_cast<double>(row.redist.plans_built))
          .add_field("counter_messages_materialized",
                     static_cast<double>(row.redist.messages_materialized))
          .add_field("counter_intersection_probes",
                     static_cast<double>(row.redist.intersection_probes))
          .add_field("counter_moved_blocks",
                     static_cast<double>(
                         row.redist.moved_blocks_enumerated))
          .add_field("counter_exec_lookups",
                     static_cast<double>(row.exec.lookups))
          .add_field("counter_exec_misses",
                     static_cast<double>(row.exec.misses))
          .add_field("pricings_per_second", per_second)
          .add_field("checksum", row.checksum);
    }

  table.print(std::cout);

  const std::string kTopos[] = {"bgl", "fist", "dragonfly", "fattree"};
  constexpr int kExtremeRanks[] = {65536, 262144, 1048576};
  Table extreme({"Topology", "Ranks", "Queries", "Wall (ms)",
                 "Probes/query", "Blocks/query", "Plans built"});
  extreme.set_title(
      "Extreme-scale pricing (interval-index only, 65k-1M ranks)");
  for (const std::string& topo : kTopos) {
    double probes_at_min = 0.0;
    for (const int ranks : kExtremeRanks) {
      const RowResult row = run_extreme(topo, ranks);
      const double probes_per_query =
          static_cast<double>(row.redist.intersection_probes) /
          static_cast<double>(row.redist.cost_queries);
      if (ranks == kExtremeRanks[0]) probes_at_min = probes_per_query;
      // Axis extents grow 4x over the sweep; probes grow ~ axis · log
      // axis. A 16x jump would mean the index degenerated to a scan.
      ST_CHECK_MSG(probes_per_query <= 8.0 * probes_at_min,
                   topo << " probe growth " << probes_at_min << " -> "
                        << probes_per_query
                        << " across the rank sweep is super-logarithmic");
      extreme.add_row(
          {topo, std::to_string(ranks), std::to_string(row.cases),
           Table::num(row.wall_seconds * 1e3, 2),
           Table::num(probes_per_query, 1),
           Table::num(static_cast<double>(
                          row.redist.moved_blocks_enumerated) /
                          static_cast<double>(row.redist.cost_queries),
                      0),
           std::to_string(row.redist.plans_built)});
      summary
          .add_row("topo=" + topo + "/ranks=" + std::to_string(ranks),
                   row.wall_seconds, 1, row.cases)
          .add_field("counter_cost_queries",
                     static_cast<double>(row.redist.cost_queries))
          .add_field("counter_plans_built",
                     static_cast<double>(row.redist.plans_built))
          .add_field("counter_messages_materialized",
                     static_cast<double>(row.redist.messages_materialized))
          .add_field("counter_intersection_probes",
                     static_cast<double>(row.redist.intersection_probes))
          .add_field("counter_moved_blocks",
                     static_cast<double>(
                         row.redist.moved_blocks_enumerated))
          .add_field("probes_per_query", probes_per_query)
          .add_field("checksum", row.checksum);
    }
  }
  extreme.print(std::cout);

  {
    const RowResult row = run_pipeline("dragonfly", 1024);
    // Wall time per moved block, the pricing kernel's unit of work
    // (advisory, like every wall time here; the counters are the gate).
    const double ns_per_block =
        row.redist.moved_blocks_enumerated > 0
            ? row.wall_seconds * 1e9 /
                  static_cast<double>(row.redist.moved_blocks_enumerated)
            : 0.0;
    std::cout << "\nWhole adaptation path (run_trace, dynamic, dragonfly/1024): "
              << row.cases << " points, " << row.redist.cost_queries
              << " cost queries, " << row.redist.moved_blocks_enumerated
              << " moved blocks, " << row.redist.plans_built
              << " plans built, " << Table::num(row.wall_seconds * 1e3, 2)
              << " ms, " << Table::num(ns_per_block, 1)
              << " ns per moved block\n";
    summary
        .add_row("pipeline/topo=dragonfly/ranks=1024", row.wall_seconds, 1,
                 row.cases)
        .add_field("counter_cost_queries",
                   static_cast<double>(row.redist.cost_queries))
        .add_field("counter_plans_built",
                   static_cast<double>(row.redist.plans_built))
        .add_field("counter_messages_materialized",
                   static_cast<double>(row.redist.messages_materialized))
        .add_field("counter_moved_blocks",
                   static_cast<double>(row.redist.moved_blocks_enumerated))
        .add_field("ns_per_moved_block", ns_per_block)
        .add_field("checksum", row.checksum);
  }

  std::cout << "Pricing and the whole adaptation path must build zero plans "
               "and materialize\nzero messages (counters above); wall times "
               "are advisory, the counter_* fields\nare the regression gate. "
               "The extreme-scale rows additionally assert\nsub-linear probe "
               "growth in-binary.\n";

  if (const auto path = bench::json_output_path(argc, argv))
    summary.write(*path);
  return 0;
}
