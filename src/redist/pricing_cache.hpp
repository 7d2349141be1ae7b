#pragma once

/// \file pricing_cache.hpp
/// Memoized redistribution pricing for the adaptation hot path.
///
/// The pipeline prices every retained nest against every candidate at every
/// adaptation point, but between points most of those queries repeat: in
/// the diffusion steady state a nest whose subtree did not change (see
/// tree_delta.hpp) keeps its rectangle, so its (shape, old, new, grid,
/// bytes) key — and therefore its RedistCostSummary — is identical to the
/// previous point's. PricingCache serves those repeats from a hash map;
/// misses fall through to the sparse redistribution_cost().
///
/// Every entry is keyed on an explicit 64-bit *scope* as well
/// (Machine::fingerprint(): label + process grid, which pins topology,
/// mapping, and decomposition), so one instance is safe for any number of
/// communicators: equal scope implies equal cost semantics, different
/// scopes never collide. Entries are pure functions of (scope, key), so a
/// hit returns exactly the summary a cold caller would have computed. Each
/// pipeline owns an instance; the daemon's supervisor injects one shared
/// instance into every session instead, so sessions on the same machine
/// model warm each other. Either way results are bit-identical.
///
/// Counter contract: a hit still counts as a cost query in the
/// process-wide RedistCounters (pricings requested, however served) and
/// bumps cost_cache_hits; misses bump cost_cache_misses. Those totals live
/// in RedistCounters — never in a pipeline's MetricsRegistry — because a
/// resumed run restarts with a cold cache and checkpoint resume guarantees
/// identical metric totals. The instance also keeps its own hit/miss
/// totals so the daemon can report the sharing win separately
/// (server.pricing_shared_hits).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <shared_mutex>
#include <unordered_map>

#include "redist/redistributor.hpp"

namespace stormtrack {

/// See file comment. Thread-safe: price() races with itself and stats();
/// the normal case is candidates (and, in the daemon, sessions) pricing
/// concurrently on a shared executor pool.
class PricingCache {
 public:
  /// \p max_entries bounds the map across all scopes; reaching it flushes
  /// everything (summaries are pure functions of the key, so flush timing
  /// cannot change any result).
  explicit PricingCache(std::size_t max_entries = 1 << 18)
      : max_entries_(max_entries) {}

  /// Lifetime hit/miss totals for this instance (distinct from the global
  /// RedistCounters, which aggregate every cache in the process).
  struct Stats {
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    [[nodiscard]] double hit_rate() const {
      const std::int64_t total = hits + misses;
      return total > 0 ? static_cast<double>(hits) / static_cast<double>(total)
                       : 0.0;
    }
  };

  /// Cached equivalent of redistribution_cost(nest, old_rect, new_rect,
  /// grid_px, bytes_per_point, comm), memoized under (scope, key). \p comm
  /// must be the communicator \p scope stands for — callers derive both
  /// from the same Machine.
  [[nodiscard]] RedistCostSummary price(std::uint64_t scope,
                                        const NestShape& nest,
                                        const Rect& old_rect,
                                        const Rect& new_rect, int grid_px,
                                        int bytes_per_point,
                                        const SimComm* comm);

  /// Instance hit/miss totals; see Stats.
  [[nodiscard]] Stats stats() const;

  /// Current number of memoized summaries across all scopes.
  [[nodiscard]] std::size_t size() const;

 private:
  struct Key {
    std::uint64_t scope;
    int nest_nx, nest_ny;
    int old_x, old_y, old_w, old_h;
    int new_x, new_y, new_w, new_h;
    int grid_px, bytes_per_point;
    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const;
  };

  mutable std::shared_mutex mutex_;
  std::unordered_map<Key, RedistCostSummary, KeyHash> entries_;
  std::size_t max_entries_;
  std::atomic<std::int64_t> hits_{0};
  std::atomic<std::int64_t> misses_{0};
};

}  // namespace stormtrack
