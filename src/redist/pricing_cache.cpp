#include "redist/pricing_cache.hpp"

#include <mutex>

namespace stormtrack {

std::size_t PricingCache::KeyHash::operator()(const Key& k) const {
  // FNV-1a over scope then the key's ints: cheap, deterministic across
  // platforms.
  std::uint64_t h = 1469598103934665603ULL;
  for (int shift = 0; shift < 64; shift += 8) {
    h ^= (k.scope >> shift) & 0xffULL;
    h *= 1099511628211ULL;
  }
  const int fields[] = {k.nest_nx, k.nest_ny, k.old_x, k.old_y,
                        k.old_w,   k.old_h,   k.new_x, k.new_y,
                        k.new_w,   k.new_h,   k.grid_px, k.bytes_per_point};
  for (const int f : fields) {
    h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(f));
    h *= 1099511628211ULL;
  }
  return static_cast<std::size_t>(h);
}

RedistCostSummary PricingCache::price(std::uint64_t scope,
                                      const NestShape& nest,
                                      const Rect& old_rect,
                                      const Rect& new_rect, int grid_px,
                                      int bytes_per_point,
                                      const SimComm* comm) {
  const Key key{scope,       nest.nx,    nest.ny,    old_rect.x, old_rect.y,
                old_rect.w,  old_rect.h, new_rect.x, new_rect.y, new_rect.w,
                new_rect.h,  grid_px,    bytes_per_point};
  auto& counters = detail::redist_counter_state();
  {
    std::shared_lock lock(mutex_);
    if (const auto it = entries_.find(key); it != entries_.end()) {
      // A served pricing is still a pricing: cost_queries counts requests,
      // not recomputations (hotpath instrumentation keys off it).
      counters.cost_queries.fetch_add(1, std::memory_order_relaxed);
      counters.cost_cache_hits.fetch_add(1, std::memory_order_relaxed);
      hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  // Compute outside any lock (redistribution_cost bumps cost_queries and
  // the probe counters itself).
  const RedistCostSummary summary = redistribution_cost(
      nest, old_rect, new_rect, grid_px, bytes_per_point, comm);
  counters.cost_cache_misses.fetch_add(1, std::memory_order_relaxed);
  misses_.fetch_add(1, std::memory_order_relaxed);
  {
    std::unique_lock lock(mutex_);
    if (entries_.size() >= max_entries_) entries_.clear();
    entries_.emplace(key, summary);
  }
  return summary;
}

PricingCache::Stats PricingCache::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  return s;
}

std::size_t PricingCache::size() const {
  std::shared_lock lock(mutex_);
  return entries_.size();
}

}  // namespace stormtrack
