#pragma once

/// \file shared_pool.hpp
/// A process-shared executor pool for many concurrent submitters.
///
/// ThreadPoolExecutor is already safe for concurrent parallel_for calls
/// from any thread and nesting-safe (submitters participate in their own
/// batches). What it lacks for serving hundreds of sessions from one pool
/// is *observability*: when the daemon multiplexes every session's
/// candidate pricing onto one pool, operators need to see how loaded the
/// pool is — how many batches are in flight, how many task bodies are on
/// CPU right now, and how many submitters are currently inside
/// parallel_for — to distinguish "throughput-bound" from "admission-bound".
///
/// SharedPoolExecutor is a thin facade adding exactly that: a live
/// occupancy snapshot on top of the lifetime ExecutorStats counters. It
/// changes no scheduling — batches run FIFO on the wrapped pool with the
/// same determinism contract (slot-per-index writes, lowest-failing-index
/// rethrow, submitter participation), so serial vs shared-pool results
/// stay byte-identical.
///
/// Oversubscription rule: components that are handed a SharedPoolExecutor
/// must submit into it instead of constructing private ThreadPoolExecutors
/// — N sessions each spawning their own pool multiplies threads by N and
/// thrashes the cores the shared pool was sized for. The service layer
/// follows it by construction: every session's pipeline gets the
/// supervisor's one pool, and ServeLimits has no per-session thread knob.

#include <cstdint>

#include "exec/executor.hpp"

namespace stormtrack {

/// Instantaneous + lifetime view of a shared pool's load. Gauges are
/// sampled racily (relaxed atomics) — fine for stats reporting, not for
/// synchronization.
struct PoolOccupancy {
  int threads = 1;                       ///< Worker threads in the pool.
  std::int64_t inflight_batches = 0;     ///< parallel_for calls in progress.
  std::int64_t running_tasks = 0;        ///< Task bodies executing right now.
  std::int64_t submitted_batches = 0;    ///< Lifetime batches submitted.
  std::int64_t completed_batches = 0;    ///< Lifetime batches completed.
};

/// See file comment. Thread-safe: any number of threads may call
/// parallel_for concurrently; occupancy() may be sampled from any thread.
class SharedPoolExecutor final : public Executor {
 public:
  /// \p threads worker threads; 0 = default_thread_count().
  explicit SharedPoolExecutor(int threads = 0);

  SharedPoolExecutor(const SharedPoolExecutor&) = delete;
  SharedPoolExecutor& operator=(const SharedPoolExecutor&) = delete;

  using Executor::parallel_for;

  [[nodiscard]] int concurrency() const override;
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& body) override;
  [[nodiscard]] ExecutorStats stats() const override;

  /// Live load snapshot; see PoolOccupancy.
  [[nodiscard]] PoolOccupancy occupancy() const;

 private:
  ThreadPoolExecutor pool_;
  std::atomic<std::int64_t> inflight_{0};
  std::atomic<std::int64_t> running_{0};
  std::atomic<std::int64_t> submitted_{0};
  std::atomic<std::int64_t> completed_{0};
};

}  // namespace stormtrack
