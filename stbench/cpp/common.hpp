#pragma once

/// \file common.hpp
/// Shared types of the stbench binary: the command line, the result every
/// workload hands back, and small timing helpers.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "host.hpp"

namespace stbench {

using Clock = std::chrono::steady_clock;

/// Parsed command line (see main.cpp for the flags).
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< Measured window per run.
  bool trace = false;     ///< Per-layer run instead of the end-to-end one.
  /// Per-process scratch directory for checkpoints, the journal and the
  /// socket; created empty and removed at exit.
  std::filesystem::path state_dir;
  /// Where the traced run writes its spans (JSON lines), next to the
  /// per-run state directories.
  std::filesystem::path spans_out;
  bool tiny = false;  ///< Smoke-test sizes.
  /// Negative test: perturb one expected fingerprint so the workload's
  /// correctness check must fail.
  bool corrupt_expected = false;
};

/// One named metric value with its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// One unit completed in a measured window.
struct UnitSample {
  Clock::time_point end;     ///< When the unit completed.
  double cpu_seconds = 0.0;  ///< Process CPU (all threads) at that moment.
  double latency_ms = 0.0;   ///< The unit's own latency.
};

/// A sample for a unit that began at \p begin and has just completed.
inline UnitSample unit_done(Clock::time_point begin) {
  UnitSample u;
  u.end = Clock::now();
  u.cpu_seconds = process_cpu_seconds();
  u.latency_ms =
      std::chrono::duration<double, std::milli>(u.end - begin).count();
  return u;
}

/// Totals of one measured window.
struct Window {
  Clock::time_point start;     ///< When the window opened.
  double cpu_start = 0.0;      ///< Process CPU when the window opened.
  std::int64_t completed = 0;  ///< Units completed.
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;    ///< Process CPU, all threads.
  [[nodiscard]] double rate() const {
    return wall_seconds > 0 ? static_cast<double>(completed) / wall_seconds
                            : 0.0;
  }
};

/// What a workload run hands back to main.
struct RunResult {
  std::int64_t attempted = 0;  ///< Units started in the measured window.
  std::int64_t failed = 0;     ///< Units that failed or checked wrong.
  bool correct = true;         ///< Every correctness check passed.
  std::string unit_name;       ///< "interval", "session", "point".
  std::vector<double> setup_seconds;  ///< One per set-up repetition.
  /// One per unit completed in the measured window (end-to-end runs).
  std::vector<UnitSample> units;
  Clock::time_point start;           ///< Measured window start.
  double cpu_start = 0.0;            ///< Process CPU at the window start.
  double cpu_seconds = 0.0;          ///< Process CPU in the window.
  /// Peak resident memory in MiB, read before the correctness references
  /// run (each workload says at which point).
  double peak_rss_mb = 0.0;
  double wall_seconds = 0.0;         ///< Measured window wall time.
  std::int64_t completed = 0;        ///< Units completed in the window.
  /// Traced runs only: per-layer metrics by name.
  std::map<std::string, Metric> layers;
  /// Human-readable lines printed before the result (context, findings,
  /// the per-layer table).
  std::vector<std::string> notes;

  void set_window(const Window& w) {
    start = w.start;
    cpu_start = w.cpu_start;
    completed = w.completed;
    wall_seconds = w.wall_seconds;
    cpu_seconds = w.cpu_seconds;
  }
};

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline std::int64_t to_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

/// SplitMix64: derives independent sub-seeds from the run's --seed.
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Run fn(i) for every i in [0, n) on \p threads threads; rethrows the
/// first exception. Used for the correctness references, which run after
/// the measured window.
template <class Fn>
void parallel_for_each(std::size_t n, int threads, Fn fn) {
  std::atomic<std::size_t> next{0};
  std::mutex mutex;
  std::exception_ptr error;
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = next++; i < n; i = next++) {
        try {
          fn(i);
        } catch (...) {
          const std::lock_guard<std::mutex> lock(mutex);
          if (error == nullptr) error = std::current_exception();
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
  if (error != nullptr) std::rethrow_exception(error);
}

/// Threads for the correctness references.
inline constexpr int kReferenceThreads = 3;

RunResult run_field_ckpt(const Options& opt);
RunResult run_daemon_sessions(const Options& opt);
RunResult run_trace_replay(const Options& opt);

}  // namespace stbench
