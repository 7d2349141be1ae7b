#pragma once

/// \file host.hpp
/// Host and process readings: CPU time, peak memory, load, filesystem.

#include <sched.h>

#include <filesystem>
#include <string>

namespace stbench {

/// User + system CPU seconds of the whole process (all threads).
[[nodiscard]] double process_cpu_seconds();
/// Peak resident set size of the process so far, in MiB.
[[nodiscard]] double peak_rss_mb();
/// One-minute load average, or -1 when unavailable.
[[nodiscard]] double load_average_1m();
/// Name of the filesystem holding \p path ("ext4", "tmpfs", ...).
[[nodiscard]] std::string filesystem_type(const std::filesystem::path& path);
/// Pins the calling thread, and every thread it starts while pinned, to
/// one CPU: the highest-numbered one the process may run on. The
/// destructor restores the calling thread's previous mask; threads started
/// meanwhile stay pinned.
class CpuPin {
 public:
  CpuPin();
  ~CpuPin();
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;
  /// The CPU pinned to, or -1 when the mask could not be read or set.
  [[nodiscard]] int cpu() const { return cpu_; }

 private:
  cpu_set_t saved_{};
  int cpu_ = -1;
};

/// One line stamping the run context, for diagnosing noisy runs later.
[[nodiscard]] std::string context_line(const std::string& workload,
                                       unsigned long long seed,
                                       const std::filesystem::path& state_dir,
                                       double load_before, double load_after);

}  // namespace stbench
