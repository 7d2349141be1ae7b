#include "host.hpp"

#include <sys/resource.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>

namespace stbench {

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

CpuPin::CpuPin() {
  if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
  for (int c = CPU_SETSIZE - 1; c >= 0; --c) {
    if (!CPU_ISSET(c, &saved_)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(c, &one);
    if (sched_setaffinity(0, sizeof one, &one) == 0) cpu_ = c;
    return;
  }
}

CpuPin::~CpuPin() {
  if (cpu_ >= 0) sched_setaffinity(0, sizeof saved_, &saved_);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double load_average_1m() {
  double load[1] = {-1.0};
  return getloadavg(load, 1) == 1 ? load[0] : -1.0;
}

std::string filesystem_type(const std::filesystem::path& path) {
  struct statfs fs {};
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53UL: return "ext4";
    case 0x01021994UL: return "tmpfs";
    case 0x794C7630UL: return "overlayfs";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x6969UL: return "nfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

std::string context_line(const std::string& workload, unsigned long long seed,
                         const std::filesystem::path& state_dir,
                         double load_before, double load_after) {
  const char* omp = std::getenv("OMP_NUM_THREADS");
  // Context switches over the whole run: many involuntary ones mean the
  // run waited for a CPU, many voluntary ones that it waited on I/O.
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "context: workload=%s seed=%llu nproc=%ld build=%s "
                "omp_threads=%s load_1m_before=%.2f load_1m_after=%.2f "
                "state_fs=%s switches_voluntary=%ld switches_involuntary=%ld",
                workload.c_str(), seed, sysconf(_SC_NPROCESSORS_ONLN),
                STBENCH_BUILD_TYPE, omp != nullptr ? omp : "unset",
                load_before, load_after, filesystem_type(state_dir).c_str(),
                usage.ru_nvcsw, usage.ru_nivcsw);
  return buf;
}

}  // namespace stbench
