#include "util/atomic_file.hpp"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <fstream>
#include <system_error>

#include <cstring>

#include "util/check.hpp"
#include "util/fs_fault.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#define STORMTRACK_HAVE_FSYNC 1
#endif

namespace stormtrack {

namespace {

/// Unique-per-call temp sibling: pid + a process-wide counter, so
/// concurrent writers (sweep workers, parallel test cases) never collide
/// on the same temp name even when targeting the same destination.
std::filesystem::path temp_sibling(const std::filesystem::path& path) {
  static std::atomic<std::uint64_t> counter{0};
  const std::uint64_t n = counter.fetch_add(1, std::memory_order_relaxed);
#if STORMTRACK_HAVE_FSYNC
  const long pid = static_cast<long>(::getpid());
#else
  const long pid = 0;
#endif
  return path.parent_path() /
         (path.filename().string() + ".tmp." + std::to_string(pid) + "." +
          std::to_string(n));
}

std::atomic<std::uint64_t> g_files_written{0};
std::atomic<std::uint64_t> g_file_syncs{0};
std::atomic<std::uint64_t> g_dir_syncs{0};

/// fsync a file or directory by path (no-op on platforms without fsync).
/// A failed file sync throws: the data may not be on the device, so the
/// write must fail, injected or real. Directory syncs only strengthen the
/// rename's durability ordering, and some filesystems refuse to open or
/// sync directories; the rename is still atomic, so their failures are
/// not worth failing the write over.
void sync_path(const std::filesystem::path& path, bool directory) {
  const FsFaultDecision fault = fs_fault_decide("fsync", path);
  int error_no = fault.fail ? fault.error_no : 0;
#if STORMTRACK_HAVE_FSYNC
  if (!fault.fail) {
    const int fd =
        ::open(path.c_str(), directory ? O_RDONLY | O_DIRECTORY : O_RDONLY);
    if (fd < 0 || ::fsync(fd) != 0) {
      error_no = errno;
    } else {
      (directory ? g_dir_syncs : g_file_syncs)
          .fetch_add(1, std::memory_order_relaxed);
    }
    if (fd >= 0) ::close(fd);
  }
#endif
  if (error_no == 0 || directory) return;
  ST_CHECK_MSG(false, "fsync of " << path << " failed: "
                                  << std::strerror(error_no)
                                  << (fault.fail ? " (injected fault)" : ""));
}

}  // namespace

void write_file_atomic(const std::filesystem::path& path,
                       std::span<const std::byte> bytes) {
  ST_CHECK_MSG(!path.empty(), "write_file_atomic: empty path");
  const FsFaultDecision fault = fs_fault_decide("write", path);
  if (fault.fail) {
    // The destination is untouched: the fault lands before the temp file
    // exists, like open() or the first write returning ENOSPC would.
    ST_CHECK_MSG(false, "cannot write " << path << ": "
                                        << std::strerror(fault.error_no)
                                        << " (injected fault)");
  }
  if (!path.parent_path().empty())
    std::filesystem::create_directories(path.parent_path());
  const std::filesystem::path tmp = temp_sibling(path);
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    ST_CHECK_MSG(os.good(), "cannot open " << tmp << " for writing");
    if (!bytes.empty())
      os.write(reinterpret_cast<const char*>(bytes.data()),
               static_cast<std::streamsize>(bytes.size()));
    os.flush();
    if (!os.good()) {
      os.close();
      std::error_code ignored;
      std::filesystem::remove(tmp, ignored);
      ST_CHECK_MSG(false, "failed writing " << bytes.size() << " bytes to "
                                            << tmp);
    }
  }
  try {
    sync_path(tmp, /*directory=*/false);
  } catch (...) {
    std::error_code ignored;
    std::filesystem::remove(tmp, ignored);
    throw;
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::error_code ignored;
    std::filesystem::remove(tmp, ignored);
    ST_CHECK_MSG(false, "atomic rename " << tmp << " -> " << path
                                         << " failed: " << ec.message());
  }
  const std::filesystem::path dir =
      path.parent_path().empty() ? std::filesystem::path(".")
                                 : path.parent_path();
  sync_path(dir, /*directory=*/true);
  g_files_written.fetch_add(1, std::memory_order_relaxed);
}

AtomicFileCounters atomic_file_counters() {
  AtomicFileCounters c;
  c.files_written = g_files_written.load(std::memory_order_relaxed);
  c.file_syncs = g_file_syncs.load(std::memory_order_relaxed);
  c.dir_syncs = g_dir_syncs.load(std::memory_order_relaxed);
  return c;
}

void write_file_atomic(const std::filesystem::path& path,
                       std::string_view text) {
  write_file_atomic(
      path, std::span<const std::byte>(
                reinterpret_cast<const std::byte*>(text.data()), text.size()));
}

std::vector<std::byte> read_file_bytes(const std::filesystem::path& path) {
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  ST_CHECK_MSG(is.good(), "cannot open " << path << " for reading");
  const std::streamsize size = is.tellg();
  ST_CHECK_MSG(size >= 0, "cannot determine size of " << path);
  is.seekg(0);
  std::vector<std::byte> bytes(static_cast<std::size_t>(size));
  if (size > 0) is.read(reinterpret_cast<char*>(bytes.data()), size);
  ST_CHECK_MSG(is.good() || size == 0, "failed reading " << path);
  return bytes;
}

}  // namespace stormtrack
