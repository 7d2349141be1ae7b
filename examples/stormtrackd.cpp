/// \file stormtrackd.cpp
/// The stormtrack session daemon: accepts tracking sessions over a
/// Unix-domain socket, runs them under admission control, deadlines, and
/// supervised retries, and survives crashes — a killed daemon restarted on
/// the same state directory requeues unfinished sessions and resumes them
/// from their checkpoints (see docs/ARCHITECTURE.md "Service layer").
///
/// Usage:
///   stormtrackd --socket /tmp/stormtrack.sock --state-dir state
///   stormtrackctl --socket /tmp/stormtrack.sock submit --intervals 40
///
/// Exit codes: 0 clean shutdown (client `shutdown` request or
/// SIGTERM/SIGINT), 2 bad arguments, 4 runtime failure.

#include <csignal>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <iostream>
#include <optional>
#include <string>

#include "serve/server.hpp"
#include "serve/supervisor.hpp"
#include "util/check.hpp"
#include "util/fs_fault.hpp"

using namespace stormtrack;

namespace {

constexpr int kExitOk = 0;
constexpr int kExitBadArgs = 2;
constexpr int kExitRuntime = 4;

struct Options {
  std::string socket = "stormtrack.sock";
  std::string state_dir = "stormtrack-state";
  ServeLimits limits;
  ServerConfig server;
  std::string fs_fault;  ///< --inject-fs-fault spec, empty = none.
};

[[noreturn]] void usage(int code) {
  std::cout <<
      "stormtrackd — supervised multi-session tracking daemon\n"
      "  --socket PATH          Unix-domain socket to listen on\n"
      "                         (default stormtrack.sock)\n"
      "  --state-dir DIR        journal + per-session checkpoints\n"
      "                         (default stormtrack-state); restarting on\n"
      "                         a used state dir recovers its sessions\n"
      "  --max-active N         admitted (running) sessions at once; an\n"
      "                         admission bound, not a thread count\n"
      "                         (default 2)\n"
      "  --max-queued N         queued sessions before REJECTED_BUSY\n"
      "                         (default 8)\n"
      "  --deadline S           default per-session wall-clock budget in\n"
      "                         seconds, 0 = unlimited (default 0)\n"
      "  --retries N            attempts per session before quarantine\n"
      "                         (default 3)\n"
      "  --backoff S            first retry backoff seconds (default 0.05)\n"
      "  --checkpoint-every N   checkpoint cadence in intervals (default 1)\n"
      "  --pool-threads N       worker threads that cooperatively slice\n"
      "                         all running sessions, one adaptation\n"
      "                         interval per slice; 0 = one per\n"
      "                         --max-active slot (default 0)\n"
      "  --aging S              queue-wait seconds per +1 effective\n"
      "                         priority in the fair queue; 0 disables\n"
      "                         aging (default 0.5)\n"
      "  --read-deadline S      a client that starts a frame must finish\n"
      "                         it within S seconds, 0 = unbounded\n"
      "                         (default 10)\n"
      "  --write-deadline S     a reply must be drained by the peer\n"
      "                         within S seconds, 0 = unbounded\n"
      "                         (default 10)\n"
      "  --inject-fs-fault SPEC chaos testing: fail matching service\n"
      "                         writes/fsyncs. SPEC is\n"
      "                         OP:PATH_SUBSTR[:skip=N][:count=M]\n"
      "                         [:errno=ENOSPC|EIO|NUM][:short=K], e.g.\n"
      "                         write:sessions.stjl:skip=4:count=2:errno=ENOSPC\n"
      "  --help\n";
  std::exit(code);
}

std::optional<Options> parse(int argc, char** argv) {
  Options opt;
  auto need_value = [&](int& i, const char* flag) -> const char* {
    if (i + 1 >= argc) {
      std::cerr << flag << " needs a value\n";
      return nullptr;
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* value = nullptr;
    if (std::strcmp(arg, "--help") == 0) usage(kExitOk);
    if (std::strcmp(arg, "--socket") == 0) {
      if ((value = need_value(i, arg)) == nullptr) return std::nullopt;
      opt.socket = value;
    } else if (std::strcmp(arg, "--state-dir") == 0) {
      if ((value = need_value(i, arg)) == nullptr) return std::nullopt;
      opt.state_dir = value;
    } else if (std::strcmp(arg, "--max-active") == 0) {
      if ((value = need_value(i, arg)) == nullptr) return std::nullopt;
      opt.limits.max_active = std::atoi(value);
    } else if (std::strcmp(arg, "--max-queued") == 0) {
      if ((value = need_value(i, arg)) == nullptr) return std::nullopt;
      opt.limits.max_queued = std::atoi(value);
    } else if (std::strcmp(arg, "--deadline") == 0) {
      if ((value = need_value(i, arg)) == nullptr) return std::nullopt;
      opt.limits.session_deadline_seconds = std::atof(value);
    } else if (std::strcmp(arg, "--retries") == 0) {
      if ((value = need_value(i, arg)) == nullptr) return std::nullopt;
      opt.limits.max_attempts = std::atoi(value);
    } else if (std::strcmp(arg, "--backoff") == 0) {
      if ((value = need_value(i, arg)) == nullptr) return std::nullopt;
      opt.limits.backoff_seconds = std::atof(value);
    } else if (std::strcmp(arg, "--checkpoint-every") == 0) {
      if ((value = need_value(i, arg)) == nullptr) return std::nullopt;
      opt.limits.checkpoint_every = std::atoi(value);
    } else if (std::strcmp(arg, "--pool-threads") == 0) {
      if ((value = need_value(i, arg)) == nullptr) return std::nullopt;
      opt.limits.pool_threads = std::atoi(value);
    } else if (std::strcmp(arg, "--aging") == 0) {
      if ((value = need_value(i, arg)) == nullptr) return std::nullopt;
      opt.limits.aging_seconds = std::atof(value);
    } else if (std::strcmp(arg, "--read-deadline") == 0) {
      if ((value = need_value(i, arg)) == nullptr) return std::nullopt;
      opt.server.read_deadline_seconds = std::atof(value);
    } else if (std::strcmp(arg, "--write-deadline") == 0) {
      if ((value = need_value(i, arg)) == nullptr) return std::nullopt;
      opt.server.write_deadline_seconds = std::atof(value);
    } else if (std::strcmp(arg, "--inject-fs-fault") == 0) {
      if ((value = need_value(i, arg)) == nullptr) return std::nullopt;
      opt.fs_fault = value;
    } else {
      std::cerr << "unknown flag " << arg << " (try --help)\n";
      return std::nullopt;
    }
  }
  if (opt.limits.max_active <= 0 || opt.limits.max_queued < 0 ||
      opt.limits.max_attempts <= 0 || opt.limits.checkpoint_every <= 0 ||
      opt.limits.pool_threads < 0) {
    std::cerr << "limits must be positive (--max-queued may be 0)\n";
    return std::nullopt;
  }
  return opt;
}

/// SIGTERM/SIGINT request a graceful stop. The handler only flips a flag
/// (async-signal-safe); the main thread polls it.
volatile std::sig_atomic_t g_signalled = 0;

extern "C" void on_signal(int) { g_signalled = 1; }

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Options> opt = parse(argc, argv);
  if (!opt.has_value()) return kExitBadArgs;

  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
  std::signal(SIGPIPE, SIG_IGN);

  try {
    if (!opt->fs_fault.empty()) {
      fs_fault_install(parse_fs_fault_spec(opt->fs_fault));
      std::cout << "stormtrackd: fs fault injection armed (" << opt->fs_fault
                << ")" << std::endl;
    }
    SessionSupervisor supervisor(opt->state_dir, opt->limits);
    const SessionSupervisor::RecoveryReport recovery = supervisor.recover();
    supervisor.start();

    ServerConfig server_config = opt->server;
    server_config.socket_path = opt->socket;
    SessionServer server(supervisor, server_config);
    server.start();
    std::cout << "stormtrackd listening on " << opt->socket << " (state "
              << opt->state_dir << ", " << recovery.requeued
              << " session(s) requeued, " << recovery.terminal
              << " finished recovered)" << std::endl;

    // Serve until a client asks for shutdown or a signal arrives. The
    // signal path must not touch locks from the handler, hence the poll.
    while (!server.shutdown_requested() && g_signalled == 0) {
      struct timespec delay = {0, 50 * 1000 * 1000};  // 50 ms
      nanosleep(&delay, nullptr);
    }
    std::cout << "stormtrackd stopping ("
              << (g_signalled != 0 ? "signal" : "shutdown request") << ")"
              << std::endl;
    server.stop();
    supervisor.stop();
    return kExitOk;
  } catch (const std::exception& e) {
    std::cerr << "stormtrackd: " << e.what() << "\n";
    return kExitRuntime;
  }
}
