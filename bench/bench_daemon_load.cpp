/// \file bench_daemon_load.cpp
/// Load generator for stormtrackd: hammer a live daemon (in-process
/// supervisor + server over a real Unix socket) with short sessions from
/// concurrent client threads, and pin the scheduler's overload behavior.
///
/// Four phases:
///
///   load       8 client threads × 25 sessions, closed loop over the
///              socket, rejected submits retried — all 200 must complete.
///              p50/p99 submit-to-done latency and sessions/second are
///              advisory (1-CPU CI runners); counter_completed gates.
///   burst      a 500-session open burst against a 2-thread pool with
///              max_active=500: admission is an in-memory bound, not a
///              thread count, so the pool admits everything up front. The
///              binary asserts the structural claims (all 500 complete,
///              the pool rejects nothing, the shared pricing cache is
///              warm); wall-clock rates and latencies are advisory.
///   overload   a deterministic admission script against an *unstarted*
///              supervisor (the queue never drains, so the counts are
///              exact): low-priority fillers, a shedding high-priority
///              wave, then a same-priority wave that must be rejected.
///   aging      one priority-0 victim behind a continuous stream of
///              priority-9 sessions through a single admission slot. The
///              aging credit must lift the victim to completion before the
///              stream ends: counter_starved is 0 by construction or the
///              binary itself fails (ST_CHECK), so a starvation regression
///              cannot slip through as "just a counter drift".
///
/// The deterministic `counter_*` fields are diffed against
/// bench/baselines/BENCH_daemon_load.json by
/// tools/check_bench_regression.py in the CI daemon-chaos job.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/supervisor.hpp"
#include "util/check.hpp"
#include "util/table.hpp"

namespace stormtrack {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

constexpr int kClientThreads = 8;
constexpr int kSessionsPerThread = 25;

SessionSpec short_session(std::uint64_t seed, int priority = 0) {
  SessionSpec spec;
  spec.cores = 256;
  spec.intervals = 1;
  spec.seed = seed;
  spec.priority = priority;
  return spec;
}

double percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  std::sort(sorted.begin(), sorted.end());
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

fs::path scratch_dir(const std::string& phase) {
  return fs::temp_directory_path() /
         ("st_bench_load_" + phase + "_" + std::to_string(::getpid()));
}

struct LoadResult {
  double wall_seconds = 0.0;
  std::int64_t completed = 0;
  std::int64_t rejections = 0;  ///< Retried REJECTED_BUSY responses.
  double p50 = 0.0;
  double p99 = 0.0;
};

/// Phase 1: closed-loop load over the socket.
LoadResult run_load_phase() {
  const fs::path dir = scratch_dir("load");
  fs::remove_all(dir);
  const fs::path socket =
      fs::temp_directory_path() /
      ("st_bld_" + std::to_string(::getpid()) + ".sock");

  ServeLimits limits;
  limits.max_active = 2;
  limits.max_queued = 8;
  limits.aging_seconds = 0.05;
  SessionSupervisor supervisor(dir, limits);
  supervisor.start();
  ServerConfig config;
  config.socket_path = socket;
  config.read_deadline_seconds = 10.0;
  config.write_deadline_seconds = 10.0;
  SessionServer server(supervisor, config);
  server.start();

  std::vector<std::vector<double>> latencies(kClientThreads);
  std::vector<std::int64_t> rejections(kClientThreads, 0);
  const auto started = Clock::now();
  std::vector<std::thread> clients;
  clients.reserve(kClientThreads);
  for (int t = 0; t < kClientThreads; ++t) {
    clients.emplace_back([&, t] {
      ClientConnection client(socket);
      for (int i = 0; i < kSessionsPerThread; ++i) {
        const auto submit_at = Clock::now();
        SessionSpec spec = short_session(
            static_cast<std::uint64_t>(1000 + t * 100 + i));
        spec.tenant = "thread-" + std::to_string(t);
        std::uint64_t id = 0;
        while (true) {
          const auto reply = client.submit(spec);
          if (reply.accepted) {
            id = reply.id;
            break;
          }
          ++rejections[static_cast<std::size_t>(t)];
          // Honor the daemon's retry-after hint, capped to keep the
          // closed loop tight on slow runners.
          const double wait =
              std::min(reply.estimated_wait_seconds, 0.02);
          std::this_thread::sleep_for(
              std::chrono::duration<double>(std::max(wait, 0.001)));
        }
        const SessionStatus done =
            client.attach(id, 0, [](const SessionEvent&) {});
        ST_CHECK_MSG(done.state == SessionState::kDone,
                     "load session " << id << " ended "
                                     << to_string(done.state));
        latencies[static_cast<std::size_t>(t)].push_back(
            std::chrono::duration<double>(Clock::now() - submit_at)
                .count());
      }
    });
  }
  for (std::thread& c : clients) c.join();

  LoadResult result;
  result.wall_seconds =
      std::chrono::duration<double>(Clock::now() - started).count();
  result.completed = supervisor.metrics().get("server.completed").count;
  std::vector<double> all;
  for (const auto& per_thread : latencies) {
    all.insert(all.end(), per_thread.begin(), per_thread.end());
    }
  for (const std::int64_t r : rejections) result.rejections += r;
  result.p50 = percentile(all, 0.50);
  result.p99 = percentile(all, 0.99);

  server.stop();
  supervisor.stop();
  fs::remove_all(dir);
  ST_CHECK_MSG(result.completed == kClientThreads * kSessionsPerThread,
               "expected every submitted session to complete, got "
                   << result.completed);
  return result;
}

constexpr int kBurstSessions = 500;
constexpr int kBurstClients = 4;

struct BurstResult {
  double wall_seconds = 0.0;    ///< First submit to last completion.
  double admit_seconds = 0.0;   ///< First submit to last *acceptance*.
  std::int64_t completed = 0;
  std::int64_t pricing_hits = 0;
  double p50 = 0.0;
  double p99 = 0.0;
};

/// The burst: submit kBurstSessions as fast as the daemon will take them,
/// then drain every session to done. Unlike the closed-loop load phase,
/// every client submits its whole share *before* waiting on any result,
/// so admission capacity, not client pacing, is what the burst measures.
BurstResult run_burst_phase(const ServeLimits& limits) {
  const fs::path dir = scratch_dir("burst_pool");
  fs::remove_all(dir);
  const fs::path socket =
      fs::temp_directory_path() /
      ("st_bb_pool_" + std::to_string(::getpid()) + ".sock");

  SessionSupervisor supervisor(dir, limits);
  supervisor.start();
  ServerConfig config;
  config.socket_path = socket;
  config.read_deadline_seconds = 10.0;
  config.write_deadline_seconds = 10.0;
  SessionServer server(supervisor, config);
  server.start();

  constexpr int kPerClient = kBurstSessions / kBurstClients;
  static_assert(kPerClient * kBurstClients == kBurstSessions);
  std::vector<std::vector<double>> latencies(kBurstClients);
  std::vector<Clock::time_point> last_accept(kBurstClients);
  const auto started = Clock::now();
  std::vector<std::thread> clients;
  clients.reserve(kBurstClients);
  for (int t = 0; t < kBurstClients; ++t) {
    clients.emplace_back([&, t] {
      ClientConnection client(socket);
      std::vector<std::uint64_t> ids;
      std::vector<Clock::time_point> submit_at;
      ids.reserve(kPerClient);
      submit_at.reserve(kPerClient);
      for (int i = 0; i < kPerClient; ++i) {
        submit_at.push_back(Clock::now());
        // Two intervals (the second is where adaptation candidates get
        // priced) and a small seed pool: sessions with the same seed are
        // the repeat customers the shared pricing cache exists for.
        SessionSpec spec = short_session(
            static_cast<std::uint64_t>(5000 + (t * kPerClient + i) % 10));
        spec.intervals = 2;
        spec.tenant = "burst-" + std::to_string(t);
        const auto reply = client.submit(spec);
        ST_CHECK_MSG(reply.accepted,
                     "burst submit rejected: " << reply.reason);
        ids.push_back(reply.id);
      }
      last_accept[static_cast<std::size_t>(t)] = Clock::now();
      for (int i = 0; i < kPerClient; ++i) {
        const SessionStatus done =
            client.attach(ids[static_cast<std::size_t>(i)], 0,
                          [](const SessionEvent&) {});
        ST_CHECK_MSG(done.state == SessionState::kDone,
                     "burst session " << ids[static_cast<std::size_t>(i)]
                                      << " ended "
                                      << to_string(done.state));
        latencies[static_cast<std::size_t>(t)].push_back(
            std::chrono::duration<double>(Clock::now() -
                                          submit_at[static_cast<
                                              std::size_t>(i)])
                .count());
      }
    });
  }
  for (std::thread& c : clients) c.join();

  BurstResult result;
  result.wall_seconds =
      std::chrono::duration<double>(Clock::now() - started).count();
  for (const Clock::time_point at : last_accept) {
    result.admit_seconds =
        std::max(result.admit_seconds,
                 std::chrono::duration<double>(at - started).count());
  }
  const MetricsRegistry metrics = supervisor.metrics();
  result.completed = metrics.get("server.completed").count;
  result.pricing_hits = metrics.get("server.pricing_shared_hits").count;
  const std::int64_t rejected_busy =
      metrics.get("server.rejected_busy").count;
  std::vector<double> all;
  for (const auto& per_thread : latencies) {
    all.insert(all.end(), per_thread.begin(), per_thread.end());
  }
  result.p50 = percentile(all, 0.50);
  result.p99 = percentile(all, 0.99);

  server.stop();
  supervisor.stop();
  fs::remove_all(dir);
  ST_CHECK_MSG(result.completed == kBurstSessions,
               "burst: expected " << kBurstSessions
                        << " completions, got " << result.completed);
  // The pool admits the whole burst: nothing is ever turned away, and
  // identical sessions price their candidates out of the shared cache.
  ST_CHECK_MSG(rejected_busy == 0,
               "shared pool rejected " << rejected_busy << " burst submits");
  ST_CHECK_MSG(result.pricing_hits > 0,
               "shared pricing cache never hit across "
                   << kBurstSessions << " identical sessions");
  return result;
}

struct OverloadResult {
  std::int64_t shed = 0;
  std::int64_t rejected_busy = 0;
  std::int64_t shed_bulk_tenant = 0;
};

/// Phase 2: exact admission arithmetic against an unstarted supervisor.
OverloadResult run_overload_phase() {
  const fs::path dir = scratch_dir("overload");
  fs::remove_all(dir);
  ServeLimits limits;
  limits.max_active = 1;
  limits.max_queued = 4;
  limits.aging_seconds = 0.0;  // pure nominal priorities: exact counts
  SessionSupervisor supervisor(dir, limits);  // never started: queue holds

  // Fill the queue with low-priority bulk work.
  for (int i = 0; i < 4; ++i) {
    SessionSpec spec = short_session(static_cast<std::uint64_t>(10 + i), 0);
    spec.tenant = "bulk";
    const auto reply = supervisor.submit(spec);
    ST_CHECK_MSG(reply.admission == SessionSupervisor::Admission::kAccepted,
                 "filler " << i << " not accepted: " << reply.reason);
  }
  // A high-priority wave sheds every filler (newest first)...
  for (int i = 0; i < 4; ++i) {
    const auto reply = supervisor.submit(
        short_session(static_cast<std::uint64_t>(20 + i), 5));
    ST_CHECK_MSG(reply.admission == SessionSupervisor::Admission::kAccepted,
                 "shedding submit " << i << " not accepted: "
                                    << reply.reason);
  }
  // ...and a second wave at the same priority finds nothing to shed.
  for (int i = 0; i < 4; ++i) {
    const auto reply = supervisor.submit(
        short_session(static_cast<std::uint64_t>(30 + i), 5));
    ST_CHECK_MSG(
        reply.admission == SessionSupervisor::Admission::kRejectedBusy,
        "equal-priority submit " << i << " should have been rejected");
  }

  OverloadResult result;
  const MetricsRegistry metrics = supervisor.metrics();
  result.shed = metrics.get("server.shed_sessions").count;
  result.rejected_busy = metrics.get("server.rejected_busy").count;
  result.shed_bulk_tenant = metrics.get("server.shed_by_tenant.bulk").count;
  supervisor.stop();
  fs::remove_all(dir);
  return result;
}

struct AgingResult {
  std::int64_t starved = 0;
  /// How deep into the 30-session hostile stream the victim completed
  /// (advisory; lower = aging lifted it sooner).
  std::int64_t victim_done_at_stream_position = 0;
};

/// Phase 3: zero starvation under a sustained high-priority stream.
AgingResult run_aging_phase() {
  const fs::path dir = scratch_dir("aging");
  fs::remove_all(dir);
  ServeLimits limits;
  limits.max_active = 1;  // one slot: the victim must *win* pops to run
  limits.max_queued = 4;
  limits.aging_seconds = 0.01;
  SessionSupervisor supervisor(dir, limits);
  supervisor.start();

  // Occupy the slot first (submit admits at once) so the victim actually
  // waits in the queue and has to out-age the hostile stream to get
  // popped.
  const auto blocker = supervisor.submit(
      short_session(499, /*priority=*/9));
  ST_CHECK_MSG(blocker.admission == SessionSupervisor::Admission::kAccepted,
               "blocker not accepted");
  const auto victim =
      supervisor.submit(short_session(500, /*priority=*/0));
  ST_CHECK_MSG(victim.admission == SessionSupervisor::Admission::kAccepted,
               "victim not accepted");

  constexpr int kStream = 30;
  AgingResult result;
  std::vector<std::uint64_t> stream_ids;
  for (int i = 0; i < kStream; ++i) {
    SessionSpec spec =
        short_session(static_cast<std::uint64_t>(600 + i), /*priority=*/9);
    // Keep one queue slot free: a high-priority submit into a *full*
    // queue sheds the victim outright, which is overload behavior
    // (phase 2), not the starvation question. Only this thread submits,
    // so a below-capacity check cannot race into a shed.
    while (supervisor.queued_count() >= limits.max_queued) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    const auto reply = supervisor.submit(spec);
    ST_CHECK_MSG(reply.admission == SessionSupervisor::Admission::kAccepted,
                 "stream submit " << i << " not accepted: " << reply.reason);
    stream_ids.push_back(reply.id);
    if (result.victim_done_at_stream_position == 0 &&
        supervisor.status(victim.id).state == SessionState::kDone) {
      result.victim_done_at_stream_position = i + 1;
    }
  }
  // The victim must not still be waiting once the hostile stream has been
  // fully submitted and drained.
  for (const std::uint64_t id : stream_ids) {
    (void)supervisor.wait_terminal(id);
  }
  const SessionStatus final_victim = supervisor.wait_terminal(victim.id);
  if (result.victim_done_at_stream_position == 0) {
    // Finished only after the stream: that is starvation the aging
    // credit was supposed to prevent.
    result.starved = 1;
  }
  ST_CHECK_MSG(final_victim.state == SessionState::kDone,
               "victim ended " << to_string(final_victim.state));
  ST_CHECK_MSG(result.starved == 0,
               "priority-0 session starved behind "
                   << kStream << " priority-9 sessions");
  supervisor.stop();
  fs::remove_all(dir);
  return result;
}

}  // namespace
}  // namespace stormtrack

int main(int argc, char** argv) {
  using namespace stormtrack;
  bench::JsonSummary summary("daemon_load");

  const LoadResult load = run_load_phase();
  const double per_second =
      load.wall_seconds > 0
          ? static_cast<double>(load.completed) / load.wall_seconds
          : 0.0;
  summary
      .add_row("load", load.wall_seconds, kClientThreads, load.completed)
      .add_field("counter_completed", static_cast<double>(load.completed))
      .add_field("rejections_retried",
                 static_cast<double>(load.rejections))
      .add_field("latency_p50_seconds", load.p50)
      .add_field("latency_p99_seconds", load.p99)
      .add_field("sessions_per_second", per_second);

  ServeLimits pool_limits;
  pool_limits.pool_threads = 2;
  pool_limits.max_active = kBurstSessions;
  pool_limits.max_queued = kBurstSessions;
  pool_limits.aging_seconds = 0.05;
  const BurstResult pool = run_burst_phase(pool_limits);

  const auto admit_rate = [](const BurstResult& r) {
    return r.admit_seconds > 0
               ? static_cast<double>(kBurstSessions) / r.admit_seconds
               : 0.0;
  };
  const auto done_rate = [](const BurstResult& r) {
    return r.wall_seconds > 0
               ? static_cast<double>(kBurstSessions) / r.wall_seconds
               : 0.0;
  };
  summary
      .add_row("burst_pool", pool.wall_seconds, 2, kBurstSessions)
      .add_field("counter_completed", static_cast<double>(pool.completed))
      .add_field("counter_rejected_busy", 0.0)
      .add_field("counter_shared_pricing_warm",
                 pool.pricing_hits > 0 ? 1.0 : 0.0)
      .add_field("admit_seconds", pool.admit_seconds)
      .add_field("admitted_per_second", admit_rate(pool))
      .add_field("latency_p50_seconds", pool.p50)
      .add_field("latency_p99_seconds", pool.p99)
      .add_field("sessions_per_second", done_rate(pool));

  const OverloadResult overload = run_overload_phase();
  summary.add_row("overload", 0.0, 1, 12)
      .add_field("counter_shed", static_cast<double>(overload.shed))
      .add_field("counter_rejected_busy",
                 static_cast<double>(overload.rejected_busy))
      .add_field("counter_shed_by_tenant_bulk",
                 static_cast<double>(overload.shed_bulk_tenant));

  const AgingResult aging = run_aging_phase();
  summary.add_row("aging", 0.0, 1, 31)
      .add_field("counter_starved", static_cast<double>(aging.starved))
      .add_field("victim_done_at_stream_position",
                 static_cast<double>(aging.victim_done_at_stream_position));

  Table table({"Phase", "Sessions", "Wall s", "p50 s", "p99 s", "Notes"});
  table.set_title("stormtrackd load generator");
  table.add_row({"load", std::to_string(load.completed),
                 Table::num(load.wall_seconds, 3), Table::num(load.p50, 4),
                 Table::num(load.p99, 4),
                 std::to_string(load.rejections) + " rejects retried"});
  table.add_row({"burst_pool", std::to_string(pool.completed),
                 Table::num(pool.wall_seconds, 3), Table::num(pool.p50, 4),
                 Table::num(pool.p99, 4),
                 "admitted in " + Table::num(pool.admit_seconds, 3) + "s, " +
                     std::to_string(pool.pricing_hits) + " pricing hits"});
  table.add_row({"overload", "12", "-", "-", "-",
                 std::to_string(overload.shed) + " shed, " +
                     std::to_string(overload.rejected_busy) + " rejected"});
  table.add_row({"aging", "31", "-", "-", "-",
                 "victim done at stream position " +
                     std::to_string(aging.victim_done_at_stream_position)});
  table.print(std::cout);
  std::cout << "Zero starvation is asserted in-binary; the counter_* "
               "fields gate against\nbench/baselines/BENCH_daemon_load.json "
               "in the CI daemon-chaos job.\n";

  if (const auto path = bench::json_output_path(argc, argv)) {
    summary.write(*path);
  }
  return 0;
}
