/// \file daemon_sessions.cpp
/// Workload `daemon_sessions`: closed-loop sessions through the daemon.
///
/// One process hosts a SessionSupervisor with a one-thread shared pool and
/// the default admission bounds, behind a SessionServer on a Unix socket,
/// with the daemon's threads and the clients pinned to one CPU.
/// Three client threads each run a closed loop over the wire: submit, then
/// follow the session's events to DONE, then submit the next. Callers that
/// wait for their reply make a closed loop, so the offered load falls when
/// the daemon slows and no backlog grows with run length (an open loop
/// near saturation does grow one, which is what made earlier measurements
/// of this path depend on how long they ran).
///
/// Sessions mix the `field` and `particles` workloads at 2, 4 and 8
/// intervals over several scenario seeds derived from --seed; a shared
/// ticket hands the specs out round-robin, so every run completes a
/// balanced mix. This is the only workload that exercises serve
/// (admission, FairQueue, pool slicing, the journal, the protocol). The
/// unit is one session, submit to DONE.
///
/// Correctness: each distinct spec's DONE fingerprint must equal a direct
/// CoupledSimulation of that spec (computed outside the measured window).
/// A rejected submit, a transport error or a non-DONE session counts as a
/// failed unit.

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "ckpt/framed_log.hpp"
#include "common.hpp"
#include "core/coupled.hpp"
#include "core/experiment.hpp"
#include "core/machine.hpp"
#include "host.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/session_journal.hpp"
#include "serve/supervisor.hpp"
#include "trace.hpp"
#include "util/atomic_file.hpp"

namespace stbench {
namespace {

using namespace stormtrack;

struct Sizes {
  int clients = 3;
  /// One pool worker. It still slices the two admitted sessions round-robin
  /// one interval at a time, with the third client's session waiting in
  /// the FairQueue. With two workers each session's pipeline hands about
  /// 46 parallel batches across them, and throughput then followed how
  /// often a wake-up landed on another vCPU: it spread by a fifth to a
  /// third of its median across runs of the same code.
  int pool_threads = 1;
  /// Scenario seeds per (workload, length) shape. A session's cost depends
  /// on its scenario's nest count; many seeds per shape keep the mix's
  /// mean cost, and the latency percentiles that cut through the six
  /// shapes, close from one --seed to the next.
  int seeds = 96;
  std::vector<int> lengths{2, 4, 8};
  double warmup_s = 1.0;
  int setup_reps = 31;
  /// Session checkpoint cadence (stormtrackd --checkpoint-every). Every
  /// session still checkpoints, at every 4th interval and at the end; at
  /// the default of 1 a session makes about 12 fsyncs, whose latency on a
  /// shared disk drifts 3-4x from one minute to the next and then sets the
  /// session rate on its own.
  int checkpoint_every = 4;
};

Sizes sizes_for(const Options& opt) {
  Sizes s;
  if (opt.tiny) {
    s.seeds = 1;
    s.lengths = {1, 2};
    s.warmup_s = 0.2;
    s.setup_reps = 2;
  }
  return s;
}

std::vector<SessionSpec> make_specs(const Options& opt, const Sizes& sizes) {
  std::vector<SessionSpec> specs;
  for (int s = 0; s < sizes.seeds; ++s) {
    for (const char* workload : {"field", "particles"}) {
      for (const int length : sizes.lengths) {
        SessionSpec spec;
        spec.tenant = "stbench";
        spec.machine = "bgl";
        spec.cores = 256;
        spec.workload = workload;
        spec.intervals = length;
        spec.seed = mix_seed(opt.seed, 300 + static_cast<std::uint64_t>(s));
        specs.push_back(spec);
      }
    }
  }
  return specs;
}

ServeLimits limits_for(const Sizes& sizes) {
  ServeLimits limits;
  limits.pool_threads = sizes.pool_threads;
  limits.checkpoint_every = sizes.checkpoint_every;
  return limits;
}

/// Supervisor + socket server, started; stopped in reverse on destruction.
class Daemon {
 public:
  Daemon(const std::filesystem::path& dir, const Sizes& sizes)
      : supervisor_(dir, limits_for(sizes)) {
    supervisor_.recover();
    supervisor_.start();
    ServerConfig config;
    config.socket_path = dir / "d.sock";
    server_ = std::make_unique<SessionServer>(supervisor_, config);
    server_->start();
  }
  ~Daemon() {
    server_->stop();
    supervisor_.stop();
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] const std::filesystem::path& socket() const {
    return server_->socket_path();
  }

 private:
  SessionSupervisor supervisor_;
  std::unique_ptr<SessionServer> server_;
};

/// Fingerprint of a direct (daemon-free) run of \p spec.
std::uint64_t direct_fingerprint(const SessionSpec& spec,
                                 const ModelStack& models) {
  const Machine machine = Machine::by_name(spec.machine, spec.cores);
  CoupledConfig cfg;
  cfg.scenario.num_intervals = spec.intervals;
  cfg.scenario.seed = spec.seed;
  cfg.manager.strategy = spec.strategy;
  cfg.workload = spec.workload;
  CoupledSimulation sim(machine, models.model, models.truth, cfg);
  for (int i = 0; i < spec.intervals; ++i) sim.advance();
  return sim.state_fingerprint();
}

/// Records in a stopped daemon's journal; each was fsynced on append.
std::int64_t journal_records(const std::filesystem::path& path) {
  std::int64_t records = 0;
  const FramedLog log(
      path,
      FramedLog::Format{kSessionLogMagic, kSessionLogVersion, 0,
                        "session journal"},
      /*resume=*/true, [&](BinaryReader& r) {
        ++records;
        (void)r.get_bytes(r.remaining(), "journal record");
      });
  return records;
}

/// Shared state of one closed-loop phase.
struct Phase {
  Clock::time_point deadline;
  /// Read the process peak memory when this many sessions have completed
  /// (one pass over the specs), so it covers the same work on any host.
  std::int64_t rss_after = 0;
  double rss_mb = 0.0;
  Tracer* tracer = nullptr;
  std::atomic<std::uint64_t> ticket{0};
  std::mutex mutex;  ///< Guards everything below.
  std::vector<UnitSample> units;
  std::vector<std::pair<std::size_t, std::uint64_t>> fingerprints;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t completed = 0;
  std::int64_t accepted = 0;
  std::int64_t rejected_busy = 0;
  std::int64_t seq_gaps = 0;
  std::vector<std::string> errors;
};

void client_loop(const std::filesystem::path& socket,
                 const std::filesystem::path& state_dir,
                 const std::vector<SessionSpec>& specs, Phase& phase) {
  std::unique_ptr<ClientConnection> conn;
  while (Clock::now() < phase.deadline) {
    const std::uint64_t ticket = phase.ticket.fetch_add(1);
    const std::size_t index = ticket % specs.size();
    bool accepted = false;
    try {
      if (conn == nullptr) conn = std::make_unique<ClientConnection>(socket);
      const auto t_submit = Clock::now();
      const ClientConnection::SubmitReply reply = conn->submit(specs[index]);
      const auto t_ack = Clock::now();
      if (!reply.accepted) {
        const std::lock_guard<std::mutex> lock(phase.mutex);
        ++phase.attempted;
        ++phase.failed;
        ++phase.rejected_busy;
        continue;
      }
      accepted = true;
      std::vector<Clock::time_point> arrivals;
      std::uint64_t expected_seq = 0;
      std::int64_t gaps = 0;
      const SessionStatus done =
          conn->attach(reply.id, 0, [&](const SessionEvent& event) {
            arrivals.push_back(Clock::now());
            if (event.seq != expected_seq) ++gaps;
            expected_seq = event.seq + 1;
          });
      const UnitSample sample = unit_done(t_submit);
      const auto t_done = sample.end;
      const bool ok = done.state == SessionState::kDone;
      if (phase.tracer != nullptr && ok) {
        Tracer& tr = *phase.tracer;
        const auto unit = static_cast<std::int64_t>(reply.id);
        const int root = tr.add("unit.session", t_submit, t_done, -1, unit);
        tr.add("serve.submit_ack", t_submit, t_ack, root, unit);
        auto previous = t_ack;
        for (std::size_t i = 0; i < arrivals.size(); ++i) {
          tr.add(i == 0 ? "serve.queue_wait" : "serve.slice", previous,
                 arrivals[i], root, unit);
          previous = arrivals[i];
        }
        tr.add("serve.finish", previous, t_done, root, unit);
      }
      {
        const std::lock_guard<std::mutex> lock(phase.mutex);
        ++phase.attempted;
        ++phase.accepted;
        phase.seq_gaps += gaps;
        if (ok) {
          if (++phase.completed == phase.rss_after)
            phase.rss_mb = peak_rss_mb();
          phase.units.push_back(sample);
          phase.fingerprints.emplace_back(index, done.fingerprint);
        } else {
          ++phase.failed;
          phase.errors.push_back(std::string("session ended ") +
                                 to_string(done.state) + ": " + done.error);
        }
      }
      // The session is terminal; its checkpoints are no longer needed.
      std::error_code ignored;
      std::filesystem::remove_all(
          state_dir / "sessions" / std::to_string(reply.id), ignored);
    } catch (const std::exception& e) {
      conn.reset();
      const std::lock_guard<std::mutex> lock(phase.mutex);
      ++phase.attempted;
      ++phase.failed;
      if (accepted) ++phase.accepted;
      phase.errors.push_back(std::string("transport: ") + e.what());
    }
  }
}

/// Run the closed loop for \p seconds with all clients, then let the
/// sessions in flight finish. The window's wall time runs to the last DONE.
Window run_phase(Daemon& daemon, const std::filesystem::path& state_dir,
                 const std::vector<SessionSpec>& specs, const Sizes& sizes,
                 double seconds, Phase& phase) {
  Window w;
  w.cpu_start = process_cpu_seconds();
  w.start = Clock::now();
  const auto start = w.start;
  phase.deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> clients;
  for (int c = 0; c < sizes.clients; ++c)
    clients.emplace_back(client_loop, daemon.socket(), state_dir,
                         std::cref(specs), std::ref(phase));
  for (std::thread& t : clients) t.join();
  w.wall_seconds = seconds_since(start);
  w.cpu_seconds = process_cpu_seconds() - w.cpu_start;
  w.completed = phase.completed;
  return w;
}

/// Samples the daemon's STATS over the wire while a traced phase runs.
class StatsSampler {
 public:
  explicit StatsSampler(const std::filesystem::path& socket)
      : conn_(socket), first_(conn_.stats()) {
    thread_ = std::thread([this] { loop(); });
  }
  ~StatsSampler() { finish(); }
  StatsSampler(const StatsSampler&) = delete;
  StatsSampler& operator=(const StatsSampler&) = delete;

  /// Stop sampling; returns the last STATS reply.
  ServerStats finish() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
    return last_;
  }
  [[nodiscard]] const ServerStats& first() const { return first_; }
  [[nodiscard]] double runnable_mean() const {
    return samples_ > 0 ? runnable_sum_ / samples_ : 0.0;
  }

 private:
  void loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_) {
      lock.unlock();
      const ServerStats stats = conn_.stats();
      lock.lock();
      last_ = stats;
      runnable_sum_ += static_cast<double>(stats.pool_runnable);
      samples_ += 1.0;
      cv_.wait_for(lock, std::chrono::milliseconds(20), [&] { return stop_; });
    }
  }

  ClientConnection conn_;
  ServerStats first_;
  ServerStats last_;
  double runnable_sum_ = 0.0;
  double samples_ = 0.0;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;  ///< Declared last: uses everything above.
};

}  // namespace

RunResult run_daemon_sessions(const Options& opt) {
  const Sizes sizes = sizes_for(opt);
  RunResult result;
  result.unit_name = "session";
  const std::vector<SessionSpec> specs = make_specs(opt, sizes);

  // Every thread from here to the end of the measured window runs on one
  // CPU: the pool worker, the watchdog, the server's threads and the
  // clients. Unpinned, each interval's event woke a thread on another vCPU
  // and the CPU cost per session moved by 15% from run to run of one seed
  // (33-39 ms); pinned, five runs of one seed held within 5% at 34-36 ms
  // and ten seeds spread by a tenth. The correctness references below
  // start their threads after the pin is released.
  std::optional<CpuPin> pin(std::in_place);
  result.notes.push_back("daemon and clients pinned to cpu " +
                         std::to_string(pin->cpu()));

  // Set-up: supervisor (model stack, journal open and replay, pool and
  // watchdog start) and socket server, built several times over a fresh
  // state directory each; the last daemon is kept.
  std::unique_ptr<Daemon> daemon;
  std::filesystem::path daemon_dir;
  for (int rep = 0; rep < sizes.setup_reps; ++rep) {
    daemon.reset();
    daemon_dir = opt.state_dir / ("daemon-" + std::to_string(rep));
    std::filesystem::create_directories(daemon_dir);
    const auto t0 = Clock::now();
    daemon = std::make_unique<Daemon>(daemon_dir, sizes);
    result.setup_seconds.push_back(seconds_since(t0));
  }

  Phase warmup;
  run_phase(*daemon, daemon_dir, specs, sizes, sizes.warmup_s, warmup);

  Phase measured;
  Phase traced;
  Tracer tracer;
  const auto fold = [&](const Phase& p) {
    result.attempted += p.attempted;
    result.failed += p.failed;
  };
  if (!opt.trace) {
    measured.rss_after = static_cast<std::int64_t>(specs.size());
    result.set_window(
        run_phase(*daemon, daemon_dir, specs, sizes, opt.seconds, measured));
    result.peak_rss_mb =
        measured.rss_mb > 0 ? measured.rss_mb : peak_rss_mb();
    result.units = measured.units;
  } else {
    const Window plain = run_phase(*daemon, daemon_dir, specs, sizes,
                                   opt.seconds / 2, measured);
    traced.tracer = &tracer;
    const RedistCounters r0 = redist_counters();
    const AtomicFileCounters a0 = atomic_file_counters();
    ServerStats first;
    ServerStats last;
    double runnable_mean = 0.0;
    Window traced_window;
    {
      StatsSampler sampler(daemon->socket());
      first = sampler.first();
      traced_window = run_phase(*daemon, daemon_dir, specs, sizes,
                                opt.seconds / 2, traced);
      last = sampler.finish();
      runnable_mean = sampler.runnable_mean();
    }
    const RedistCounters r1 = redist_counters();
    const AtomicFileCounters a1 = atomic_file_counters();
    const double sessions = static_cast<double>(traced.completed);
    result.set_window(traced_window);
    result.completed += plain.completed;
    const auto per_session = [&](double v) {
      return sessions > 0 ? v / sessions : 0.0;
    };
    auto& L = result.layers;
    report_pricing_layers(r0, r1, nullptr, nullptr, sessions, result);
    L["ckpt.file_syncs"] = {
        per_session(static_cast<double>(a1.file_syncs - a0.file_syncs)),
        "count"};
    L["ckpt.dir_syncs"] = {
        per_session(static_cast<double>(a1.dir_syncs - a0.dir_syncs)),
        "count"};
    L["serve.pool_runnable_mean"] = {runnable_mean, "count"};
    const double shared_hits = static_cast<double>(
        last.pricing_shared_hits - first.pricing_shared_hits);
    const double shared_lookups =
        shared_hits + static_cast<double>(last.pricing_shared_misses -
                                          first.pricing_shared_misses);
    L["serve.pricing_shared_hit_ratio"] = {
        shared_lookups > 0 ? shared_hits / shared_lookups : 0.0, "ratio"};
    L["serve.pricing_shared_lookups"] = {per_session(shared_lookups),
                                         "count"};
    L["serve.pool_batches_per_session"] = {
        per_session(static_cast<double>(last.pool_batches -
                                        first.pool_batches)),
        "count"};
    report_overhead(plain, traced_window, result);
    tracer.write_jsonl(opt.spans_out);
    report_layers(tracer, "unit.session",
                  {{"serve.submit_ack", "serve.submit_ack_ms"},
                   {"serve.queue_wait", "serve.queue_wait_ms"},
                   {"serve.slice", "serve.slice_ms"},
                   {"serve.finish", "serve.finish_ms"}},
                  result);
  }
  fold(warmup);
  fold(measured);
  fold(traced);
  const std::int64_t accepted =
      warmup.accepted + measured.accepted + traced.accepted;
  daemon.reset();  // stop: the journal is complete from here on
  pin.reset();

  if (opt.trace) {
    const std::int64_t records =
        journal_records(daemon_dir / "sessions.stjl");
    result.layers["serve.journal_syncs_per_session"] = {
        accepted > 0 ? static_cast<double>(records) /
                           static_cast<double>(accepted)
                     : 0.0,
        "count"};
    result.layers["serve.rejected_busy"] = {
        static_cast<double>(warmup.rejected_busy + measured.rejected_busy +
                            traced.rejected_busy),
        "count"};
    result.layers["serve.event_seq_gaps"] = {
        static_cast<double>(warmup.seq_gaps + measured.seq_gaps +
                            traced.seq_gaps),
        "count"};
  }

  // Correctness, outside the measured window: every DONE fingerprint of a
  // spec must equal a direct run of that spec.
  const ModelStack models;
  std::map<std::size_t, std::uint64_t> expected;
  for (const Phase* p : {&warmup, &measured, &traced}) {
    for (const std::string& e : p->errors) result.notes.push_back("FAIL: " + e);
    if (!p->errors.empty()) result.correct = false;
    for (const auto& [index, fp] : p->fingerprints) expected[index] = 0;
  }
  std::vector<std::size_t> indices;
  for (const auto& [index, fp] : expected) indices.push_back(index);
  std::vector<std::uint64_t> direct(indices.size());
  parallel_for_each(indices.size(), kReferenceThreads, [&](std::size_t i) {
    direct[i] = direct_fingerprint(specs[indices[i]], models);
  });
  for (std::size_t i = 0; i < indices.size(); ++i)
    expected[indices[i]] = direct[i];
  if (opt.corrupt_expected && !indices.empty()) expected[indices[0]] ^= 1;
  for (const Phase* p : {&warmup, &measured, &traced}) {
    for (const auto& [index, fp] : p->fingerprints) {
      if (fp == expected[index]) continue;
      ++result.failed;
      result.correct = false;
      result.notes.push_back("FAIL: session fingerprint of spec " +
                             std::to_string(index) +
                             " differs from the direct run");
    }
  }
  if (result.failed > 0) result.correct = false;
  return result;
}

}  // namespace stbench
