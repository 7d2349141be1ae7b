/// \file bench_pda_scaling.cpp
/// §III's parallelization argument, quantified: "the analysis of QCLOUD
/// values in each split file is done in parallel because this is the most
/// time-consuming step", while "the sequential NNC algorithm takes less
/// than a second to cluster such few values" (fewer than ~200 gathered
/// elements for 1024 split files).
///
/// Two measurements:
///  1. the modeled analysis-rank scaling of Algorithm 1 (work/N + the
///     gathered-bytes cost on the analysis communicator), as the paper
///     argues it;
///  2. the *real* wall-clock scaling of the executor-backed PDA on this
///     host: the same 1024-file analysis run on a ThreadPoolExecutor for
///     each of --threads {1,2,4,8} (comma list overridable), results
///     asserted byte-identical across thread counts, speedups emitted to
///     the --json summary so the trajectory is trackable across PRs.

#include <chrono>
#include <iostream>
#include <memory>
#include <sstream>

#include "bench_common.hpp"
#include "exec/executor.hpp"
#include "pda/parallel_nnc.hpp"
#include "pda/pda.hpp"
#include "util/fnv.hpp"
#include "util/table.hpp"
#include "wsim/split_file.hpp"

using namespace stormtrack;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::vector<int> parse_thread_list(int argc, char** argv) {
  std::vector<int> threads{1, 2, 4, 8};
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) != "--threads") continue;
    threads.clear();
    std::stringstream list(argv[i + 1]);
    std::string item;
    while (std::getline(list, item, ',')) threads.push_back(std::stoi(item));
  }
  return threads;
}

std::uint64_t pda_fingerprint(const PdaResult& r) {
  Fingerprint fp;
  fp.add(r.qcloudinfo.size());
  for (const QCloudInfo& q : r.qcloudinfo) {
    fp.add(q.file_rank);
    fp.add(q.qcloud);
    fp.add(q.olrfraction);
  }
  fp.add(r.rectangles.size());
  for (const Rect& rect : r.rectangles) {
    fp.add(rect.x);
    fp.add(rect.y);
    fp.add(rect.w);
    fp.add(rect.h);
  }
  return fp.value();
}

}  // namespace

int main(int argc, char** argv) {
  WeatherModel model(WeatherConfig::mumbai_2005(), 0x5ca1e);
  for (int i = 0; i < 10; ++i) model.step();
  const auto files = write_split_files(model, 32, 32);  // P = 1024

  // ---- measure the serial per-file analysis (Algorithm 1 lines 4–9).
  const PdaConfig cfg;
  auto t0 = std::chrono::steady_clock::now();
  std::vector<QCloudInfo> info;
  for (const SplitFile& f : files)
    if (auto e = analyze_split_file(f, cfg)) info.push_back(*e);
  const double analyze_serial = seconds_since(t0);
  std::sort(info.begin(), info.end(),
            [](const QCloudInfo& a, const QCloudInfo& b) {
              return a.qcloud > b.qcloud;
            });

  // ---- measure the sequential NNC (Algorithm 2) on the gathered values.
  t0 = std::chrono::steady_clock::now();
  const auto clusters = nnc(info, cfg.nnc);
  const double nnc_serial = seconds_since(t0);

  std::cout << "P = " << files.size() << " split files; " << info.size()
            << " cloudy subdomains gathered (paper: < 200 for most steps); "
            << clusters.size() << " clusters\n"
            << "serial analysis: " << Table::num(analyze_serial * 1e3, 2)
            << " ms, sequential NNC: " << Table::num(nnc_serial * 1e3, 3)
            << " ms\n\n";

  Table t({"Analysis ranks N", "Analysis work/N (ms)",
           "Gather (modeled, ms)", "Total (ms)", "Speedup"});
  t.set_title("PDA scaling (analysis parallel, NNC at root — §III)");
  for (const int n : {1, 4, 16, 64, 256, 1024}) {
    Mesh2D topo(choose_process_grid(n).px, choose_process_grid(n).py);
    RowMajorMapping map(n);
    SimComm comm(topo, map);
    PdaConfig ncfg;
    ncfg.analysis_procs = n;
    const PdaResult r = parallel_data_analysis(files, ncfg, &comm);
    const double analyze = analyze_serial / n;
    const double gather = r.traffic.modeled_time;
    const double total = analyze + gather + nnc_serial;
    t.add_row({std::to_string(n), Table::num(analyze * 1e3, 3),
               Table::num(gather * 1e3, 3), Table::num(total * 1e3, 3),
               Table::num((analyze_serial + nnc_serial) / total, 1) + "x"});
  }
  t.print(std::cout);

  // ---- the parallel NNC extension for much larger element counts.
  t0 = std::chrono::steady_clock::now();
  const ParallelNncResult par = parallel_nnc(info, cfg.nnc, 16);
  const double par_wall = seconds_since(t0);
  std::cout << "parallel NNC (16 tiles, tile-and-merge): "
            << par.clusters.size() << " clusters ("
            << Table::num(par_wall * 1e3, 3)
            << " ms wall here; per-tile work parallelizes on a real "
               "machine)\n\n";

  // ---- real executor scaling on this host: the largest configured grid —
  // the 12 km domain refined to 1.5 km (~10.7M grid points over 1024
  // files, 64 analysis ranks), repeated so each measurement is well above
  // timer noise. The per-point analysis parallelizes; the sequential NNC
  // tail is constant in resolution, so this grid isolates the executor's
  // contribution. Fingerprints assert every thread count computes the
  // byte-identical result.
  WeatherConfig big_cfg = WeatherConfig::mumbai_2005();
  big_cfg.domain.resolution_km = 1.5;
  WeatherModel big_model(big_cfg, 0x5ca1e);
  for (int i = 0; i < 5; ++i) big_model.step();
  const auto big_files = write_split_files(big_model, 32, 32);

  const std::vector<int> thread_counts = parse_thread_list(argc, argv);
  const int analysis_ranks = 64;
  const int repeats = 8;
  bench::JsonSummary summary("pda_scaling");
  Table scaling({"Threads", "Wall (ms)", "Speedup", "Fingerprint"});
  scaling.set_title(
      "Executor-backed PDA wall clock (1.5 km grid, " +
      std::to_string(big_model.qcloud().width()) + "x" +
      std::to_string(big_model.qcloud().height()) + " points, " +
      std::to_string(big_files.size()) + " files, " +
      std::to_string(analysis_ranks) + " analysis ranks, " +
      std::to_string(repeats) + " repeats)");
  // Repeats are interleaved round-robin across the thread counts rather
  // than run config-by-config: whichever configuration runs first on a
  // fresh process pays a warm-up penalty (frequency ramp, first-touch)
  // that would otherwise be misattributed to its thread count.
  const std::size_t ncfg = thread_counts.size();
  std::vector<std::unique_ptr<ThreadPoolExecutor>> pools;
  std::vector<double> walls(ncfg, 0.0);
  std::vector<ExecutorStats> before(ncfg);
  std::uint64_t fp_first = 0;
  PdaConfig pcfg;
  pcfg.analysis_procs = analysis_ranks;
  for (std::size_t c = 0; c < ncfg; ++c) {
    pools.push_back(std::make_unique<ThreadPoolExecutor>(thread_counts[c]));
    pcfg.executor = pools[c].get();
    // Warm-up run (first-touch, pool spin-up) excluded from timing.
    const std::uint64_t fp =
        pda_fingerprint(parallel_data_analysis(big_files, pcfg));
    if (c == 0) fp_first = fp;
    if (fp != fp_first) {
      std::cerr << "FINGERPRINT MISMATCH at threads=" << thread_counts[c]
                << "\n";
      return 1;
    }
    before[c] = pools[c]->stats();
  }
  for (int rep = 0; rep < repeats; ++rep) {
    for (std::size_t c = 0; c < ncfg; ++c) {
      pcfg.executor = pools[c].get();
      t0 = std::chrono::steady_clock::now();
      const std::uint64_t fp =
          pda_fingerprint(parallel_data_analysis(big_files, pcfg));
      walls[c] += seconds_since(t0);
      if (fp != fp_first) {
        std::cerr << "FINGERPRINT MISMATCH at threads=" << thread_counts[c]
                  << "\n";
        return 1;
      }
    }
  }
  std::ostringstream hex;
  hex << std::hex << fp_first;
  for (std::size_t c = 0; c < ncfg; ++c) {
    const int threads = thread_counts[c];
    const double speedup = walls[0] / walls[c];
    scaling.add_row({std::to_string(threads), Table::num(walls[c] * 1e3, 2),
                     Table::num(speedup, 2) + "x", hex.str()});
    summary
        .add_row("pda_threads_" + std::to_string(threads), walls[c], threads,
                 static_cast<std::int64_t>(big_files.size()) * repeats)
        .add_field("analysis_ranks", analysis_ranks)
        .add_field("speedup_vs_first", speedup)
        .add_field("executor_occupancy",
                   (pools[c]->stats().busy_seconds - before[c].busy_seconds) /
                       (walls[c] * threads));
  }
  scaling.print(std::cout);
  if (default_thread_count() <= 1)
    std::cout << "note: this host exposes a single CPU; thread counts > 1 "
                 "time-slice on one core, so wall-clock speedup only "
                 "appears on multi-core hosts.\n";

  if (const auto path = bench::json_output_path(argc, argv))
    summary.write(*path);
  return 0;
}
