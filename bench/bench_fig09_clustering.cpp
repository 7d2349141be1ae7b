/// \file bench_fig09_clustering.cpp
/// Reproduces Fig. 9: nearest-neighbour clustering variants on a weather
/// field. The baseline (a) uses only a ≤2-hop distance criterion and no
/// mean-deviation guard — its clusters overlap in space. The paper's NNC
/// (b) checks 1-hop first, then 2-hop, and rejects joins that shift the
/// cluster mean by more than 30% — its clusters do not overlap and stay
/// bounded.
///
/// Quantified here over many simulated fields: number of clusters, number
/// of spatially overlapping cluster pairs, and the per-cluster relative
/// standard deviation of QCLOUD (the guard keeps it low).

#include <iostream>

#include "pda/parallel_nnc.hpp"
#include "pda/pda.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "wsim/split_file.hpp"

using namespace stormtrack;

namespace {

struct VariantStats {
  std::vector<double> clusters;
  std::vector<double> overlapping_pairs;
  std::vector<double> rel_stdev;
};

void accumulate(std::span<const QCloudInfo> info,
                std::span<const Cluster> clusters, VariantStats& out) {
  out.clusters.push_back(static_cast<double>(clusters.size()));
  out.overlapping_pairs.push_back(
      static_cast<double>(count_overlapping_cluster_pairs(info, clusters)));
  for (const Cluster& c : clusters) {
    if (c.size() < 2) continue;
    std::vector<double> vals;
    for (int i : c) vals.push_back(info[static_cast<std::size_t>(i)].qcloud);
    out.rel_stdev.push_back(stdev(vals) / mean(vals));
  }
}

}  // namespace

int main() {
  WeatherModel model(WeatherConfig::mumbai_2005(), 0x0f19);
  PdaConfig cfg;
  cfg.analysis_procs = 64;

  VariantStats ours, baseline, parallel;
  const int kFields = 40;
  for (int step = 0; step < kFields; ++step) {
    model.step();
    const auto files = write_split_files(model, 32, 32);
    // Run Algorithm 1 up to the sorted qcloudinfo, then all clusterings.
    const PdaResult pda = parallel_data_analysis(files, cfg);
    accumulate(pda.qcloudinfo, pda.clusters, ours);
    const auto base_clusters = nnc_2hop_only(pda.qcloudinfo, cfg.nnc);
    accumulate(pda.qcloudinfo, base_clusters, baseline);
    const ParallelNncResult par =
        parallel_nnc(pda.qcloudinfo, cfg.nnc, /*num_ranks=*/16);
    accumulate(pda.qcloudinfo, par.clusters, parallel);
  }

  Table t({"Variant", "Mean clusters/field", "Overlapping pairs/field",
           "Mean in-cluster rel. stdev"});
  t.set_title("Fig. 9: NNC variants over " + std::to_string(kFields) +
              " simulated fields (1024 split files each)");
  t.add_row({"(a) 2-hop only, no mean-deviation",
             Table::num(mean(baseline.clusters), 2),
             Table::num(mean(baseline.overlapping_pairs), 2),
             Table::num(mean(baseline.rel_stdev), 2)});
  t.add_row({"(b) 1-hop+2-hop, 30% mean-deviation (ours)",
             Table::num(mean(ours.clusters), 2),
             Table::num(mean(ours.overlapping_pairs), 2),
             Table::num(mean(ours.rel_stdev), 2)});
  t.add_row({"(c) parallel NNC, 16 ranks (paper's future work)",
             Table::num(mean(parallel.clusters), 2),
             Table::num(mean(parallel.overlapping_pairs), 2),
             Table::num(mean(parallel.rel_stdev), 2)});
  t.print(std::cout);

  std::cout << "Paper (qualitative): variant (a) produces overlapping "
               "clusters;\nvariant (b) produces non-overlapping clusters "
               "with bounded size and\nlow deviation (§III, §V-A).\n";
  return 0;
}
