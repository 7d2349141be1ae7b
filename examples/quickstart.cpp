/// \file quickstart.cpp
/// Five-minute tour of the stormtrack public API, reproducing the paper's
/// worked example (§IV, Tables I/II, Figs. 2/4/8):
///   1. allocate processors for 5 nests with a Huffman tree;
///   2. reconfigure (delete 3 nests, retain 2, insert 1) with both the
///      partition-from-scratch and the tree-based hierarchical diffusion
///      strategies;
///   3. compare the redistribution cost of the two on a simulated
///      Blue Gene/L torus.

#include <fstream>
#include <iostream>

#include "alloc/partitioner.hpp"
#include "core/machine.hpp"
#include "redist/redistributor.hpp"

using namespace stormtrack;

int main() {
  // --- 1. Initial allocation (paper Fig. 2 / Table I) -------------------
  const std::vector<NestWeight> initial{
      {1, 0.10}, {2, 0.10}, {3, 0.20}, {4, 0.25}, {5, 0.35}};
  const AllocTree tree = AllocTree::huffman(initial);
  const Allocation before = allocate(tree, 32, 32);
  before.to_table("Initial allocation on 1024 cores (paper Table I)")
      .print(std::cout);
  std::cout << before.to_ascii(32) << '\n';

  // --- 2. Reconfiguration: delete {1,2,4}, retain {3,5}, insert 6 -------
  ReconfigRequest req;
  req.deleted = {1, 2, 4};
  req.retained = {{3, 0.27}, {5, 0.42}};
  req.inserted = {{6, 0.31}};

  const ScratchPartitioner scratch;
  const DiffusionPartitioner diffusion;
  const Allocation scratch_alloc = allocate(scratch.propose(tree, req), 32, 32);
  const Allocation diffusion_alloc =
      allocate(diffusion.propose(tree, req), 32, 32);

  scratch_alloc.to_table("Partition from scratch (paper Table II)")
      .print(std::cout);
  diffusion_alloc.to_table("Tree-based hierarchical diffusion (paper Fig. 8)")
      .print(std::cout);
  std::cout << "diffusion layout:\n" << diffusion_alloc.to_ascii(32) << '\n';

  // --- 3. Redistribution cost on a simulated Blue Gene/L ---------------
  const Machine bgl = Machine::bluegene(1024);

  Table cmp({"Strategy", "Redist time (ms)", "Hop-bytes (MB·hop)",
             "Avg hops/byte", "Overlap %"});
  for (const auto& [name, alloc] :
       {std::pair{"scratch", &scratch_alloc},
        std::pair{"diffusion", &diffusion_alloc}}) {
    TrafficReport traffic;
    double overlap_points = 0, total_points = 0;
    for (const NestId nest : {3, 5}) {
      const NestShape shape =
          nest == 3 ? NestShape{202, 349} : NestShape{349, 349};
      const RedistCostSummary m = redistribution_cost(
          shape, *before.find(nest), *alloc->find(nest), bgl.grid_px(),
          kDefaultBytesPerPoint, &bgl.comm());
      traffic += m.traffic();
      overlap_points += m.overlap_fraction() * m.total_points;
      total_points += static_cast<double>(m.total_points);
    }
    cmp.add_row({name, Table::num(traffic.modeled_time * 1e3, 3),
                 Table::num(static_cast<double>(traffic.hop_bytes) / 1e6, 1),
                 Table::num(traffic.avg_hops_per_byte(), 2),
                 Table::num(100.0 * overlap_points / total_points, 1)});
  }
  cmp.set_title("Redistribution of retained nests 3 and 5 on " +
                bgl.label());
  cmp.print(std::cout);

  std::cout << "Diffusion keeps retained nests in place, so senders and\n"
               "receivers overlap and hop-bytes drop (paper §IV-B, §V-E).\n";

  // Graphviz renderings of the three trees (paper Figs. 2a / 4a / 8c):
  // render with `dot -Tpng huffman_initial.dot -o huffman_initial.png`.
  const auto write_dot = [](const char* name, const AllocTree& t) {
    std::ofstream os(name);
    os << t.to_dot();
  };
  write_dot("huffman_initial.dot", tree);
  write_dot("scratch_repartition.dot", scratch.propose(tree, req));
  write_dot("diffusion_repartition.dot", diffusion.propose(tree, req));
  std::cout << "tree diagrams written: huffman_initial.dot, "
               "scratch_repartition.dot, diffusion_repartition.dot\n";
  return 0;
}
