/// \file torus_mapping_study.cpp
/// Why the paper uses a folding-based topology-aware mapping on
/// Blue Gene/L (§V-C): the same nest redistribution costs dramatically
/// different hop-bytes depending on how the 2D process grid is embedded in
/// the 3D torus. This example compares folding, row-major and random
/// placements, and also contrasts the torus with the switched fist network
/// where placement barely matters.

#include <iostream>
#include <memory>

#include "redist/redistributor.hpp"
#include "topo/mapping.hpp"
#include "util/table.hpp"

using namespace stormtrack;

namespace {

struct Case {
  const char* name;
  NestShape nest;
  Rect old_rect;
  Rect new_rect;
};

constexpr Case kCases[] = {
    {"small shift", NestShape{202, 349}, Rect{0, 0, 13, 16},
     Rect{2, 1, 13, 16}},
    {"grow", NestShape{300, 300}, Rect{4, 4, 10, 10}, Rect{2, 2, 14, 14}},
    {"jump", NestShape{349, 349}, Rect{0, 0, 16, 12}, Rect{16, 18, 16, 12}},
};

}  // namespace

int main() {
  const Torus3D torus(8, 8, 16);  // BG/L midplane, 1024 nodes
  const FoldingMapping folding(32, 32, torus);
  const RowMajorMapping row_major(1024);
  const RandomMapping random(1024, 2013);

  std::cout << "Average dilation of process-grid neighbours on "
            << torus.name() << ":\n";
  Table dil({"Mapping", "Avg hops between grid neighbours"});
  for (const Mapping* m :
       {static_cast<const Mapping*>(&folding),
        static_cast<const Mapping*>(&row_major),
        static_cast<const Mapping*>(&random)})
    dil.add_row({m->name(),
                 Table::num(average_neighbor_dilation(torus, *m, 32, 32), 2)});
  dil.print(std::cout);

  Table t({"Case", "Mapping", "Redist time (ms)", "Avg hops/byte",
           "Max hops"});
  for (const Case& c : kCases) {
    for (const Mapping* m :
         {static_cast<const Mapping*>(&folding),
          static_cast<const Mapping*>(&row_major),
          static_cast<const Mapping*>(&random)}) {
      const SimComm comm(torus, *m);
      const TrafficReport traffic =
          redistribution_cost(c.nest, c.old_rect, c.new_rect, 32,
                              kDefaultBytesPerPoint, &comm)
              .traffic();
      t.add_row({c.name, m->name(), Table::num(traffic.modeled_time * 1e3, 3),
                 Table::num(traffic.avg_hops_per_byte(), 2),
                 Table::num(static_cast<std::int64_t>(traffic.max_hops))});
    }
  }
  t.set_title("Redistribution cost by mapping (1024-node 3D torus)");
  t.print(std::cout);

  // On the switched network, every pair is 2 or 4 hops: placement is
  // nearly irrelevant, matching the paper's smaller fist-cluster gains.
  const SwitchedNetwork fist(1024, 16);
  Table t2({"Case", "Mapping", "Redist time (ms)", "Avg hops/byte"});
  for (const Case& c : kCases) {
    for (const Mapping* m : {static_cast<const Mapping*>(&row_major),
                             static_cast<const Mapping*>(&random)}) {
      const SimComm comm(fist, *m);
      const TrafficReport traffic =
          redistribution_cost(c.nest, c.old_rect, c.new_rect, 32,
                              kDefaultBytesPerPoint, &comm)
              .traffic();
      t2.add_row({c.name, m->name(),
                  Table::num(traffic.modeled_time * 1e3, 3),
                  Table::num(traffic.avg_hops_per_byte(), 2)});
    }
  }
  t2.set_title("Same cases on the switched (fist-like) network");
  t2.print(std::cout);
  return 0;
}
