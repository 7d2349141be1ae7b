#pragma once

/// \file machine.hpp
/// Experimental platforms: topology + rank mapping + communicator bundled
/// as one object, mirroring the paper's two machines (§V-C, Table III).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "simmpi/simcomm.hpp"
#include "topo/mapping.hpp"
#include "topo/topology.hpp"

namespace stormtrack {

/// Owning bundle of a simulated machine: the interconnect model, the
/// process grid Px×Py (Px·Py == core count), the rank→node mapping, and a
/// communicator over all ranks.
class Machine {
 public:
  /// Blue Gene/L partition: 8×8×(cores/64) torus with the folding-based
  /// topology-aware mapping of §V-C (falls back to row-major if the
  /// process grid does not fold — never the case for 256/512/1024).
  [[nodiscard]] static Machine bluegene(int cores);

  /// fist cluster: Infiniband-like switched network, row-major placement.
  [[nodiscard]] static Machine fist_cluster(int cores);

  /// Dragonfly machine: 64-node groups (16 routers × 4 nodes), tiled
  /// group-locality mapping when one fits the process grid.
  [[nodiscard]] static Machine dragonfly(int cores);

  /// Fat-tree machine: 128-node pods (16 per leaf, 8 leaves per pod),
  /// tiled pod-locality mapping when one fits the process grid.
  [[nodiscard]] static Machine fattree(int cores);

  /// Strict name → factory registry: "bgl", "fist", "dragonfly",
  /// "fattree". Unknown names raise CheckError listing the valid set
  /// (callers like the CLI turn that into a usage error).
  [[nodiscard]] static Machine by_name(const std::string& name, int cores);

  /// The names by_name() accepts, ascending — the single source the CLI
  /// --help text and error messages enumerate.
  [[nodiscard]] static std::vector<std::string> names();

  /// Custom build (used for mapping ablations).
  Machine(std::unique_ptr<Topology> topo, std::unique_ptr<Mapping> mapping,
          int grid_px, int grid_py, std::string label);

  Machine(Machine&&) = default;
  Machine& operator=(Machine&&) = default;

  [[nodiscard]] const Topology& topology() const { return *topo_; }
  [[nodiscard]] const Mapping& mapping() const { return *mapping_; }
  [[nodiscard]] const SimComm& comm() const { return *comm_; }
  [[nodiscard]] int grid_px() const { return grid_px_; }
  [[nodiscard]] int grid_py() const { return grid_py_; }
  [[nodiscard]] int cores() const { return grid_px_ * grid_py_; }
  [[nodiscard]] const std::string& label() const { return label_; }

  /// Stable identity of the machine *model* (label + process grid): two
  /// Machine instances with equal fingerprints produce bit-identical cost
  /// summaries for equal pricing queries, because the label pins the
  /// topology + mapping construction and the grid pins the decomposition.
  /// Scopes every PricingCache entry, so one cache can serve many
  /// machines and sessions (see pricing_cache.hpp).
  [[nodiscard]] std::uint64_t fingerprint() const;

 private:
  std::unique_ptr<Topology> topo_;
  std::unique_ptr<Mapping> mapping_;
  std::unique_ptr<SimComm> comm_;
  int grid_px_ = 0;
  int grid_py_ = 0;
  std::string label_;
};

}  // namespace stormtrack
