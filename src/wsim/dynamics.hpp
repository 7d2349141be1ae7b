#pragma once

/// \file dynamics.hpp
/// Nest-domain dynamics: a distributed advection–diffusion integrator.
///
/// The paper treats nest execution as a cost (the performance model); this
/// module additionally makes the nested simulation *runnable*, so the
/// library can demonstrate the full life of a nest: spawn (interpolation
/// from the parent, nest.hpp) → distributed time stepping with halo
/// exchanges over the simulated network → redistribution to a new
/// processor rectangle (redist/) → continued stepping, with bit-exact
/// agreement against a sequential reference.
///
/// Numerics: first-order upwind advection + 5-point central diffusion
/// (FTCS), Neumann (zero-gradient) boundaries at the nest edge. The
/// positivity/maximum-principle condition |u| + |v| + 4·diffusion <= 1
/// (per step, cell units) is enforced.
///
/// Parallel structure: the nest field is 2D-block decomposed over the
/// nest's processor rectangle exactly as in redist/block_decomp.hpp; each
/// step exchanges one-cell-deep edge halos between neighbouring blocks
/// (priced on the SimComm) and then updates each block from its halo-
/// extended local view — the canonical stencil SPMD pattern. The halo
/// messages depend only on the decomposition, so the stepper prices them
/// once; and since a block's halo-extended view holds exactly its
/// neighbours' cells, the update runs as one pass over the whole nest with
/// edge clamping, bit-identical to the per-block update.

#include "perfmodel/ground_truth.hpp"  // NestShape
#include "redist/block_decomp.hpp"
#include "simmpi/simcomm.hpp"
#include "util/grid2d.hpp"

namespace stormtrack {

/// Integrator coefficients (per-step, in cell units).
struct DynamicsParams {
  double u = 0.5;            ///< Eastward advection (cells/step).
  double v = 0.2;            ///< Northward advection (cells/step).
  double diffusion = 0.075;  ///< Diffusivity (cells²/step).
};

/// One sequential reference step of the whole field.
[[nodiscard]] Grid2D<double> step_reference(const Grid2D<double>& field,
                                            const DynamicsParams& params);

/// Distributed stepper bound to a nest's processor rectangle.
class DistributedNestStepper {
 public:
  /// Prices the decomposition's halo exchange on \p comm. \p proc_rect /
  /// \p grid_px as in BlockDecomposition.
  DistributedNestStepper(const SimComm& comm, const NestShape& nest,
                         const Rect& proc_rect, int grid_px,
                         DynamicsParams params = {});

  /// Advance \p field (the global nest field, block-owned by the ranks)
  /// one step through the stepper's scratch grid. Returns the halo
  /// exchange's traffic, priced at construction and the same every step.
  TrafficReport step(Grid2D<double>& field);

  [[nodiscard]] const BlockDecomposition& decomposition() const {
    return decomp_;
  }
  [[nodiscard]] const DynamicsParams& params() const { return params_; }

 private:
  BlockDecomposition decomp_;
  DynamicsParams params_;
  /// One step's halo exchange: each block ships its one-cell-deep edges to
  /// its N/S/E/W neighbouring blocks, 8 bytes per cell.
  TrafficReport halo_traffic_;
  Grid2D<double> scratch_;
};

}  // namespace stormtrack
