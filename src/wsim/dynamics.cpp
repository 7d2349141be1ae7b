#include "wsim/dynamics.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace stormtrack {

namespace {

void validate_params(const DynamicsParams& p) {
  ST_CHECK_MSG(p.diffusion >= 0.0, "diffusion must be non-negative");
  // Positivity / maximum principle for upwind + FTCS: the centre-cell
  // coefficient 1 - |u| - |v| - 4D must stay non-negative.
  ST_CHECK_MSG(std::abs(p.u) + std::abs(p.v) + 4.0 * p.diffusion <= 1.0,
               "unstable dynamics: need |u| + |v| + 4*diffusion <= 1, got "
                   << std::abs(p.u) + std::abs(p.v) + 4.0 * p.diffusion);
}

/// Zero-gradient (Neumann) sample of the field at clamped coordinates.
double sample(const Grid2D<double>& f, int x, int y) {
  return f(std::clamp(x, 0, f.width() - 1), std::clamp(y, 0, f.height() - 1));
}

/// Stencil update of one cell from any field view with Neumann clamping.
double update_cell(const Grid2D<double>& f, int x, int y,
                   const DynamicsParams& p) {
  const double c = sample(f, x, y);
  const double w = sample(f, x - 1, y);
  const double e = sample(f, x + 1, y);
  const double s = sample(f, x, y - 1);
  const double n = sample(f, x, y + 1);
  // First-order upwind advection.
  const double adv_x = p.u >= 0.0 ? p.u * (c - w) : p.u * (e - c);
  const double adv_y = p.v >= 0.0 ? p.v * (c - s) : p.v * (n - c);
  // 5-point diffusion.
  const double diff = p.diffusion * (w + e + s + n - 4.0 * c);
  return c - adv_x - adv_y + diff;
}

/// update_cell's arithmetic, operand for operand, with the upwind
/// directions fixed at compile time so the row loop vectorizes.
template <bool kEastward, bool kNorthward>
double stencil(double c, double w, double e, double s, double n,
               const DynamicsParams& p) {
  const double adv_x = kEastward ? p.u * (c - w) : p.u * (e - c);
  const double adv_y = kNorthward ? p.v * (c - s) : p.v * (n - c);
  const double diff = p.diffusion * (w + e + s + n - 4.0 * c);
  return c - adv_x - adv_y + diff;
}

/// One step of the whole field into \p out, row by row, with neighbour
/// indices clamped at the field edge (Neumann).
template <bool kEastward, bool kNorthward>
void step_rows(const Grid2D<double>& f, Grid2D<double>& out,
               const DynamicsParams& p) {
  const auto cell = [&p](double c, double w, double e, double s, double n) {
    return stencil<kEastward, kNorthward>(c, w, e, s, n, p);
  };
  const auto width = static_cast<std::size_t>(f.width());
  const auto height = static_cast<std::size_t>(f.height());
  if (width == 0) return;
  const std::size_t last = width - 1;
  const double* in = f.data().data();
  double* dst = out.data().data();
  for (std::size_t y = 0; y < height; ++y) {
    const double* row = in + y * width;
    const double* s = in + (y > 0 ? y - 1 : 0) * width;
    const double* n = in + (y + 1 < height ? y + 1 : y) * width;
    double* o = dst + y * width;
    if (last == 0) {
      o[0] = cell(row[0], row[0], row[0], s[0], n[0]);
      continue;
    }
    o[0] = cell(row[0], row[0], row[1], s[0], n[0]);
    for (std::size_t x = 1; x < last; ++x)
      o[x] = cell(row[x], row[x - 1], row[x + 1], s[x], n[x]);
    o[last] = cell(row[last], row[last - 1], row[last], s[last], n[last]);
  }
}

/// step_rows for \p p's upwind directions.
void step_field(const Grid2D<double>& f, Grid2D<double>& out,
                const DynamicsParams& p) {
  using Rows = void (*)(const Grid2D<double>&, Grid2D<double>&,
                        const DynamicsParams&);
  static constexpr Rows kRows[2][2] = {
      {step_rows<false, false>, step_rows<false, true>},
      {step_rows<true, false>, step_rows<true, true>}};
  kRows[p.u >= 0.0][p.v >= 0.0](f, out, p);
}

}  // namespace

Grid2D<double> step_reference(const Grid2D<double>& field,
                              const DynamicsParams& params) {
  validate_params(params);
  Grid2D<double> out(field.width(), field.height());
  for (int y = 0; y < field.height(); ++y)
    for (int x = 0; x < field.width(); ++x)
      out(x, y) = update_cell(field, x, y, params);
  return out;
}

DistributedNestStepper::DistributedNestStepper(const SimComm& comm,
                                               const NestShape& nest,
                                               const Rect& proc_rect,
                                               int grid_px,
                                               DynamicsParams params)
    : decomp_(nest, proc_rect, grid_px),
      params_(params),
      scratch_(nest.nx, nest.ny) {
  validate_params(params);
  std::vector<Message> msgs;
  for (int j = 0; j < proc_rect.h; ++j) {
    for (int i = 0; i < proc_rect.w; ++i) {
      const Rect region = decomp_.owned_region(i, j);
      if (region.empty()) continue;
      const int me = decomp_.rank_at(i, j);
      const auto send_edge = [&](int ni, int nj, int cells) {
        if (ni < 0 || ni >= proc_rect.w || nj < 0 || nj >= proc_rect.h)
          return;
        if (decomp_.owned_region(ni, nj).empty()) return;
        msgs.push_back(Message{me, decomp_.rank_at(ni, nj),
                               static_cast<std::int64_t>(cells) * 8});
      };
      send_edge(i - 1, j, region.h);
      send_edge(i + 1, j, region.h);
      send_edge(i, j - 1, region.w);
      send_edge(i, j + 1, region.w);
    }
  }
  halo_traffic_ = comm.alltoallv(msgs);
}

TrafficReport DistributedNestStepper::step(Grid2D<double>& field) {
  ST_CHECK_MSG(field.width() == scratch_.width() &&
                   field.height() == scratch_.height(),
               "nest field is " << field.width() << "x" << field.height()
                                << " but the stepper's nest is "
                                << scratch_.width() << "x"
                                << scratch_.height());
  // Every block's halo-extended view, clamped at the nest boundary, holds
  // exactly its neighbours' cells, so the per-block update is one pass over
  // the whole nest with edge clamping.
  step_field(field, scratch_, params_);
  std::swap(field, scratch_);
  return halo_traffic_;
}

}  // namespace stormtrack
