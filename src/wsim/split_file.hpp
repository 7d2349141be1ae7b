#pragma once

/// \file split_file.hpp
/// Per-rank "split file" simulation output (§III).
///
/// Each WRF process writes the fields of its subdomain into its own split
/// file; the parallel data analysis then reads those files. Here a split
/// file is a value type holding the rank's subdomain rectangle and its
/// QCLOUD/OLR tiles; binary serialization to a directory is provided so
/// the read-files-from-disk code path of Algorithm 1 is exercised for real
/// when callers want it.

#include <filesystem>
#include <vector>

#include "util/grid2d.hpp"
#include "util/rect.hpp"
#include "wsim/weather.hpp"

namespace stormtrack {

/// One process's simulation output for one time step.
struct SplitFile {
  int rank = 0;          ///< Writing rank (row-major on the Px×Py grid).
  int grid_px = 0;       ///< Process-grid width the rank lives on.
  Rect subdomain;        ///< Owned region in parent-grid points.
  Grid2D<double> qcloud; ///< QCLOUD tile, subdomain-sized.
  Grid2D<double> olr;    ///< OLR tile, subdomain-sized.

  /// Process-grid position of the writer.
  [[nodiscard]] int file_x() const { return rank % grid_px; }
  [[nodiscard]] int file_y() const { return rank / grid_px; }
};

/// Decompose the model's current fields over a px×py process grid and
/// produce one split file per rank (balanced 2D blocks).
[[nodiscard]] std::vector<SplitFile> write_split_files(
    const WeatherModel& model, int px, int py);

/// Serialize one split file to <dir>/wrfout_d01_<rank>.bin.
void save_split_file(const SplitFile& f, const std::filesystem::path& dir);

/// Deserialize a split file previously written by save_split_file. The
/// header must name \p rank, a positive grid width and a non-negative
/// subdomain whose two tiles fit in the file; anything else throws
/// CheckError naming \p rank before a tile is allocated.
[[nodiscard]] SplitFile load_split_file(const std::filesystem::path& dir,
                                        int rank);

}  // namespace stormtrack
