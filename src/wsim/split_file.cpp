#include "wsim/split_file.hpp"

#include <cstdint>
#include <fstream>

#include "redist/block_decomp.hpp"
#include "util/check.hpp"

namespace stormtrack {

std::vector<SplitFile> write_split_files(const WeatherModel& model, int px,
                                         int py) {
  ST_CHECK_MSG(px >= 1 && py >= 1,
               "process grid must be positive, got " << px << "x" << py);
  const Grid2D<double>& q = model.qcloud();
  const WeatherConfig& cfg = model.config();
  std::vector<SplitFile> files;
  files.reserve(static_cast<std::size_t>(px) * py);
  for (int j = 0; j < py; ++j) {
    const Span1D rows = block_range(j, q.height(), py);
    for (int i = 0; i < px; ++i) {
      const Span1D cols = block_range(i, q.width(), px);
      SplitFile f;
      f.rank = j * px + i;
      f.grid_px = px;
      f.subdomain = Rect{cols.begin, rows.begin, cols.count, rows.count};
      f.qcloud = q.extract(f.subdomain);
      f.olr = cfg.olr_of(f.qcloud);
      files.push_back(std::move(f));
    }
  }
  return files;
}

namespace {

constexpr std::uint32_t kMagic = 0x53544646;  // "STFF"

void write_grid(std::ofstream& os, const Grid2D<double>& g) {
  const std::int32_t w = g.width(), h = g.height();
  os.write(reinterpret_cast<const char*>(&w), sizeof w);
  os.write(reinterpret_cast<const char*>(&h), sizeof h);
  os.write(reinterpret_cast<const char*>(g.data().data()),
           static_cast<std::streamsize>(g.data().size() * sizeof(double)));
}

/// Reads one tile, which must be \p subdomain's size: a corrupt size
/// throws CheckError before anything is allocated.
Grid2D<double> read_grid(std::ifstream& is, const Rect& subdomain) {
  std::int32_t w = 0, h = 0;
  is.read(reinterpret_cast<char*>(&w), sizeof w);
  is.read(reinterpret_cast<char*>(&h), sizeof h);
  ST_CHECK_MSG(is.good() && w == subdomain.w && h == subdomain.h,
               "split file tile " << w << "x" << h << " does not match "
                                  << subdomain);
  Grid2D<double> g(w, h);
  is.read(reinterpret_cast<char*>(g.data().data()),
          static_cast<std::streamsize>(g.data().size() * sizeof(double)));
  ST_CHECK_MSG(is.good(), "truncated split file grid");
  return g;
}

std::filesystem::path file_path(const std::filesystem::path& dir, int rank) {
  return dir / ("wrfout_d01_" + std::to_string(rank) + ".bin");
}

}  // namespace

void save_split_file(const SplitFile& f, const std::filesystem::path& dir) {
  std::filesystem::create_directories(dir);
  std::ofstream os(file_path(dir, f.rank), std::ios::binary);
  ST_CHECK_MSG(os.is_open(), "cannot open split file for rank " << f.rank);
  os.write(reinterpret_cast<const char*>(&kMagic), sizeof kMagic);
  const std::int32_t header[6] = {f.rank, f.grid_px, f.subdomain.x,
                                  f.subdomain.y, f.subdomain.w,
                                  f.subdomain.h};
  os.write(reinterpret_cast<const char*>(header), sizeof header);
  write_grid(os, f.qcloud);
  write_grid(os, f.olr);
  ST_CHECK_MSG(os.good(), "failed writing split file for rank " << f.rank);
}

SplitFile load_split_file(const std::filesystem::path& dir, int rank) {
  std::ifstream is(file_path(dir, rank), std::ios::binary);
  ST_CHECK_MSG(is.is_open(), "cannot open split file for rank " << rank);
  std::uint32_t magic = 0;
  is.read(reinterpret_cast<char*>(&magic), sizeof magic);
  ST_CHECK_MSG(magic == kMagic, "bad split file magic for rank " << rank);
  std::int32_t header[6] = {};
  is.read(reinterpret_cast<char*>(header), sizeof header);
  ST_CHECK_MSG(is.good(), "truncated split file header for rank " << rank);
  ST_CHECK_MSG(header[0] == rank, "split file for rank "
                                      << rank << " holds rank " << header[0]);
  ST_CHECK_MSG(header[1] >= 1, "split file for rank "
                                   << rank << " has grid_px " << header[1]);
  ST_CHECK_MSG(header[2] >= 0 && header[3] >= 0 && header[4] >= 0 &&
                   header[5] >= 0,
               "split file for rank " << rank << " has negative subdomain");
  // Both tiles (two int32 sizes and w·h doubles each) must fit in what is
  // left of the file; w·h < 2^62 fits a uint64_t, 16·w·h may not.
  const std::streamoff here = is.tellg();
  is.seekg(0, std::ios::end);
  const std::streamoff left = is.tellg() - here;
  is.seekg(here);
  const std::uint64_t area = static_cast<std::uint64_t>(header[4]) *
                             static_cast<std::uint64_t>(header[5]);
  ST_CHECK_MSG(is.good() && left >= 16 &&
                   area <= (static_cast<std::uint64_t>(left) - 16) / 16,
               "split file for rank " << rank << " is too short for its "
                                      << header[4] << "x" << header[5]
                                      << " subdomain");
  SplitFile f;
  f.rank = header[0];
  f.grid_px = header[1];
  f.subdomain = Rect{header[2], header[3], header[4], header[5]};
  f.qcloud = read_grid(is, f.subdomain);
  f.olr = read_grid(is, f.subdomain);
  return f;
}

}  // namespace stormtrack
