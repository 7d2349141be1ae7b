#include "wsim/split_file.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <string>
#include <utility>

#include "pda/pda.hpp"
#include "util/check.hpp"

namespace stormtrack {
namespace {

WeatherModel small_model() {
  WeatherConfig cfg = WeatherConfig::mumbai_2005();
  cfg.domain.resolution_km = 48.0;  // coarse grid for fast tests
  return WeatherModel(cfg, 21);
}

TEST(SplitFile, OneFilePerRank) {
  const WeatherModel m = small_model();
  const auto files = write_split_files(m, 8, 4);
  ASSERT_EQ(files.size(), 32u);
  for (int r = 0; r < 32; ++r) {
    EXPECT_EQ(files[r].rank, r);
    EXPECT_EQ(files[r].grid_px, 8);
  }
}

TEST(SplitFile, SubdomainsTileTheDomain) {
  const WeatherModel m = small_model();
  const auto files = write_split_files(m, 8, 4);
  std::int64_t area = 0;
  for (const SplitFile& f : files) {
    area += f.subdomain.area();
    EXPECT_EQ(f.qcloud.width(), f.subdomain.w);
    EXPECT_EQ(f.olr.height(), f.subdomain.h);
  }
  EXPECT_EQ(area, static_cast<std::int64_t>(m.qcloud().width()) *
                      m.qcloud().height());
}

TEST(SplitFile, TileValuesMatchGlobalField) {
  WeatherModel m = small_model();
  for (int i = 0; i < 3; ++i) m.step();
  const WeatherConfig& cfg = m.config();
  const Grid2D<double> olr = m.olr();
  const auto files = write_split_files(m, 4, 4);
  for (const SplitFile& f : files) {
    for (int y = 0; y < f.subdomain.h; ++y) {
      for (int x = 0; x < f.subdomain.w; ++x) {
        const int gx = f.subdomain.x + x, gy = f.subdomain.y + y;
        ASSERT_EQ(f.qcloud(x, y), m.qcloud()(gx, gy));
        // The OLR tile is derived from the QCLOUD tile, bit for bit the
        // value the whole-field OLR holds at that cell.
        ASSERT_EQ(f.olr(x, y), olr(gx, gy));
        ASSERT_EQ(f.olr(x, y), cfg.olr_of(f.qcloud(x, y)));
      }
    }
  }
}

TEST(SplitFile, FileGridPosition) {
  const WeatherModel m = small_model();
  const auto files = write_split_files(m, 8, 4);
  EXPECT_EQ(files[0].file_x(), 0);
  EXPECT_EQ(files[0].file_y(), 0);
  EXPECT_EQ(files[9].file_x(), 1);
  EXPECT_EQ(files[9].file_y(), 1);
}

TEST(SplitFile, DiskRoundTrip) {
  const WeatherModel m = small_model();
  const auto files = write_split_files(m, 4, 2);
  const auto dir = std::filesystem::temp_directory_path() /
                   "stormtrack_splitfile_test";
  std::filesystem::remove_all(dir);
  for (const SplitFile& f : files) save_split_file(f, dir);
  for (const SplitFile& f : files) {
    const SplitFile loaded = load_split_file(dir, f.rank);
    EXPECT_EQ(loaded.rank, f.rank);
    EXPECT_EQ(loaded.grid_px, f.grid_px);
    EXPECT_EQ(loaded.subdomain, f.subdomain);
    EXPECT_EQ(loaded.qcloud, f.qcloud);
    EXPECT_EQ(loaded.olr, f.olr);
  }
  std::filesystem::remove_all(dir);
}

TEST(SplitFile, MissingFileThrows) {
  const auto dir = std::filesystem::temp_directory_path() /
                   "stormtrack_splitfile_missing";
  std::filesystem::remove_all(dir);
  EXPECT_THROW((void)load_split_file(dir, 0), CheckError);
}

TEST(SplitFile, PatchedTileSizeIsRefusedBeforeAllocating) {
  const WeatherModel m = small_model();
  const auto files = write_split_files(m, 4, 4);
  const auto dir = std::filesystem::temp_directory_path() /
                   "stormtrack_splitfile_patched";
  std::filesystem::remove_all(dir);
  for (const SplitFile& f : files) save_split_file(f, dir);
  // Rank 1's QCLOUD tile claims 2^31-1 x 2^31-1 cells; rank 2's QCLOUD
  // tile claims one column fewer than its OLR tile. Tile sizes follow the
  // magic (4 bytes) and the six-int header (24 bytes).
  const auto patch = [&](int rank, std::int32_t w, std::int32_t h) {
    std::fstream io(dir / ("wrfout_d01_" + std::to_string(rank) + ".bin"),
                    std::ios::binary | std::ios::in | std::ios::out);
    io.seekp(28);
    io.write(reinterpret_cast<const char*>(&w), sizeof w);
    io.write(reinterpret_cast<const char*>(&h), sizeof h);
  };
  patch(1, 0x7fffffff, 0x7fffffff);
  patch(2, files[2].subdomain.w - 1, files[2].subdomain.h);
  EXPECT_THROW((void)load_split_file(dir, 1), CheckError);
  EXPECT_THROW((void)load_split_file(dir, 2), CheckError);

  PdaConfig cfg;
  cfg.analysis_procs = 4;
  const PdaResult result = parallel_data_analysis_from_dir(
      dir, static_cast<int>(files.size()), cfg);
  ASSERT_EQ(result.lost_files.size(), 2u);
  EXPECT_EQ(result.lost_files[0].file_rank, 1);
  EXPECT_EQ(result.lost_files[1].file_rank, 2);
  std::filesystem::remove_all(dir);
}

/// Overwrite int32 fields of rank \p rank's file at the given byte offsets.
/// The six-int header follows the 4-byte magic: rank at 4, grid_px at 8,
/// subdomain x/y/w/h at 12/16/20/24; the first tile's w/h sit at 28/32.
void patch_ints(const std::filesystem::path& dir, int rank,
                std::initializer_list<std::pair<int, std::int32_t>> fields) {
  std::fstream io(dir / ("wrfout_d01_" + std::to_string(rank) + ".bin"),
                  std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(io.is_open());
  for (const auto& [offset, value] : fields) {
    io.seekp(offset);
    io.write(reinterpret_cast<const char*>(&value), sizeof value);
  }
}

TEST(SplitFile, ConsistentHugeSubdomainIsRefusedBeforeAllocating) {
  const WeatherModel m = small_model();
  const auto files = write_split_files(m, 4, 4);
  const auto dir = std::filesystem::temp_directory_path() /
                   "stormtrack_splitfile_huge";
  std::filesystem::remove_all(dir);
  for (const SplitFile& f : files) save_split_file(f, dir);
  // Header subdomain and first tile agree on 2^31-1 x 2^31-1 cells, so the
  // tile check alone would pass; the file is far too short for them.
  patch_ints(dir, 3, {{20, 0x7fffffff}, {24, 0x7fffffff},
                      {28, 0x7fffffff}, {32, 0x7fffffff}});
  EXPECT_THROW((void)load_split_file(dir, 3), CheckError);

  PdaConfig cfg;
  cfg.analysis_procs = 4;
  const PdaResult result = parallel_data_analysis_from_dir(
      dir, static_cast<int>(files.size()), cfg);
  ASSERT_EQ(result.lost_files.size(), 1u);
  EXPECT_EQ(result.lost_files[0].file_rank, 3);
  std::filesystem::remove_all(dir);
}

TEST(SplitFile, FileOfAnotherRankIsRefused) {
  const WeatherModel m = small_model();
  const auto files = write_split_files(m, 4, 2);
  const auto dir = std::filesystem::temp_directory_path() /
                   "stormtrack_splitfile_renamed";
  std::filesystem::remove_all(dir);
  for (const SplitFile& f : files) save_split_file(f, dir);
  std::filesystem::rename(dir / "wrfout_d01_7.bin", dir / "wrfout_d01_0.bin");
  EXPECT_THROW((void)load_split_file(dir, 0), CheckError);
  EXPECT_EQ(load_split_file(dir, 6).rank, 6);
  std::filesystem::remove_all(dir);
}

TEST(SplitFile, BadGridWidthOrNegativeSubdomainIsRefused) {
  const WeatherModel m = small_model();
  const auto files = write_split_files(m, 4, 2);
  const auto dir = std::filesystem::temp_directory_path() /
                   "stormtrack_splitfile_badheader";
  std::filesystem::remove_all(dir);
  for (const SplitFile& f : files) save_split_file(f, dir);
  patch_ints(dir, 1, {{8, 0}});   // grid_px 0
  patch_ints(dir, 2, {{12, -1}}); // negative origin, tiles still match
  EXPECT_THROW((void)load_split_file(dir, 1), CheckError);
  EXPECT_THROW((void)load_split_file(dir, 2), CheckError);
  EXPECT_EQ(load_split_file(dir, 3).rank, 3);
  std::filesystem::remove_all(dir);
}

TEST(SplitFile, BadGridThrows) {
  const WeatherModel m = small_model();
  EXPECT_THROW((void)write_split_files(m, 0, 4), CheckError);
}

}  // namespace
}  // namespace stormtrack
