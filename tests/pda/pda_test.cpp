#include "pda/pda.hpp"

#include <gtest/gtest.h>

#include "util/check.hpp"

namespace stormtrack {
namespace {

WeatherModel test_model(std::uint64_t seed = 33) {
  WeatherConfig cfg = WeatherConfig::mumbai_2005();
  cfg.domain.resolution_km = 24.0;  // half resolution for test speed
  WeatherModel m(cfg, seed);
  for (int i = 0; i < 5; ++i) m.step();
  return m;
}

TEST(AnalyzeSplitFile, AggregatesOnlyUnderOlrThreshold) {
  SplitFile f;
  f.rank = 0;
  f.grid_px = 1;
  f.subdomain = Rect{0, 0, 4, 2};
  f.qcloud = Grid2D<double>(4, 2, 0.01);
  f.olr = Grid2D<double>(4, 2, 250.0);  // all above threshold
  EXPECT_FALSE(analyze_split_file(f, PdaConfig{}).has_value());

  f.olr(0, 0) = 150.0;
  f.olr(1, 0) = 199.0;
  const auto info = analyze_split_file(f, PdaConfig{});
  ASSERT_TRUE(info.has_value());
  EXPECT_NEAR(info->qcloud, 0.02, 1e-12);
  EXPECT_NEAR(info->olrfraction, 2.0 / 8.0, 1e-12);
}

TEST(AnalyzeSplitFile, BoundaryOlrCountsAsCloudy) {
  SplitFile f;
  f.rank = 3;
  f.grid_px = 4;
  f.subdomain = Rect{0, 0, 2, 2};
  f.qcloud = Grid2D<double>(2, 2, 0.5);
  f.olr = Grid2D<double>(2, 2, 200.0);  // exactly the threshold
  const auto info = analyze_split_file(f, PdaConfig{});
  ASSERT_TRUE(info.has_value());
  EXPECT_DOUBLE_EQ(info->olrfraction, 1.0);
}

TEST(Pda, FindsRegionsOfInterest) {
  const WeatherModel m = test_model();
  const auto files = write_split_files(m, 16, 16);
  PdaConfig cfg;
  cfg.analysis_procs = 16;
  const PdaResult result = parallel_data_analysis(files, cfg);
  EXPECT_FALSE(result.rectangles.empty());
  EXPECT_LE(result.rectangles.size(), 12u);
  for (const Rect& r : result.rectangles) {
    EXPECT_FALSE(r.empty());
    EXPECT_TRUE(m.qcloud().bounds().contains(r));
  }
}

TEST(Pda, QcloudInfoSortedNonIncreasing) {
  const WeatherModel m = test_model();
  const auto files = write_split_files(m, 16, 16);
  PdaConfig cfg;
  cfg.analysis_procs = 32;
  const PdaResult result = parallel_data_analysis(files, cfg);
  for (std::size_t i = 1; i < result.qcloudinfo.size(); ++i)
    EXPECT_GE(result.qcloudinfo[i - 1].qcloud, result.qcloudinfo[i].qcloud);
}

TEST(Pda, RoisCoverCloudSystemCentres) {
  // Every strong in-domain cloud system centre should fall inside some ROI.
  const WeatherModel m = test_model(55);
  const auto files = write_split_files(m, 16, 16);
  PdaConfig cfg;
  cfg.analysis_procs = 16;
  const PdaResult result = parallel_data_analysis(files, cfg);
  int covered = 0, strong = 0;
  for (const CloudSystem& s : m.systems()) {
    const int cx = static_cast<int>(s.cx);
    const int cy = static_cast<int>(s.cy);
    if (!m.qcloud().in_bounds(cx, cy)) continue;
    if (s.intensity < m.config().qcloud_opaque) continue;
    ++strong;
    for (const Rect& r : result.rectangles)
      if (r.contains(cx, cy)) {
        ++covered;
        break;
      }
  }
  if (strong > 0) {
    EXPECT_GE(covered, (strong + 1) / 2);
  }
}

TEST(Pda, ResultIndependentOfAnalysisProcCount) {
  // N only changes who aggregates which files, not the result.
  const WeatherModel m = test_model();
  const auto files = write_split_files(m, 16, 16);
  PdaConfig a;
  a.analysis_procs = 8;
  PdaConfig b;
  b.analysis_procs = 64;
  const PdaResult ra = parallel_data_analysis(files, a);
  const PdaResult rb = parallel_data_analysis(files, b);
  EXPECT_EQ(ra.rectangles, rb.rectangles);
}

TEST(Pda, GatherPricedOnAnalysisComm) {
  const WeatherModel m = test_model();
  const auto files = write_split_files(m, 16, 16);
  Mesh2D topo(4, 4);
  RowMajorMapping map(16);
  SimComm comm(topo, map);
  PdaConfig cfg;
  cfg.analysis_procs = 16;
  const PdaResult result = parallel_data_analysis(files, cfg, &comm);
  EXPECT_GT(result.traffic.total_bytes, 0);
  EXPECT_GT(result.traffic.modeled_time, 0.0);
}

TEST(Pda, AnalysisCountMustDivideFileCount) {
  const WeatherModel m = test_model();
  const auto files = write_split_files(m, 16, 16);
  PdaConfig cfg;
  cfg.analysis_procs = 7;
  EXPECT_THROW((void)parallel_data_analysis(files, cfg), CheckError);
}

TEST(Pda, FromDiskMatchesInMemory) {
  const WeatherModel m = test_model();
  const auto files = write_split_files(m, 16, 16);
  const auto dir =
      std::filesystem::temp_directory_path() / "stormtrack_pda_disk_test";
  std::filesystem::remove_all(dir);
  for (const SplitFile& f : files) save_split_file(f, dir);

  PdaConfig cfg;
  cfg.analysis_procs = 16;
  const PdaResult mem = parallel_data_analysis(files, cfg);
  const PdaResult disk =
      parallel_data_analysis_from_dir(dir, static_cast<int>(files.size()),
                                      cfg);
  EXPECT_EQ(mem.rectangles, disk.rectangles);
  EXPECT_EQ(mem.qcloudinfo.size(), disk.qcloudinfo.size());
  std::filesystem::remove_all(dir);
}

TEST(Pda, FromDiskMissingFilesThrow) {
  const auto dir =
      std::filesystem::temp_directory_path() / "stormtrack_pda_missing";
  std::filesystem::remove_all(dir);
  EXPECT_THROW((void)parallel_data_analysis_from_dir(dir, 4, PdaConfig{}),
               CheckError);
}

TEST(Pda, RectanglesSortedDeterministically) {
  const WeatherModel m = test_model();
  const auto files = write_split_files(m, 16, 16);
  PdaConfig cfg;
  cfg.analysis_procs = 16;
  const PdaResult r1 = parallel_data_analysis(files, cfg);
  const PdaResult r2 = parallel_data_analysis(files, cfg);
  EXPECT_EQ(r1.rectangles, r2.rectangles);
  for (std::size_t i = 1; i < r1.rectangles.size(); ++i) {
    const Rect& a = r1.rectangles[i - 1];
    const Rect& b = r1.rectangles[i];
    EXPECT_TRUE(std::pair(a.x, a.y) <= std::pair(b.x, b.y));
  }
}

}  // namespace
}  // namespace stormtrack
