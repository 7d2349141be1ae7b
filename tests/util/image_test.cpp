#include "util/image.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "util/check.hpp"

namespace stormtrack {
namespace {

/// One directory per file: ctest runs these tests in parallel, and each
/// removes its own directory afterwards.
std::filesystem::path temp_file(const char* name) {
  return std::filesystem::temp_directory_path() /
         (std::string("stormtrack_image_test_") + name) / name;
}

std::string read_all(const std::filesystem::path& p) {
  std::ifstream is(p, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(is), {});
}

TEST(Image, PgmHeaderAndSize) {
  Grid2D<std::uint8_t> img(4, 3, 128);
  const auto path = temp_file("a.pgm");
  write_pgm(img, path);
  const std::string data = read_all(path);
  EXPECT_EQ(data.rfind("P5\n4 3\n255\n", 0), 0u);
  EXPECT_EQ(data.size(), std::string("P5\n4 3\n255\n").size() + 12);
  std::filesystem::remove_all(path.parent_path());
}

TEST(Image, PpmHeaderAndSize) {
  Grid2D<Rgb> img(2, 2, Rgb{1, 2, 3});
  const auto path = temp_file("b.ppm");
  write_ppm(img, path);
  const std::string data = read_all(path);
  EXPECT_EQ(data.rfind("P6\n2 2\n255\n", 0), 0u);
  EXPECT_EQ(data.size(), std::string("P6\n2 2\n255\n").size() + 12);
  std::filesystem::remove_all(path.parent_path());
}

TEST(Image, EmptyImageThrows) {
  Grid2D<std::uint8_t> img;
  EXPECT_THROW(write_pgm(img, temp_file("x.pgm")), CheckError);
}

TEST(FieldToGrey, LinearScaling) {
  Grid2D<double> f(3, 1);
  f(0, 0) = 0.0;
  f(1, 0) = 5.0;
  f(2, 0) = 10.0;
  const auto g = field_to_grey(f);
  EXPECT_EQ(g(0, 0), 0);
  EXPECT_EQ(g(1, 0), 128);
  EXPECT_EQ(g(2, 0), 255);
}

TEST(FieldToGrey, InvertForCloudConvention) {
  // Paper Fig. 1: darker = more cloud water.
  Grid2D<double> f(2, 1);
  f(0, 0) = 0.0;
  f(1, 0) = 1.0;
  const auto g = field_to_grey(f, /*invert=*/true);
  EXPECT_EQ(g(0, 0), 255);
  EXPECT_EQ(g(1, 0), 0);
}

TEST(FieldToGrey, ConstantFieldIsMidGrey) {
  Grid2D<double> f(4, 4, 7.0);
  const auto g = field_to_grey(f);
  for (auto v : g.data()) EXPECT_EQ(v, 128);
}

TEST(LabelsToRgb, DistinctLabelsDistinctColours) {
  Grid2D<int> labels(4, 1);
  labels(0, 0) = -1;
  labels(1, 0) = 0;
  labels(2, 0) = 1;
  labels(3, 0) = 2;
  const auto img = labels_to_rgb(labels);
  EXPECT_EQ(img(0, 0), (Rgb{40, 40, 40}));
  EXPECT_NE(img(1, 0), img(2, 0));
  EXPECT_NE(img(2, 0), img(3, 0));
  EXPECT_NE(img(1, 0), img(3, 0));
}

TEST(LabelsToRgb, Deterministic) {
  Grid2D<int> labels(8, 8);
  for (int y = 0; y < 8; ++y)
    for (int x = 0; x < 8; ++x) labels(x, y) = (x + y) % 5;
  EXPECT_EQ(labels_to_rgb(labels), labels_to_rgb(labels));
}

}  // namespace
}  // namespace stormtrack
