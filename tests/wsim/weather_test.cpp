#include "wsim/weather.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace stormtrack {
namespace {

TEST(GeoDomain, IndianRegionAt12km) {
  const GeoDomain d;  // 60–120°E, 5–40°N, 12 km
  EXPECT_GT(d.nx(), 400);
  EXPECT_LT(d.nx(), 560);
  EXPECT_GT(d.ny(), 280);
  EXPECT_LT(d.ny(), 360);
}

TEST(GeoDomain, FinerResolutionMorePoints) {
  GeoDomain coarse;
  GeoDomain fine;
  fine.resolution_km = 4.0;
  EXPECT_NEAR(static_cast<double>(fine.nx()) / coarse.nx(), 3.0, 0.05);
}

TEST(WeatherModel, StartsWithMinimumSystems) {
  const WeatherConfig cfg = WeatherConfig::mumbai_2005();
  WeatherModel m(cfg, 1);
  EXPECT_GE(static_cast<int>(m.systems().size()), cfg.min_systems);
  EXPECT_EQ(m.time_step(), 0);
}

TEST(WeatherModel, PopulationStaysWithinBounds) {
  const WeatherConfig cfg = WeatherConfig::mumbai_2005();
  WeatherModel m(cfg, 7);
  for (int i = 0; i < 120; ++i) {
    m.step();
    EXPECT_GE(static_cast<int>(m.systems().size()), cfg.min_systems);
    EXPECT_LE(static_cast<int>(m.systems().size()), cfg.max_systems);
  }
  EXPECT_EQ(m.time_step(), 120);
}

TEST(WeatherModel, OlrDepressedUnderCloud) {
  const WeatherConfig cfg = WeatherConfig::mumbai_2005();
  WeatherModel m(cfg, 3);
  for (int i = 0; i < 5; ++i) m.step();
  // At a system centre, OLR must be well below clear sky; QCLOUD high.
  const CloudSystem& s = m.systems().front();
  const int cx = std::clamp(static_cast<int>(s.cx), 0,
                            m.qcloud().width() - 1);
  const int cy = std::clamp(static_cast<int>(s.cy), 0,
                            m.qcloud().height() - 1);
  EXPECT_LT(m.olr()(cx, cy), cfg.olr_clear);
  EXPECT_GT(m.qcloud()(cx, cy), cfg.qcloud_clear);
}

TEST(WeatherModel, SomeRegionBelowPaperOlrThreshold) {
  WeatherModel m(WeatherConfig::mumbai_2005(), 11);
  for (int i = 0; i < 10; ++i) m.step();
  const Grid2D<double> olr = m.olr();
  int below = 0;
  for (double v : olr.data())
    if (v <= 200.0) ++below;
  EXPECT_GT(below, 0);
  // ...but not the whole domain.
  EXPECT_LT(below, static_cast<int>(olr.size()) / 2);
}

TEST(WeatherModel, DeterministicBySeed) {
  WeatherModel a(WeatherConfig::mumbai_2005(), 42);
  WeatherModel b(WeatherConfig::mumbai_2005(), 42);
  for (int i = 0; i < 10; ++i) {
    a.step();
    b.step();
  }
  EXPECT_EQ(a.qcloud(), b.qcloud());
  EXPECT_EQ(a.olr(), b.olr());
}

TEST(WeatherModel, SystemsEvolveOverTime) {
  WeatherModel m(WeatherConfig::mumbai_2005(), 9);
  const Grid2D<double> before = m.qcloud();
  for (int i = 0; i < 8; ++i) m.step();
  EXPECT_NE(m.qcloud(), before);
}

}  // namespace
}  // namespace stormtrack
