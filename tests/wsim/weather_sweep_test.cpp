/// Randomized property sweep over the synthetic weather generator: the
/// invariants the PDA pipeline depends on must hold for any seed.

#include <gtest/gtest.h>

#include "wsim/weather.hpp"

namespace stormtrack {
namespace {

class WeatherSweep : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  static WeatherConfig config() {
    WeatherConfig cfg = WeatherConfig::mumbai_2005();
    cfg.domain.resolution_km = 24.0;
    return cfg;
  }
};

TEST_P(WeatherSweep, FieldsStayPhysical) {
  WeatherModel m(config(), GetParam());
  for (int step = 0; step < 30; ++step) {
    m.step();
    for (double q : m.qcloud().data()) {
      EXPECT_GE(q, 0.0);
      EXPECT_LT(q, 1.0);  // mixing ratios are tiny (kg/kg)
    }
    const Grid2D<double> olr = m.olr();
    for (double o : olr.data()) {
      EXPECT_GE(o, m.config().olr_clear - m.config().olr_depression - 1e-9);
      EXPECT_LE(o, m.config().olr_clear + 1e-9);
    }
  }
}

TEST_P(WeatherSweep, OlrAntiCorrelatesWithQcloud) {
  WeatherModel m(config(), GetParam() + 10);
  for (int step = 0; step < 5; ++step) m.step();
  // Wherever OLR is at the paper threshold or below, cloud water must be
  // substantial; clear-sky cells must have near-background QCLOUD.
  const auto& q = m.qcloud();
  const auto& o = m.olr();
  for (int y = 0; y < q.height(); ++y) {
    for (int x = 0; x < q.width(); ++x) {
      if (o(x, y) <= 200.0) {
        EXPECT_GT(q(x, y), 2.0 * m.config().qcloud_clear);
      }
      if (o(x, y) >= m.config().olr_clear - 1e-9) {
        EXPECT_LE(q(x, y), m.config().qcloud_clear + 1e-12);
      }
    }
  }
}

TEST_P(WeatherSweep, CloudySubdomainCountsStayModest) {
  // The paper gathers < 200 elements from 1024 files at most steps; the
  // generator must not blanket the domain in cloud.
  WeatherModel m(config(), GetParam() + 20);
  for (int step = 0; step < 20; ++step) {
    m.step();
    const Grid2D<double> olr = m.olr();
    int below = 0;
    for (double v : olr.data())
      if (v <= 200.0) ++below;
    EXPECT_LT(below, static_cast<int>(olr.size()) / 3) << "step " << step;
  }
}

TEST_P(WeatherSweep, SystemsDriftOverTime) {
  WeatherModel m(config(), GetParam() + 30);
  ASSERT_FALSE(m.systems().empty());
  const double x0 = m.systems().front().cx;
  for (int step = 0; step < 10; ++step) m.step();
  bool any_moved = false;
  for (const CloudSystem& s : m.systems())
    any_moved |= std::abs(s.cx - x0) > 1.0;
  EXPECT_TRUE(any_moved);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WeatherSweep,
                         ::testing::Values(100u, 200u, 300u, 400u));

}  // namespace
}  // namespace stormtrack
