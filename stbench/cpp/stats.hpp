#pragma once

/// \file stats.hpp
/// Order statistics for the end-to-end metrics.

#include <algorithm>
#include <cmath>
#include <vector>

namespace stbench {

/// Linear-interpolated quantile (q in [0, 1]) of \p values; 0 when empty.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double median_of(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

}  // namespace stbench
