// stats.hpp — small online/offline statistics helpers used by the benchmark
// harnesses (latency distributions, throughput counters).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace ftcorba {

/// Collects samples and answers summary queries. Percentiles interpolate
/// linearly between neighbouring ranks of a sorted copy.
class Samples {
 public:
  /// Adds one observation.
  void add(double v) { values_.push_back(v); }

  /// Number of observations.
  [[nodiscard]] std::size_t count() const { return values_.size(); }

  /// Arithmetic mean (0 when empty).
  [[nodiscard]] double mean() const {
    if (values_.empty()) return 0.0;
    double sum = 0.0;
    for (double v : values_) sum += v;
    return sum / static_cast<double>(values_.size());
  }

  /// Sample standard deviation (0 for fewer than two observations).
  [[nodiscard]] double stddev() const {
    if (values_.size() < 2) return 0.0;
    const double m = mean();
    double acc = 0.0;
    for (double v : values_) acc += (v - m) * (v - m);
    return std::sqrt(acc / static_cast<double>(values_.size() - 1));
  }

  /// Smallest observation (0 when empty).
  [[nodiscard]] double min() const {
    return values_.empty() ? 0.0 : *std::min_element(values_.begin(), values_.end());
  }

  /// Largest observation (0 when empty).
  [[nodiscard]] double max() const {
    return values_.empty() ? 0.0 : *std::max_element(values_.begin(), values_.end());
  }

  /// p-th percentile, p in [0, 100]: the value at rank p/100 · (n − 1) of
  /// the sorted data, interpolated linearly between the two neighbouring
  /// samples when that rank is fractional (so not always a sample value).
  [[nodiscard]] double percentile(double p) const {
    if (values_.empty()) return 0.0;
    std::vector<double> sorted = values_;
    std::sort(sorted.begin(), sorted.end());
    const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
  }

  /// Median (p50).
  [[nodiscard]] double median() const { return percentile(50.0); }

  /// Read-only access to raw samples.
  [[nodiscard]] const std::vector<double>& values() const { return values_; }

  /// Discards all samples.
  void clear() { values_.clear(); }

 private:
  std::vector<double> values_;
};

}  // namespace ftcorba
