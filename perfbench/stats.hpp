// stats.hpp — constant-memory distributions for the benchmark's own
// samples, so the harness's bookkeeping does not grow with the number of
// operations and rss_peak_mib stays a measure of the program.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Log-linear histogram of positive values (128 sub-buckets per power of
/// two, ~0.5 % wide) from 2^-10 to 2^20 of the chosen unit. Quantiles
/// interpolate linearly inside the bucket they fall in.
class LogHist {
 public:
  void add(double v) {
    count_ += 1;
    buckets_[index(v)] += 1;
  }
  [[nodiscard]] std::uint64_t count() const { return count_; }

  [[nodiscard]] double quantile(double q) const {
    if (count_ == 0) return 0.0;
    const double target = q * double(count_);
    double cum = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      const double n = double(buckets_[i]);
      if (n > 0 && cum + n >= target) {
        return lower(i) + (lower(i + 1) - lower(i)) * ((target - cum) / n);
      }
      cum += n;
    }
    return lower(buckets_.size());
  }

 private:
  static constexpr int kMinExp = -10;
  static constexpr int kOctaves = 30;
  static constexpr int kSub = 128;

  static std::size_t index(double v) {
    if (!(v > std::ldexp(1.0, kMinExp))) return 0;
    int e = 0;
    const double m = std::frexp(v, &e);  // v = m * 2^e, m in [0.5, 1)
    const int octave = e - 1 - kMinExp;
    if (octave >= kOctaves) return std::size_t(kOctaves) * kSub - 1;
    const int sub = static_cast<int>((m * 2.0 - 1.0) * kSub);
    return std::size_t(octave) * kSub + std::size_t(sub);
  }
  static double lower(std::size_t i) {
    const double octave = double(i / kSub);
    const double sub = double(i % kSub);
    return std::ldexp(1.0 + sub / kSub, static_cast<int>(octave) + kMinExp);
  }

  std::uint64_t count_ = 0;
  std::array<std::uint64_t, std::size_t(kOctaves) * kSub> buckets_{};
};

/// Linear-interpolated quantile of a small sample (sorted copy).
[[nodiscard]] inline double quantile_of(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const auto i = static_cast<std::size_t>(pos);
  if (i + 1 >= v.size()) return v.back();
  return v[i] + (v[i + 1] - v[i]) * (pos - double(i));
}

}  // namespace perfbench
