// Streaming summary statistics (count / min / max / mean), e.g. of the
// per-access rounds the benches and examples report.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>

namespace pmtree {

/// Accumulates integer observations and exposes count/min/max/mean/sum and
/// population variance (via the sum of squares, which is exact for the
/// magnitudes pmtree tracks). Single-threaded; parallel callers keep one
/// accumulator per worker and merge at the end (see merge()).
class Accumulator {
 public:
  constexpr void add(std::uint64_t value) noexcept {
    count_ += 1;
    sum_ += value;
    sum_sq_ += value * value;
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }

  constexpr void merge(const Accumulator& other) noexcept {
    count_ += other.count_;
    sum_ += other.sum_;
    sum_sq_ += other.sum_sq_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }

  [[nodiscard]] constexpr std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] constexpr std::uint64_t sum() const noexcept { return sum_; }
  /// Minimum observed value; max uint64 when empty.
  [[nodiscard]] constexpr std::uint64_t min() const noexcept { return min_; }
  /// Maximum observed value; 0 when empty.
  [[nodiscard]] constexpr std::uint64_t max() const noexcept { return max_; }
  [[nodiscard]] constexpr double mean() const noexcept {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(count_);
  }
  [[nodiscard]] constexpr bool empty() const noexcept { return count_ == 0; }

  /// Population variance; 0 when empty.
  [[nodiscard]] constexpr double variance() const noexcept {
    if (count_ == 0) return 0.0;
    const double n = static_cast<double>(count_);
    const double mu = static_cast<double>(sum_) / n;
    return static_cast<double>(sum_sq_) / n - mu * mu;
  }

 private:
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t sum_sq_ = 0;
  std::uint64_t min_ = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_ = 0;
};

}  // namespace pmtree
