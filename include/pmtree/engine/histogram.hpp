// Log-linear histogram with bounded relative error, HDR-histogram style.
//
// Values below 2^sub_bits land in exact unit buckets; larger values share
// an octave split into 2^sub_bits linear sub-buckets, so every bucket's
// width is at most value / 2^sub_bits and any reported quantile is within
// a (1 + 2^-sub_bits) factor of the true sample quantile. This is the
// standard latency-histogram design (HdrHistogram, Prometheus native
// histograms): O(1) record, fixed memory independent of sample count, and
// mergeable — which is what the cycle engine needs to track per-access
// latency and per-module queue depth over millions of cycles.
#pragma once

#include <cstdint>
#include <vector>

namespace pmtree::engine {

class Histogram {
 public:
  /// `sub_bits` linear sub-buckets per octave (relative error 2^-sub_bits).
  /// Default 1/32 ≈ 3.1% worst-case quantile error.
  explicit Histogram(std::uint32_t sub_bits = 5);

  void record(std::uint64_t value) { record(value, 1); }
  /// Records `count` observations of `value` at once (the engine's bulk
  /// depth samples).
  void record(std::uint64_t value, std::uint64_t count);

  /// Merges another histogram recorded with the same sub_bits.
  void merge(const Histogram& other);

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  /// Running sum of samples, saturating at max-uint64 instead of wrapping
  /// (mean() turns pessimistic rather than nonsensical on overflow).
  [[nodiscard]] std::uint64_t sum() const noexcept { return sum_; }
  /// Exact (not bucketed) extremes; min is max-uint64 when empty, max is 0.
  [[nodiscard]] std::uint64_t min() const noexcept;
  [[nodiscard]] std::uint64_t max() const noexcept { return max_; }
  [[nodiscard]] double mean() const noexcept;
  [[nodiscard]] std::uint32_t sub_bits() const noexcept { return sub_bits_; }

  /// Value v with P(sample <= v) >= q: the upper edge of the bucket holding
  /// the ceil(q * count)-th smallest sample. Guaranteed to be >= the true
  /// sample quantile and <= true * (1 + 2^-sub_bits). q is clamped to
  /// [0, 1]; q = 0 and q = 1 report the exact tracked min/max rather than
  /// a bucket edge. Returns 0 on an empty histogram.
  [[nodiscard]] std::uint64_t value_at_quantile(double q) const;

  /// Convenience percentiles.
  [[nodiscard]] std::uint64_t p50() const { return value_at_quantile(0.50); }
  [[nodiscard]] std::uint64_t p95() const { return value_at_quantile(0.95); }
  [[nodiscard]] std::uint64_t p99() const { return value_at_quantile(0.99); }

  /// One populated bucket: all samples in (lower, upper] — except bucket 0
  /// which is exactly value 0 — reported at the upper edge.
  struct Bucket {
    std::uint64_t upper = 0;  ///< inclusive upper edge (representative)
    std::uint64_t count = 0;
  };
  /// Populated buckets in increasing value order (JSON export).
  [[nodiscard]] std::vector<Bucket> buckets() const;

 private:
  [[nodiscard]] std::size_t bucket_index(std::uint64_t value) const noexcept;
  [[nodiscard]] std::uint64_t bucket_upper(std::size_t index) const noexcept;

  std::uint32_t sub_bits_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_;
  std::uint64_t max_ = 0;
};

}  // namespace pmtree::engine
