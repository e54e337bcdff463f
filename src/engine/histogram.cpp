#include "pmtree/engine/histogram.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "pmtree/util/bits.hpp"

namespace pmtree::engine {

namespace {

/// Index layout: values < 2^(sub_bits+1) use exact unit buckets
/// 0 .. 2^(sub_bits+1)-1. Each later octave o (values [2^o, 2^(o+1)))
/// contributes 2^sub_bits buckets of width 2^(o-sub_bits).
constexpr std::uint32_t kMaxOctave = 64;

}  // namespace

Histogram::Histogram(std::uint32_t sub_bits)
    : sub_bits_(sub_bits), min_(std::numeric_limits<std::uint64_t>::max()) {
  assert(sub_bits >= 1 && sub_bits <= 16);
  // Unit region + one sub-bucket group per octave above it. Octaves run
  // from sub_bits+1 to 63, so the table is small (e.g. 2^6 + 57*32 for
  // sub_bits = 5) and never reallocates on the hot path.
  const std::size_t unit = std::size_t{1} << (sub_bits_ + 1);
  const std::size_t octaves = kMaxOctave - (sub_bits_ + 1);
  counts_.assign(unit + octaves * (std::size_t{1} << sub_bits_), 0);
}

std::size_t Histogram::bucket_index(std::uint64_t value) const noexcept {
  const std::uint64_t unit = std::uint64_t{1} << (sub_bits_ + 1);
  if (value < unit) return static_cast<std::size_t>(value);
  const std::uint32_t octave = floor_log2(value);
  const std::uint64_t sub =
      (value >> (octave - sub_bits_)) - (std::uint64_t{1} << sub_bits_);
  return static_cast<std::size_t>(
      unit + (octave - (sub_bits_ + 1)) * (std::uint64_t{1} << sub_bits_) + sub);
}

std::uint64_t Histogram::bucket_upper(std::size_t index) const noexcept {
  const std::uint64_t unit = std::uint64_t{1} << (sub_bits_ + 1);
  if (index < unit) return index;
  const std::uint64_t rel = index - unit;
  const std::uint32_t octave =
      static_cast<std::uint32_t>(rel >> sub_bits_) + sub_bits_ + 1;
  const std::uint64_t sub = rel & ((std::uint64_t{1} << sub_bits_) - 1);
  const std::uint64_t width = std::uint64_t{1} << (octave - sub_bits_);
  // Highest value mapping to this bucket.
  return (std::uint64_t{1} << octave) + (sub + 1) * width - 1;
}

namespace {

/// a + b, pinned to max-uint64 on overflow. The running sum only feeds
/// mean(); a saturated mean is merely pessimistic, whereas a wrapped one
/// (large values × bulk counts, e.g. the engine's zero-sample path
/// recording millions at once next to near-max latencies) is nonsense.
[[nodiscard]] std::uint64_t saturating_add(std::uint64_t a,
                                           std::uint64_t b) noexcept {
  std::uint64_t out = 0;
  if (__builtin_add_overflow(a, b, &out)) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  return out;
}

[[nodiscard]] std::uint64_t saturating_mul(std::uint64_t a,
                                           std::uint64_t b) noexcept {
  std::uint64_t out = 0;
  if (__builtin_mul_overflow(a, b, &out)) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  return out;
}

}  // namespace

void Histogram::record(std::uint64_t value, std::uint64_t count) {
  if (count == 0) return;
  counts_[bucket_index(value)] += count;
  count_ += count;
  sum_ = saturating_add(sum_, saturating_mul(value, count));
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

void Histogram::merge(const Histogram& other) {
  assert(sub_bits_ == other.sub_bits_);
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  count_ += other.count_;
  sum_ = saturating_add(sum_, other.sum_);
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

std::uint64_t Histogram::min() const noexcept { return min_; }

double Histogram::mean() const noexcept {
  return count_ == 0 ? 0.0
                     : static_cast<double>(sum_) / static_cast<double>(count_);
}

std::uint64_t Histogram::value_at_quantile(double q) const {
  if (count_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // The extremes are tracked exactly, so report them exactly: q = 0 is
  // the smallest sample and q = 1 the largest, not the (possibly wider)
  // upper edge of the bucket that happens to hold them.
  if (q <= 0.0) return min_;
  if (q >= 1.0) return max_;
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count_)));
  const std::uint64_t target = std::max<std::uint64_t>(rank, 1);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    seen += counts_[i];
    if (seen >= target) return std::min(bucket_upper(i), max_);
  }
  return max_;  // unreachable
}

std::vector<Histogram::Bucket> Histogram::buckets() const {
  std::vector<Bucket> out;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] != 0) out.push_back(Bucket{bucket_upper(i), counts_[i]});
  }
  return out;
}

}  // namespace pmtree::engine
