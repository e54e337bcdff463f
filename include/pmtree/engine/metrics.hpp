// MetricsRegistry: named counters, gauges and histograms for the engine,
// benches and examples.
//
// The registry is the single sink the cycle engine writes its
// observability data into, so a bench can hand one registry to several
// engine runs (prefixing names per run) and export everything as one JSON
// snapshot. Three instrument kinds, mirroring the usual Prometheus/
// OpenTelemetry split:
//
//   * Counter — monotone uint64 (requests served, cycles executed);
//   * Gauge   — last-write int64 value plus a high-water mark (queue
//               depth, in-flight accesses);
//   * Histogram — log-linear distribution with percentiles (latency,
//               per-cycle module occupancy); see histogram.hpp.
//
// Instruments are created on first touch and owned by the registry;
// references stay valid for the registry's lifetime (std::map nodes are
// stable). Export order is name-sorted, hence deterministic.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "pmtree/engine/histogram.hpp"
#include "pmtree/util/json.hpp"

namespace pmtree::engine {

class Counter {
 public:
  void add(std::uint64_t delta = 1) noexcept { value_ += delta; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void set(std::int64_t value) noexcept {
    value_ = value;
    high_water_ = value > high_water_ ? value : high_water_;
  }
  [[nodiscard]] std::int64_t value() const noexcept { return value_; }
  /// Largest value ever set (0 if never set above 0).
  [[nodiscard]] std::int64_t high_water() const noexcept { return high_water_; }

 private:
  std::int64_t value_ = 0;
  std::int64_t high_water_ = 0;
};

class MetricsRegistry {
 public:
  /// Instrument accessors: create on first use, then return the existing
  /// instrument. A name refers to one kind only; re-using a counter name
  /// as a gauge is a programming error (asserted in debug builds).
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name, std::uint32_t sub_bits = 5);

  /// Read-only lookups; nullptr when the instrument does not exist.
  [[nodiscard]] const Counter* find_counter(const std::string& name) const;
  [[nodiscard]] const Gauge* find_gauge(const std::string& name) const;
  [[nodiscard]] const Histogram* find_histogram(const std::string& name) const;

  [[nodiscard]] std::size_t size() const noexcept {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  /// Snapshot of every instrument, name-sorted within each kind:
  ///   {"counters": {name: value},
  ///    "gauges": {name: {"value": v, "high_water": h}},
  ///    "histograms": {name: {"count","min","max","sum","mean","p50",
  ///                          "p95","p99","sub_bits",
  ///                          "buckets":[[upper,count]...]}}}
  /// An empty histogram exports "min": 0.
  [[nodiscard]] Json to_json() const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace pmtree::engine
