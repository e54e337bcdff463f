#include "pmtree/engine/metrics.hpp"

#include <cassert>

namespace pmtree::engine {

Counter& MetricsRegistry::counter(const std::string& name) {
  assert(gauges_.count(name) == 0 && histograms_.count(name) == 0);
  return counters_[name];
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  assert(counters_.count(name) == 0 && histograms_.count(name) == 0);
  return gauges_[name];
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::uint32_t sub_bits) {
  assert(counters_.count(name) == 0 && gauges_.count(name) == 0);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(name, Histogram(sub_bits)).first;
  }
  return it->second;
}

const Counter* MetricsRegistry::find_counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

const Gauge* MetricsRegistry::find_gauge(const std::string& name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : &it->second;
}

const Histogram* MetricsRegistry::find_histogram(const std::string& name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

Json MetricsRegistry::to_json() const {
  Json root = Json::object();

  Json counters = Json::object();
  for (const auto& [name, c] : counters_) counters.set(name, Json(c.value()));
  root.set("counters", std::move(counters));

  Json gauges = Json::object();
  for (const auto& [name, g] : gauges_) {
    Json entry = Json::object();
    entry.set("value", Json(static_cast<double>(g.value())));
    entry.set("high_water", Json(static_cast<double>(g.high_water())));
    gauges.set(name, std::move(entry));
  }
  root.set("gauges", std::move(gauges));

  Json histograms = Json::object();
  for (const auto& [name, h] : histograms_) {
    Json entry = Json::object();
    entry.set("count", Json(h.count()));
    entry.set("min", Json(h.empty() ? 0 : h.min()));
    entry.set("max", Json(h.max()));
    entry.set("sum", Json(h.sum()));
    entry.set("mean", Json(h.mean()));
    entry.set("p50", Json(h.p50()));
    entry.set("p95", Json(h.p95()));
    entry.set("p99", Json(h.p99()));
    entry.set("sub_bits", Json(static_cast<std::uint64_t>(h.sub_bits())));
    Json buckets = Json::array();
    for (const Histogram::Bucket& b : h.buckets()) {
      Json pair = Json::array();
      pair.push_back(Json(b.upper));
      pair.push_back(Json(b.count));
      buckets.push_back(std::move(pair));
    }
    entry.set("buckets", std::move(buckets));
    histograms.set(name, std::move(entry));
  }
  root.set("histograms", std::move(histograms));
  return root;
}

}  // namespace pmtree::engine
