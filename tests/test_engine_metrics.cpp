// Property tests for the observability layer: histogram quantiles must
// bracket the true sample quantiles of known distributions within the
// documented (1 + 2^-sub_bits) relative error, and JSON snapshots of a
// MetricsRegistry must round-trip losslessly.
#include "pmtree/engine/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "pmtree/engine/histogram.hpp"
#include "pmtree/util/json.hpp"
#include "pmtree/util/rng.hpp"

namespace pmtree {
namespace {

using engine::Histogram;
using engine::MetricsRegistry;
using pmtree::Json;

/// Exact sample quantile: the ceil(q*n)-th smallest value.
std::uint64_t true_quantile(std::vector<std::uint64_t> values, double q) {
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::max<std::size_t>(rank, 1) - 1];
}

void check_brackets(const Histogram& h, const std::vector<std::uint64_t>& values) {
  const double rel = 1.0 + 1.0 / static_cast<double>(1u << h.sub_bits());
  for (const double q : {0.01, 0.25, 0.50, 0.90, 0.95, 0.99, 1.0}) {
    const std::uint64_t truth = true_quantile(values, q);
    const std::uint64_t reported = h.value_at_quantile(q);
    EXPECT_GE(reported, truth) << "q=" << q;
    EXPECT_LE(static_cast<double>(reported),
              static_cast<double>(truth) * rel + 1.0)
        << "q=" << q;
  }
}

TEST(Histogram, QuantilesBracketUniformDistribution) {
  Rng rng(404);
  std::vector<std::uint64_t> values;
  Histogram h;
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t v = rng.below(100000);
    values.push_back(v);
    h.record(v);
  }
  ASSERT_EQ(h.count(), values.size());
  check_brackets(h, values);
}

TEST(Histogram, QuantilesBracketHeavyTailedDistribution) {
  // Latency-shaped data: mostly small with a power-law tail.
  Rng rng(808);
  std::vector<std::uint64_t> values;
  Histogram h;
  for (int i = 0; i < 20000; ++i) {
    const std::uint32_t shift = static_cast<std::uint32_t>(rng.below(20));
    const std::uint64_t v = rng.below((std::uint64_t{1} << shift) + 1);
    values.push_back(v);
    h.record(v);
  }
  check_brackets(h, values);
}

TEST(Histogram, SmallValuesAreExact) {
  // Values below 2^(sub_bits+1) get unit buckets: quantiles are exact.
  Histogram h;  // sub_bits = 5 -> exact below 64
  std::vector<std::uint64_t> values;
  Rng rng(11);
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t v = rng.below(64);
    values.push_back(v);
    h.record(v);
  }
  for (const double q : {0.1, 0.5, 0.9, 0.99}) {
    EXPECT_EQ(h.value_at_quantile(q), true_quantile(values, q)) << "q=" << q;
  }
  EXPECT_EQ(h.min(), *std::min_element(values.begin(), values.end()));
  EXPECT_EQ(h.max(), *std::max_element(values.begin(), values.end()));
}

TEST(Histogram, EmptyAndSingleValue) {
  Histogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.value_at_quantile(0.5), 0u);
  h.record(777);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.max(), 777u);
  // One sample: every quantile reports (a bucket edge clamped to) it.
  EXPECT_EQ(h.value_at_quantile(0.0), 777u);
  EXPECT_EQ(h.value_at_quantile(1.0), 777u);
}

TEST(Histogram, QuantileEndpointsPinToExactMinAndMax) {
  // Interior quantiles report bucket upper edges (bounded relative
  // error); the endpoints are exact: q=0 is the recorded minimum and q=1
  // the recorded maximum, not their buckets' edges.
  Histogram h;
  for (const std::uint64_t v : {1000003u, 1500000u, 1999999u}) h.record(v);
  EXPECT_EQ(h.value_at_quantile(0.0), 1000003u);
  EXPECT_EQ(h.value_at_quantile(1.0), 1999999u);
  EXPECT_EQ(h.value_at_quantile(-0.5), 1000003u);  // clamped below
  EXPECT_EQ(h.value_at_quantile(1.5), 1999999u);   // clamped above
  // Interior quantiles still bracket from above.
  EXPECT_GE(h.value_at_quantile(0.5), 1500000u);
}

TEST(Histogram, SumSaturatesInsteadOfWrapping) {
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  // Two near-max samples: a wrapping sum would land near zero and poison
  // every derived mean; the histogram saturates at uint64 max instead.
  Histogram h;
  h.record(kMax - 1);
  h.record(kMax - 1);
  EXPECT_EQ(h.sum(), kMax);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.max(), kMax - 1);

  // record(value, count) saturates in the multiply as well.
  Histogram weighted;
  weighted.record(kMax / 2, 5);
  EXPECT_EQ(weighted.sum(), kMax);

  // Merging saturated histograms stays saturated.
  h.merge(weighted);
  EXPECT_EQ(h.sum(), kMax);
  EXPECT_EQ(h.count(), 7u);
}

TEST(Histogram, EmptyHistogramSurvivesRegistryJsonRoundTrip) {
  // Regression: an empty histogram's min() is the UINT64_MAX sentinel. A
  // naive restore would take the snapshot's "min": 0 literally, turning
  // the restored histogram's min() into 0 — distinguishable from a real
  // recording. The restore path must keep count==0 histograms pristine.
  MetricsRegistry registry;
  registry.histogram("empty.latency");
  registry.counter("runs").add(1);

  const auto text = registry.to_json().dump();
  const auto parsed = Json::parse(text);
  ASSERT_TRUE(parsed.has_value());
  const auto back = MetricsRegistry::from_json(*parsed);
  ASSERT_TRUE(back.has_value());

  const Histogram* h = back->find_histogram("empty.latency");
  ASSERT_NE(h, nullptr);
  EXPECT_TRUE(h->empty());
  EXPECT_EQ(h->count(), 0u);
  EXPECT_EQ(h->min(), ~std::uint64_t{0});  // sentinel preserved
  EXPECT_EQ(h->max(), 0u);
  EXPECT_EQ(h->sum(), 0u);
  // A value recorded after the round-trip sets min exactly as on a fresh
  // histogram — the sentinel wasn't clobbered to 0.
  Histogram fresh = *h;
  fresh.record(41);
  EXPECT_EQ(fresh.min(), 41u);
}

TEST(Histogram, MergeMatchesCombinedRecording) {
  Rng rng(5);
  Histogram a, b, combined;
  for (int i = 0; i < 3000; ++i) {
    const std::uint64_t v = rng.below(10000);
    (i % 2 == 0 ? a : b).record(v);
    combined.record(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_EQ(a.sum(), combined.sum());
  EXPECT_EQ(a.min(), combined.min());
  EXPECT_EQ(a.max(), combined.max());
  for (const double q : {0.5, 0.95, 0.99}) {
    EXPECT_EQ(a.value_at_quantile(q), combined.value_at_quantile(q));
  }
}

TEST(Histogram, RestoreFromBucketsPreservesQuantiles) {
  Rng rng(99);
  Histogram h;
  for (int i = 0; i < 10000; ++i) h.record(rng.below(1u << 20));
  const Histogram back =
      Histogram::restore(h.sub_bits(), h.buckets(), h.min(), h.max(), h.sum());
  EXPECT_EQ(back.count(), h.count());
  EXPECT_EQ(back.min(), h.min());
  EXPECT_EQ(back.max(), h.max());
  EXPECT_EQ(back.sum(), h.sum());
  for (const double q : {0.01, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(back.value_at_quantile(q), h.value_at_quantile(q)) << "q=" << q;
  }
}

TEST(Json, ValueRoundTrips) {
  Json obj = Json::object();
  obj.set("name", Json("engine \"demo\"\nline2"));
  obj.set("count", Json(std::uint64_t{12345678901}));
  obj.set("ratio", Json(0.375));
  obj.set("ok", Json(true));
  obj.set("missing", Json());
  Json arr = Json::array();
  for (int i = 0; i < 5; ++i) arr.push_back(Json(i * 7));
  obj.set("values", std::move(arr));

  for (const int indent : {0, 2}) {
    const auto parsed = Json::parse(obj.dump(indent));
    ASSERT_TRUE(parsed.has_value()) << "indent=" << indent;
    EXPECT_EQ(*parsed, obj);
  }
}

TEST(Json, RejectsMalformedDocuments) {
  for (const char* bad :
       {"", "{", "[1,", "{\"a\":}", "tru", "1 2", "{\"a\" 1}", "\"unterminated",
        "[1] trailing"}) {
    EXPECT_FALSE(Json::parse(bad).has_value()) << bad;
  }
}

TEST(MetricsRegistry, SnapshotRoundTripsThroughJsonText) {
  MetricsRegistry reg;
  reg.counter("engine.requests").add(4096);
  reg.counter("engine.cycles").add(123);
  reg.gauge("engine.queue_high_water").set(17);
  reg.gauge("engine.queue_high_water").set(9);  // high water stays 17
  Rng rng(21);
  Histogram& lat = reg.histogram("engine.latency");
  for (int i = 0; i < 5000; ++i) lat.record(rng.below(4096));

  const std::string text = reg.to_json().dump(2);
  const auto parsed = Json::parse(text);
  ASSERT_TRUE(parsed.has_value());
  const auto back = MetricsRegistry::from_json(*parsed);
  ASSERT_TRUE(back.has_value());

  EXPECT_EQ(back->find_counter("engine.requests")->value(), 4096u);
  EXPECT_EQ(back->find_counter("engine.cycles")->value(), 123u);
  EXPECT_EQ(back->find_gauge("engine.queue_high_water")->value(), 9);
  EXPECT_EQ(back->find_gauge("engine.queue_high_water")->high_water(), 17);
  const Histogram* h = back->find_histogram("engine.latency");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), lat.count());
  EXPECT_EQ(h->min(), lat.min());
  EXPECT_EQ(h->max(), lat.max());
  for (const double q : {0.5, 0.95, 0.99}) {
    EXPECT_EQ(h->value_at_quantile(q), lat.value_at_quantile(q));
  }
  // And the re-serialized snapshot is byte-identical: export order is
  // name-sorted, so the trip is a fixed point.
  EXPECT_EQ(back->to_json().dump(2), text);
}

TEST(MetricsRegistry, FromJsonRejectsWrongShape) {
  EXPECT_FALSE(MetricsRegistry::from_json(Json(1.0)).has_value());
  EXPECT_FALSE(MetricsRegistry::from_json(Json::object()).has_value());
  const auto parsed = Json::parse(
      R"({"counters":{},"gauges":{},"histograms":{"h":{"sub_bits":5}}})");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(MetricsRegistry::from_json(*parsed).has_value());
}

TEST(MetricsRegistry, InstrumentsAreStableAndIdempotent) {
  MetricsRegistry reg;
  engine::Counter& c1 = reg.counter("x");
  c1.add(3);
  EXPECT_EQ(&reg.counter("x"), &c1);
  EXPECT_EQ(reg.counter("x").value(), 3u);
  EXPECT_EQ(reg.find_counter("nope"), nullptr);
  EXPECT_EQ(reg.size(), 1u);
}

}  // namespace
}  // namespace pmtree
