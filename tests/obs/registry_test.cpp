#include "obs/registry.h"

#include <gtest/gtest.h>

#include <sstream>
#include <thread>
#include <vector>

#include "obs/export.h"
#include "obs/snapshot.h"

namespace shuffledef::obs {
namespace {

TEST(Registry, NullHandlesAreInertAndCheap) {
  const Counter counter;
  const Gauge gauge;
  const Histogram histogram;
  counter.inc();
  counter.inc(100);
  gauge.set(5);
  gauge.add(-3);
  gauge.max_with(99);
  histogram.observe(1.0);
  EXPECT_FALSE(static_cast<bool>(counter));
  EXPECT_FALSE(static_cast<bool>(gauge));
  EXPECT_FALSE(static_cast<bool>(histogram));
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_EQ(gauge.value(), 0);
}

TEST(Registry, CounterGetOrCreateSharesOneCell) {
  Registry registry;
  const Counter a = registry.counter("x");
  const Counter b = registry.counter("x");
  a.inc();
  b.inc(2);
  EXPECT_EQ(a.value(), 3u);
  EXPECT_EQ(b.value(), 3u);
  EXPECT_EQ(registry.snapshot().counter("x"), 3u);
}

TEST(Registry, GaugeSetAddMax) {
  Registry registry;
  const Gauge gauge = registry.gauge("g");
  gauge.set(10);
  gauge.add(-4);
  EXPECT_EQ(gauge.value(), 6);
  gauge.max_with(3);  // no-op: smaller
  EXPECT_EQ(gauge.value(), 6);
  gauge.max_with(8);
  EXPECT_EQ(gauge.value(), 8);
}

TEST(Registry, HistogramBucketsObservationsByUpperBound) {
  Registry registry;
  const Histogram histogram = registry.histogram("h", {1.0, 10.0, 100.0});
  histogram.observe(0.5);    // <= 1
  histogram.observe(1.0);    // <= 1 (bounds are inclusive upper limits)
  histogram.observe(5.0);    // <= 10
  histogram.observe(1000.0); // overflow
  const auto snapshot = registry.snapshot();
  const auto* h = snapshot.histogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->counts, (std::vector<std::uint64_t>{2, 1, 0, 1}));
  EXPECT_EQ(h->count, 4u);
  EXPECT_DOUBLE_EQ(h->sum, 1006.5);
}

TEST(Registry, HistogramBoundsValidated) {
  Registry registry;
  EXPECT_THROW((void)registry.histogram("bad", {}), std::invalid_argument);
  EXPECT_THROW((void)registry.histogram("bad", {2.0, 1.0}),
               std::invalid_argument);
  EXPECT_THROW((void)registry.histogram("bad", {1.0, 1.0}),
               std::invalid_argument);
  (void)registry.histogram("h", {1.0, 2.0});
  // Re-requesting with different bounds is a schema conflict.
  EXPECT_THROW((void)registry.histogram("h", {1.0, 3.0}),
               std::invalid_argument);
  // Same bounds: same cell.
  EXPECT_TRUE(static_cast<bool>(registry.histogram("h", {1.0, 2.0})));
}

TEST(Registry, SnapshotOrderingIsDeterministic) {
  // Creation order must not leak into the snapshot: sections sort by name.
  Registry a;
  (void)a.counter("zeta");
  (void)a.counter("alpha");
  (void)a.gauge("mid");
  Registry b;
  (void)b.gauge("mid");
  (void)b.counter("alpha");
  (void)b.counter("zeta");
  EXPECT_EQ(a.snapshot(), b.snapshot());
  const auto snapshot = a.snapshot();
  ASSERT_EQ(snapshot.counters.size(), 2u);
  EXPECT_EQ(snapshot.counters[0].name, "alpha");
  EXPECT_EQ(snapshot.counters[1].name, "zeta");
}

TEST(Registry, SnapshotLookupsHandleMissingNames) {
  Registry registry;
  (void)registry.counter("present");
  const auto snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.counter("absent"), 0u);
  EXPECT_EQ(snapshot.counter("absent", 42), 42u);
  EXPECT_EQ(snapshot.gauge("absent", -1), -1);
  EXPECT_EQ(snapshot.histogram("absent"), nullptr);
  EXPECT_EQ(snapshot.span("absent"), nullptr);
}

TEST(Registry, ConcurrentIncrementsAreExact) {
  Registry registry;
  const Counter counter = registry.counter("c");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([counter] {
      for (int i = 0; i < kPerThread; ++i) counter.inc();
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(counter.value(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Export, CsvAndJsonCoverEverySection) {
  Registry registry;
  registry.counter("c").inc(7);
  registry.gauge("g").set(-2);
  registry.histogram("h", {1.0}).observe(0.5);
  const auto snapshot = registry.snapshot();

  std::ostringstream csv;
  write_csv(snapshot, csv);
  const std::string csv_text = csv.str();
  EXPECT_NE(csv_text.find("kind,name,field,value"), std::string::npos);
  EXPECT_NE(csv_text.find("counter,c,value,7"), std::string::npos);
  EXPECT_NE(csv_text.find("gauge,g,value,-2"), std::string::npos);
  EXPECT_NE(csv_text.find("histogram,h,le_1,1"), std::string::npos);

  std::ostringstream json;
  write_json(snapshot, json);
  const std::string json_text = json.str();
  EXPECT_NE(json_text.find("\"counters\""), std::string::npos);
  EXPECT_NE(json_text.find("\"c\": 7"), std::string::npos);
  EXPECT_NE(json_text.find("\"g\": -2"), std::string::npos);
  EXPECT_NE(json_text.find("\"histograms\""), std::string::npos);
}

}  // namespace
}  // namespace shuffledef::obs
