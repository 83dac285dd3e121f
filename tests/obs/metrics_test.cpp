// Metrics registry: enable gating, concurrent updates from ThreadPool
// workers, labeled series, and bounded-memory histograms.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"

namespace nbwp {
namespace {

// Each test runs against the global registry; isolate by clearing and
// restoring the disabled default.
struct MetricsFixture : ::testing::Test {
  void SetUp() override {
    obs::Registry::global().clear();
    obs::set_metrics_enabled(true);
  }
  void TearDown() override {
    obs::set_metrics_enabled(false);
    obs::Registry::global().clear();
  }
};

TEST_F(MetricsFixture, CounterGaugeRoundTrip) {
  obs::count("events");
  obs::count("events", 2.5);
  obs::set_gauge("level", 7.0);
  const auto snap = obs::Registry::global().snapshot();
  EXPECT_DOUBLE_EQ(snap.counters.at("events"), 3.5);
  EXPECT_DOUBLE_EQ(snap.gauges.at("level"), 7.0);
}

TEST_F(MetricsFixture, DisabledHelpersRecordNothing) {
  obs::set_metrics_enabled(false);
  obs::count("ghost");
  obs::set_gauge("ghost", 1.0);
  obs::observe("ghost", 1.0);
  EXPECT_TRUE(obs::Registry::global().snapshot().empty());
}

TEST_F(MetricsFixture, CounterHammeredFromThreadPool) {
  ThreadPool pool(4);
  obs::Counter& c = obs::Registry::global().counter("hammer");
  constexpr int kPerWorker = 20000;
  pool.run_team([&](unsigned) {
    for (int i = 0; i < kPerWorker; ++i) c.add(1.0);
  });
  EXPECT_DOUBLE_EQ(c.value(), 4.0 * kPerWorker);
}

TEST_F(MetricsFixture, RegistryLookupRacesAreSafe) {
  // Workers create/look up the same names while another name is being
  // snapshotted; handles must stay valid and no update may be lost.
  ThreadPool pool(4);
  parallel_for(pool, 0, 4000, [&](int64_t i) {
    obs::count("lookup." + std::to_string(i % 8));
    obs::observe("samples", static_cast<double>(i));
  });
  const auto snap = obs::Registry::global().snapshot();
  // The instrumented pool adds its own pool.* counters; sum only ours.
  double total = 0;
  size_t lookup_names = 0;
  for (const auto& [name, v] : snap.counters) {
    if (name.rfind("lookup.", 0) != 0) continue;
    ++lookup_names;
    total += v;
  }
  EXPECT_EQ(lookup_names, 8u);
  EXPECT_DOUBLE_EQ(total, 4000.0);
  EXPECT_EQ(snap.histograms.at("samples").count, 4000u);
}

TEST_F(MetricsFixture, DefaultHistogramIsStreamingWithBoundedSamples) {
  obs::Histogram& h = obs::Registry::global().histogram("stream_lat");
  const size_t bytes_before = h.memory_bytes();
  for (int i = 0; i < 50000; ++i) h.record(1.0 + (i % 100));
  EXPECT_EQ(h.count(), 50000u);
  EXPECT_EQ(h.memory_bytes(), bytes_before);  // no per-sample storage
}

TEST_F(MetricsFixture, LabeledCountersAreDistinctSeries) {
  obs::count("serve.requests", {{"class", "exact"}});
  obs::count("serve.requests", {{"class", "exact"}});
  obs::count("serve.requests", {{"class", "miss"}});
  obs::count("serve.requests");
  const auto snap = obs::Registry::global().snapshot();
  EXPECT_DOUBLE_EQ(snap.counters.at("serve.requests{class=\"exact\"}"), 2.0);
  EXPECT_DOUBLE_EQ(snap.counters.at("serve.requests{class=\"miss\"}"), 1.0);
  EXPECT_DOUBLE_EQ(snap.counters.at("serve.requests"), 1.0);
}

TEST_F(MetricsFixture, LabeledNameSortsKeysAndEscapesValues) {
  EXPECT_EQ(obs::labeled_name("m", {{"b", "2"}, {"a", "1"}}),
            "m{a=\"1\",b=\"2\"}");
  EXPECT_EQ(obs::labeled_name("m", {{"k", "a\"b\\c"}}),
            "m{k=\"a\\\"b\\\\c\"}");
  EXPECT_EQ(obs::labeled_name("m", {{"bad key!", "v"}}),
            "m{bad_key_=\"v\"}");
  EXPECT_EQ(obs::labeled_name("m", {}), "m");
}

TEST_F(MetricsFixture, PoolRegionsReportUtilization) {
  ThreadPool pool(2);
  pool.run_team([&](unsigned) {
    volatile double sink = 0;
    for (int i = 0; i < 200000; ++i) sink = sink + 1.0;
  });
  const auto snap = obs::Registry::global().snapshot();
  EXPECT_DOUBLE_EQ(snap.counters.at("pool.regions"), 1.0);
  EXPECT_DOUBLE_EQ(snap.gauges.at("pool.workers"), 2.0);
  EXPECT_DOUBLE_EQ(snap.counters.at("pool.worker.0.tasks"), 1.0);
  EXPECT_DOUBLE_EQ(snap.counters.at("pool.worker.1.tasks"), 1.0);
  const double u = snap.gauges.at("pool.utilization");
  EXPECT_GT(u, 0.0);
  EXPECT_LE(u, 1.0);
}

TEST_F(MetricsFixture, UtilizationReflectsLastRegionNotLifetime) {
  // A lifetime average would keep the gauge dragged down by the first,
  // deliberately imbalanced region; the per-region gauge recovers when
  // the following region is balanced.
  using namespace std::chrono_literals;
  ThreadPool pool(2);
  pool.run_team([&](unsigned w) {
    if (w == 0) std::this_thread::sleep_for(60ms);
  });
  const double unbalanced =
      obs::Registry::global().snapshot().gauges.at("pool.utilization");
  pool.run_team([&](unsigned) { std::this_thread::sleep_for(60ms); });
  const double balanced =
      obs::Registry::global().snapshot().gauges.at("pool.utilization");
  EXPECT_LE(unbalanced, 0.75);  // ~0.5: one of two workers busy
  EXPECT_GE(balanced, 0.80);    // ~1.0: both busy the whole region
  EXPECT_GT(balanced, unbalanced);
}

}  // namespace
}  // namespace nbwp
