// SloMonitor: spec grammar, unit conversion, windowed evaluation against
// the registry, burn rates, and the JSON report the CI smoke job parses.
#include "obs/slo.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace nbwp {
namespace {

struct SloFixture : ::testing::Test {
  void SetUp() override {
    obs::Registry::global().clear();
    obs::set_metrics_enabled(true);
  }
  void TearDown() override {
    obs::set_metrics_enabled(false);
    obs::Registry::global().clear();
  }
};

TEST_F(SloFixture, ParsesLatencyObjectiveWithUnitConversion) {
  const auto monitor = obs::SloMonitor::parse("serve.request_ms p99 < 5ms");
  ASSERT_EQ(monitor.size(), 1u);
  const auto& o = monitor.objectives()[0];
  EXPECT_EQ(o.kind, obs::SloObjective::Kind::kLatency);
  EXPECT_EQ(o.metric, "serve.request_ms");
  EXPECT_EQ(o.stat, "p99");
  EXPECT_DOUBLE_EQ(o.bound, 5.0);  // ms bound on a _ms metric

  // Cross-unit: 5 ms expressed against a microsecond metric.
  const auto us = obs::SloMonitor::parse("serve.request_us p95 < 5ms");
  EXPECT_DOUBLE_EQ(us.objectives()[0].bound, 5000.0);
  // Bare numbers compare raw, no suffix needed on the metric.
  const auto raw = obs::SloMonitor::parse("queue.depth max < 32");
  EXPECT_DOUBLE_EQ(raw.objectives()[0].bound, 32.0);
}

TEST_F(SloFixture, ParsesErrorRateAndCompactForms) {
  const auto monitor = obs::SloMonitor::parse(
      "serve.requests{class=\"degraded\"} / serve.requests rate < 0.01;"
      "serve.request_ms p50<2ms");
  ASSERT_EQ(monitor.size(), 2u);
  EXPECT_EQ(monitor.objectives()[0].kind,
            obs::SloObjective::Kind::kErrorRate);
  EXPECT_EQ(monitor.objectives()[0].metric,
            "serve.requests{class=\"degraded\"}");
  EXPECT_EQ(monitor.objectives()[0].total, "serve.requests");
  EXPECT_DOUBLE_EQ(monitor.objectives()[0].bound, 0.01);
  EXPECT_EQ(monitor.objectives()[1].stat, "p50");  // no-space operator
}

TEST_F(SloFixture, RejectsBadGrammar) {
  EXPECT_THROW(obs::SloMonitor::parse(""), Error);
  EXPECT_THROW(obs::SloMonitor::parse("latency please"), Error);
  EXPECT_THROW(obs::SloMonitor::parse("serve.request_ms p42 < 5ms"), Error);
  EXPECT_THROW(obs::SloMonitor::parse("serve.request_ms p99 < 5parsecs"),
               Error);
  // A unit bound needs a unit-suffixed metric to convert into.
  EXPECT_THROW(obs::SloMonitor::parse("queue.depth p99 < 5ms"), Error);
  // Error-rate bounds are ratios; a unit makes no sense.
  EXPECT_THROW(obs::SloMonitor::parse("bad / total rate < 5ms"), Error);
}

TEST_F(SloFixture, EvaluatesLatencyAgainstRegistry) {
  for (int i = 0; i < 1000; ++i)
    obs::observe("serve.request_ms", i < 990 ? 1.0 : 100.0);
  const auto monitor = obs::SloMonitor::parse(
      "serve.request_ms p50 < 10ms; serve.request_ms max < 10ms");
  const auto report = monitor.evaluate(obs::Registry::global());
  ASSERT_EQ(report.results.size(), 2u);
  EXPECT_TRUE(report.results[0].ok);   // p50 ~ 1 ms
  EXPECT_FALSE(report.results[1].ok);  // max = 100 ms
  EXPECT_FALSE(report.ok());
  EXPECT_LT(report.results[0].burn_rate, 1.0);
  EXPECT_GT(report.results[1].burn_rate, 1.0);
  EXPECT_DOUBLE_EQ(report.max_burn_rate(), report.results[1].burn_rate);
}

TEST_F(SloFixture, EvaluatesErrorRate) {
  obs::count("serve.requests", {{"class", "degraded"}}, 2.0);
  obs::count("serve.requests", 100.0);
  const auto monitor = obs::SloMonitor::parse(
      "serve.requests{class=\"degraded\"} / serve.requests rate < 0.05");
  const auto report = monitor.evaluate(obs::Registry::global());
  ASSERT_EQ(report.results.size(), 1u);
  EXPECT_TRUE(report.results[0].ok);
  EXPECT_DOUBLE_EQ(report.results[0].observed, 0.02);
  EXPECT_DOUBLE_EQ(report.results[0].burn_rate, 0.4);
}

TEST_F(SloFixture, MissingMetricsFailClosed) {
  const auto monitor = obs::SloMonitor::parse(
      "no.such_ms p99 < 1ms; bad / also.missing rate < 0.5");
  const auto report = monitor.evaluate(obs::Registry::global());
  for (const auto& r : report.results) {
    EXPECT_TRUE(r.missing);
    EXPECT_FALSE(r.ok);
  }
  EXPECT_FALSE(report.ok());
}

TEST_F(SloFixture, LabeledLatencyMetricParsesAndEvaluates) {
  // The admission layer's overload SLO targets a labeled series; the
  // unit suffix must be recognized through the label block.
  obs::observe("serve.e2e_ms", {{"class", "interactive"}}, 2.0);
  const auto monitor = obs::SloMonitor::parse(
      "serve.e2e_ms{class=\"interactive\"} p99 < 250ms");
  EXPECT_DOUBLE_EQ(monitor.objectives()[0].bound, 250.0);
  const auto report = monitor.evaluate(obs::Registry::global());
  ASSERT_EQ(report.results.size(), 1u);
  EXPECT_FALSE(report.results[0].missing);
  EXPECT_TRUE(report.results[0].ok);
}

TEST_F(SloFixture, EmptyWindowFallsBackToCumulativeInsteadOfMissing) {
  auto& h = obs::Registry::global().histogram("serve.request_ms");
  ASSERT_NE(h.stream_for_test(), nullptr);
  double t = 0.0;
  h.stream_for_test()->set_clock_for_test([&t] { return t; });
  h.record(5.0);
  t = 1e6;  // far past the sliding window: every slice is stale
  const auto monitor =
      obs::SloMonitor::parse("serve.request_ms max < 10ms");
  const auto report = monitor.evaluate(obs::Registry::global());
  ASSERT_EQ(report.results.size(), 1u);
  // An idle-but-lived series still evaluates against its lifetime
  // summary rather than failing closed as missing.
  EXPECT_FALSE(report.results[0].missing);
  EXPECT_DOUBLE_EQ(report.results[0].observed, 5.0);
  EXPECT_TRUE(report.results[0].ok);
}

TEST_F(SloFixture, ZeroTotalErrorRateFailsClosed) {
  // The denominator exists but has never counted: the rate is undefined,
  // and an undefined SLO must read as violated, not as a free pass.
  obs::count("serve.requests", 0.0);
  obs::count("serve.requests", {{"class", "degraded"}}, 3.0);
  const auto monitor = obs::SloMonitor::parse(
      "serve.requests{class=\"degraded\"} / serve.requests rate < 0.5");
  const auto report = monitor.evaluate(obs::Registry::global());
  ASSERT_EQ(report.results.size(), 1u);
  EXPECT_TRUE(report.results[0].missing);
  EXPECT_FALSE(report.results[0].ok);
  EXPECT_FALSE(report.ok());
}

TEST_F(SloFixture, BurnExactlyAtThresholdStillMeetsTheObjective) {
  // `max` is tracked exactly (no bucketing error), so the boundary is
  // testable: observed == bound -> ok, burn rate exactly 1.
  obs::observe("serve.request_ms", 5.0);
  const auto monitor = obs::SloMonitor::parse("serve.request_ms max < 5ms");
  const auto report = monitor.evaluate(obs::Registry::global());
  ASSERT_EQ(report.results.size(), 1u);
  EXPECT_TRUE(report.results[0].ok);
  EXPECT_DOUBLE_EQ(report.results[0].burn_rate, 1.0);
  EXPECT_TRUE(report.ok());
}

TEST_F(SloFixture, WindowRolloverExpelsOldSamplesFromTheVerdict) {
  auto& h = obs::Registry::global().histogram("serve.request_ms");
  ASSERT_NE(h.stream_for_test(), nullptr);
  const auto opts = h.stream_for_test()->options();
  const double window = opts.slice_seconds * opts.slices;
  double t = 0.0;
  h.stream_for_test()->set_clock_for_test([&t] { return t; });

  h.record(100.0);  // a spike at t=0
  t = 0.75 * window;
  h.record(1.0);
  const auto monitor =
      obs::SloMonitor::parse("serve.request_ms max < 10ms");
  // The spike is still inside the window: the objective is violated.
  EXPECT_FALSE(monitor.evaluate(obs::Registry::global()).ok());

  t = 1.2 * window;  // the spike's slice has aged out; t=0.75w has not
  h.record(1.0);
  const auto report = monitor.evaluate(obs::Registry::global());
  ASSERT_EQ(report.results.size(), 1u);
  EXPECT_FALSE(report.results[0].missing);
  EXPECT_DOUBLE_EQ(report.results[0].observed, 1.0);
  EXPECT_TRUE(report.results[0].ok);  // recovered: the window moved on
}

TEST_F(SloFixture, ReportJsonCarriesVerdictAndBurnRate) {
  obs::observe("serve.request_ms", 1.0);
  const auto monitor =
      obs::SloMonitor::parse("serve.request_ms p99 < 10ms");
  const auto report = monitor.evaluate(obs::Registry::global());
  std::ostringstream os;
  obs::write_slo_report_json(os, report);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"ok\":true"), std::string::npos) << out;
  EXPECT_NE(out.find("\"max_burn_rate\":"), std::string::npos);
  EXPECT_NE(out.find("\"spec\":\"serve.request_ms p99 < 10ms\""),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("\"kind\":\"latency\""), std::string::npos);
  EXPECT_NE(out.find("\"stat\":\"p99\""), std::string::npos);
  EXPECT_NE(out.find("\"burn_rate\":"), std::string::npos);
}

}  // namespace
}  // namespace nbwp
