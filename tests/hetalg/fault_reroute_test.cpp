// Retry-then-reroute: under injected GPU faults every case study must
// complete without throwing and produce output bitwise-identical to the
// healthy run — only the virtual-time accounting and the reroute counters
// may differ.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/partition_descriptor.hpp"
#include "graph/generators.hpp"
#include "hetalg/hetero_cc.hpp"
#include "hetalg/hetero_spmm.hpp"
#include "hetalg/hetero_spmm_hh.hpp"
#include "obs/metrics.hpp"
#include "sparse/generators.hpp"
#include "sparse/spgemm.hpp"

namespace nbwp::hetalg {
namespace {

hetsim::Platform faulty(const std::string& plan) {
  hetsim::Platform p = hetsim::Platform::reference();
  p.set_fault_plan(hetsim::FaultPlan::parse(plan));
  return p;
}

graph::CsrGraph test_graph() {
  Rng rng(1);
  return graph::banded_mesh(3000, 10, 32, rng);
}

sparse::CsrMatrix test_matrix() {
  Rng rng(2);
  return sparse::random_uniform(800, 800, 6400, rng);
}

sparse::CsrMatrix scale_free_matrix() {
  Rng rng(3);
  return sparse::scale_free(800, 8, 2.2, rng);
}

// Hard faults at several injection points: the first GPU kernel, the
// second one, and a virtual-clock point mid-run (the latter two only for
// executors with more than one GPU kernel — SpMM gates a single kernel).
const char* const kTwoKernelPlans[] = {"gpu-hard@0", "gpu-hard@1",
                                       "gpu-hard-after=0.001"};
const char* const kOneKernelPlans[] = {"gpu-hard@0"};

TEST(FaultReroute, CcLabelsIdenticalUnderHardFaults) {
  const graph::CsrGraph g = test_graph();
  std::vector<graph::Vertex> healthy;
  HeteroCc(g, hetsim::Platform::reference()).run(25.0, &healthy);
  ASSERT_EQ(healthy.size(), g.num_vertices());

  for (const char* plan : kTwoKernelPlans) {
    const hetsim::Platform platform = faulty(plan);
    const HeteroCc problem(g, platform);
    std::vector<graph::Vertex> labels;
    hetsim::RunReport report;
    ASSERT_NO_THROW(report = problem.run(25.0, &labels)) << plan;
    EXPECT_EQ(labels, healthy) << plan;
    EXPECT_GE(report.counter("gpu_rerouted"), 1.0) << plan;
  }
}

TEST(FaultReroute, SpmmProductIdenticalUnderHardFaults) {
  const sparse::CsrMatrix a = test_matrix();
  sparse::CsrMatrix healthy;
  HeteroSpmm(a, hetsim::Platform::reference()).run(30.0, &healthy);

  for (const char* plan : kOneKernelPlans) {
    const hetsim::Platform platform = faulty(plan);
    const HeteroSpmm problem(a, platform);
    sparse::CsrMatrix c;
    hetsim::RunReport report;
    ASSERT_NO_THROW(report = problem.run(30.0, &c)) << plan;
    EXPECT_TRUE(c == healthy) << plan;
    EXPECT_GE(report.counter("gpu_rerouted"), 1.0) << plan;
  }
}

TEST(FaultReroute, HhProductIdenticalUnderHardFaults) {
  const sparse::CsrMatrix a = scale_free_matrix();
  const HeteroSpmmHh reference(a, hetsim::Platform::reference());
  const double t = reference.threshold_for_work_share(0.5);
  sparse::CsrMatrix healthy;
  reference.run(t, &healthy);

  for (const char* plan : kTwoKernelPlans) {
    const hetsim::Platform platform = faulty(plan);
    const HeteroSpmmHh problem(a, platform);
    sparse::CsrMatrix c;
    hetsim::RunReport report;
    ASSERT_NO_THROW(report = problem.run(t, &c)) << plan;
    EXPECT_TRUE(c == healthy) << plan;
    EXPECT_GE(report.counter("gpu_rerouted"), 1.0) << plan;
  }
}

TEST(FaultReroute, TransientFaultRecoversWithoutReroute) {
  const graph::CsrGraph g = test_graph();
  std::vector<graph::Vertex> healthy;
  HeteroCc(g, hetsim::Platform::reference()).run(25.0, &healthy);

  const hetsim::Platform platform = faulty("gpu-transient@0");
  const HeteroCc problem(g, platform);
  std::vector<graph::Vertex> labels;
  const hetsim::RunReport report = problem.run(25.0, &labels);
  EXPECT_EQ(labels, healthy);
  EXPECT_EQ(report.counter("gpu_rerouted"), 0.0);  // retry succeeded
}

TEST(FaultReroute, RetryBacksOffThenSucceedsAndCountsIt) {
  obs::Registry::global().clear();
  obs::set_metrics_enabled(true);
  const graph::CsrGraph g = test_graph();
  std::vector<graph::Vertex> healthy;
  HeteroCc(g, hetsim::Platform::reference()).run(25.0, &healthy);

  const hetsim::Platform platform = faulty("gpu-transient@0,retries=2");
  std::vector<graph::Vertex> labels;
  const hetsim::RunReport report =
      HeteroCc(g, platform).run(25.0, &labels);
  obs::set_metrics_enabled(false);

  EXPECT_EQ(labels, healthy);
  EXPECT_EQ(report.counter("gpu_rerouted"), 0.0);  // retry recovered it
  const auto snapshot = obs::Registry::global().snapshot();
  EXPECT_GE(snapshot.counters.at("robustness.retry"), 1.0);
  EXPECT_GE(snapshot.counters.at("robustness.retry.success"), 1.0);
  EXPECT_GT(snapshot.counters.at("robustness.retry.backoff_ns"), 0.0);
  // The backoff accrued on the injector's host-side clock, not the GPU
  // busy clock.
  ASSERT_NE(platform.faults(), nullptr);
  EXPECT_GT(platform.faults()->backoff_ms(), 0.0);
  obs::Registry::global().clear();
}

TEST(FaultReroute, DeadDeviceShortCircuitsRetriesAndReroutes) {
  obs::Registry::global().clear();
  obs::set_metrics_enabled(true);
  const graph::CsrGraph g = test_graph();
  const hetsim::Platform platform = faulty("gpu-hard@0,retries=3");
  const hetsim::RunReport report = HeteroCc(g, platform).run(25.0);
  obs::set_metrics_enabled(false);

  // A hard fault kills the device; waiting out three backoffs on a dead
  // device would only burn the deadline, so no retry is attempted.
  EXPECT_GE(report.counter("gpu_rerouted"), 1.0);
  const auto snapshot = obs::Registry::global().snapshot();
  EXPECT_EQ(snapshot.counters.count("robustness.retry"), 0u);
  ASSERT_NE(platform.faults(), nullptr);
  EXPECT_DOUBLE_EQ(platform.faults()->backoff_ms(), 0.0);
  obs::Registry::global().clear();
}

TEST(FaultReroute, ReroutedRunChargesCpuTime) {
  // A rerouted GPU piece must cost more virtual time than the healthy run
  // (the CPU absorbs the GPU share, non-overlapped).
  const graph::CsrGraph g = test_graph();
  const double healthy_ns =
      HeteroCc(g, hetsim::Platform::reference()).run(25.0).total_ns();
  const hetsim::Platform platform = faulty("gpu-hard@0");
  const double faulted_ns = HeteroCc(g, platform).run(25.0).total_ns();
  EXPECT_GT(faulted_ns, healthy_ns);
}

TEST(FaultReroute, HealthyPlatformReportsNoReroutes) {
  const graph::CsrGraph g = test_graph();
  const auto report = HeteroCc(g, hetsim::Platform::reference()).run(25.0);
  EXPECT_EQ(report.counter("gpu_rerouted"), 0.0);
}

double counter_or_zero(const obs::MetricsSnapshot& s, const std::string& n) {
  const auto it = s.counters.find(n);
  return it == s.counters.end() ? 0.0 : it->second;
}

/// Reference CPU + GPU plus two scaled-down K40c accelerators.
hetsim::Platform four_device_platform(const std::string& plan) {
  hetsim::Platform platform = hetsim::Platform::reference();
  for (int i = 0; i < 2; ++i) {
    const double scale = std::pow(0.5, i + 1);
    hetsim::GpuSpec gpu = hetsim::kTeslaK40c;
    gpu.sm_count *= scale;
    gpu.cores *= scale;
    gpu.bw_stream_bps *= scale;
    gpu.bw_random_bps *= scale;
    gpu.full_occupancy_items *= scale;
    platform.add_accel(gpu, hetsim::kPcie3x16);
  }
  platform.set_fault_plan(hetsim::FaultPlan::parse(plan));
  return platform;
}

// The fault gates of a K-way run fire on the calling thread in device
// order, so a seeded plan makes the same decisions however the numeric
// pass is scheduled: d1 fails transiently and recovers on its retry; the
// retry puts virtual time on the GPU clock, so d2 trips the hard fault and
// d3 finds the device dead.  Counters, virtual time and C are pinned.
TEST(FaultReroute, KwaySeededFaultsMatchExpectedDecisions) {
  const sparse::CsrMatrix a = test_matrix();
  const core::PartitionDescriptor d{{0.25, 0.25, 0.25, 0.25}};
  sparse::CsrMatrix healthy;
  HeteroSpmm(a, four_device_platform("none")).run_kway(d, &healthy);
  ASSERT_TRUE(healthy == sparse::spgemm(a, a));

  obs::Registry::global().clear();
  obs::set_metrics_enabled(true);
  const hetsim::Platform platform =
      four_device_platform("gpu-transient@0,gpu-hard-after=0");
  const HeteroSpmm problem(a, platform);
  sparse::CsrMatrix c;
  const hetsim::RunReport report = problem.run_kway(d, &c);
  obs::set_metrics_enabled(false);
  const auto snapshot = obs::Registry::global().snapshot();

  EXPECT_TRUE(c == healthy);
  EXPECT_EQ(report.counter("gpu_rerouted"), 2.0);
  EXPECT_EQ(counter_or_zero(snapshot, "robustness.retry"), 1.0);
  EXPECT_EQ(counter_or_zero(snapshot, "robustness.retry.success"), 1.0);
  EXPECT_EQ(counter_or_zero(snapshot, "robustness.reroute"), 2.0);
  EXPECT_EQ(counter_or_zero(snapshot, "robustness.reroute.spmm.kway.d1"),
            0.0);
  EXPECT_EQ(counter_or_zero(snapshot, "robustness.reroute.spmm.kway.d2"),
            1.0);
  EXPECT_EQ(counter_or_zero(snapshot, "robustness.reroute.spmm.kway.d3"),
            1.0);
  ASSERT_NE(platform.faults(), nullptr);
  EXPECT_EQ(platform.faults()->gpu_invocations(), 4u);

  // d0 overlaps the surviving d1; d2 and d3 re-run at CPU cost afterwards.
  const SpmmKwayStructure s = problem.kway_structure(d);
  const SpmmKwayTimes t = spmm_kway_times(platform, s);
  const double expected =
      t.phase1_ns + std::max(t.device_ns[0], t.device_ns[1]) +
      (spgemm_cpu_work_ns(platform, s.work[2]) +
       spgemm_cpu_work_ns(platform, s.work[3])) +
      t.stitch_ns;
  EXPECT_EQ(report.total_ns(), expected);
  obs::Registry::global().clear();
}

TEST(FaultReroute, ScalarRunWithDeadGpuMatchesExpectedDecisions) {
  const sparse::CsrMatrix a = test_matrix();
  const double r = 30.0;
  sparse::CsrMatrix healthy;
  HeteroSpmm(a, hetsim::Platform::reference()).run(r, &healthy);

  obs::Registry::global().clear();
  obs::set_metrics_enabled(true);
  const hetsim::Platform platform = faulty("gpu-hard@0");
  const HeteroSpmm problem(a, platform);
  sparse::CsrMatrix c;
  const hetsim::RunReport report = problem.run(r, &c);
  obs::set_metrics_enabled(false);
  const auto snapshot = obs::Registry::global().snapshot();

  EXPECT_TRUE(c == healthy);
  EXPECT_EQ(report.counter("gpu_rerouted"), 1.0);
  EXPECT_EQ(counter_or_zero(snapshot, "robustness.retry"), 0.0);
  EXPECT_EQ(counter_or_zero(snapshot, "robustness.reroute"), 1.0);
  EXPECT_EQ(counter_or_zero(snapshot, "robustness.reroute.spmm.kway.d1"),
            1.0);

  const SpmmKwayStructure s = problem.structure_at(r);
  const SpmmKwayTimes t = spmm_kway_times(platform, s);
  const double expected = t.phase1_ns + t.device_ns[0] +
                          spgemm_cpu_work_ns(platform, s.work[1]) +
                          t.stitch_ns;
  EXPECT_EQ(report.total_ns(), expected);
  obs::Registry::global().clear();
}

}  // namespace
}  // namespace nbwp::hetalg
