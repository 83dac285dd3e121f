// HeteroSpmm under K-way PartitionDescriptors: the K = 2 embedding must
// reproduce the scalar path bitwise (plan, cost, product), the analytic
// K-way makespan must equal the executed run, and K = 4 must plan and
// execute end to end on a platform with extra accelerators — including
// the fallback and degraded paths of the K-way robust chain.
#include "hetalg/hetero_spmm.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/kway.hpp"
#include "sparse/generators.hpp"
#include "sparse/spgemm.hpp"

namespace nbwp::hetalg {
namespace {

using core::CostObjective;
using core::PartitionDescriptor;
using sparse::CsrMatrix;

CsrMatrix test_matrix(uint64_t seed = 1) {
  Rng rng(seed);
  return sparse::banded_fem(800, 14, 24, 3, rng);
}

/// Reference CPU + GPU plus `extra` accelerators: scaled-down K40c
/// copies (half, quarter, ... throughput), mirroring the CLI's
/// --accel-spec defaults.
hetsim::Platform accel_platform(int extra) {
  hetsim::Platform platform = hetsim::Platform::reference();
  for (int i = 0; i < extra; ++i) {
    const double scale = std::pow(0.5, i + 1);
    hetsim::GpuSpec gpu = hetsim::kTeslaK40c;
    gpu.sm_count *= scale;
    gpu.cores *= scale;
    gpu.bw_stream_bps *= scale;
    gpu.bw_random_bps *= scale;
    gpu.full_occupancy_items *= scale;
    platform.add_accel(gpu, hetsim::kPcie3x16);
  }
  return platform;
}

// Dyadic shares: r/100 is exactly representable, so two_way(r / 100.0)
// carries the identical split row as the scalar call with no
// double-rounding slack in the comparison.
class KwayTwoWayBitwiseTest : public ::testing::TestWithParam<double> {};

TEST_P(KwayTwoWayBitwiseTest, RunKwayReproducesScalarRun) {
  const HeteroSpmm problem(test_matrix(), hetsim::Platform::reference());
  const double r = GetParam();
  const PartitionDescriptor d = PartitionDescriptor::two_way(r / 100.0);

  EXPECT_DOUBLE_EQ(problem.kway_time_ns(d), problem.time_ns(r));

  CsrMatrix c_scalar, c_kway;
  const hetsim::RunReport scalar = problem.run(r, &c_scalar);
  const hetsim::RunReport kway = problem.run_kway(d, &c_kway);
  EXPECT_EQ(c_kway, c_scalar);
  EXPECT_DOUBLE_EQ(kway.total_ns(), scalar.total_ns());
  EXPECT_EQ(kway.counter("c_nnz"), scalar.counter("c_nnz"));
  EXPECT_EQ(kway.counter("split_row"), scalar.counter("split_row"));
}

INSTANTIATE_TEST_SUITE_P(DyadicShares, KwayTwoWayBitwiseTest,
                         ::testing::Values(0.0, 6.25, 25.0, 50.0, 93.75,
                                           100.0));

// The pricing/execution invariant on generated inputs: for random
// descriptors at K = 2, 3, 4 and random (non-dyadic) thresholds, the
// executed virtual time equals the analytic one exactly and C is bitwise
// the serial product.
TEST(HeteroSpmmKway, RandomSplitsRunAsPricedWithTheSerialProduct) {
  const hetsim::Platform platform = accel_platform(2);
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    const auto rows = static_cast<sparse::Index>(rng.uniform_range(200, 600));
    CsrMatrix a, b;
    switch (seed % 3) {
      case 0:
        a = sparse::random_uniform(rows, rows, 8 * rows, rng);
        break;
      case 1:
        a = sparse::scale_free(rows, 8, 2.1, rng);
        break;
      default: {
        const auto inner =
            static_cast<sparse::Index>(rng.uniform_range(100, 400));
        a = sparse::random_uniform(rows, inner, 6 * rows, rng);
        b = sparse::random_uniform(inner, rows / 2, 5 * inner, rng);
      }
    }
    const HeteroSpmm problem = b.rows() > 0 ? HeteroSpmm(a, b, platform)
                                            : HeteroSpmm(a, platform);
    const CsrMatrix expected = sparse::spgemm(a, problem.b());
    for (int trial = 0; trial < 6; ++trial) {
      const int k = 2 + trial % 3;
      std::vector<double> weights(k);
      for (double& w : weights)
        w = rng.bernoulli(0.2) ? 0.0 : rng.uniform_real(0.05, 1.0);
      weights[rng.uniform(k)] += 0.1;  // never all zero
      const auto d = PartitionDescriptor::from_weights(weights);
      CsrMatrix c;
      EXPECT_EQ(problem.run_kway(d, &c).total_ns(), problem.kway_time_ns(d))
          << "seed " << seed << " descriptor " << d.to_string();
      EXPECT_TRUE(c == expected) << "seed " << seed;

      const double r = rng.uniform_real(0.0, 100.0);
      EXPECT_EQ(problem.run(r, &c).total_ns(), problem.time_ns(r))
          << "seed " << seed << " r " << r;
      EXPECT_TRUE(c == expected) << "seed " << seed << " r " << r;
    }
  }
}

TEST(HeteroSpmmKway, BoundariesPartitionTheRows) {
  const hetsim::Platform platform = accel_platform(2);
  const HeteroSpmm problem(test_matrix(), platform);
  const PartitionDescriptor d{{0.1, 0.5, 0.25, 0.15}};
  const std::vector<sparse::Index> b = problem.kway_row_boundaries(d);
  ASSERT_EQ(b.size(), 5u);
  EXPECT_EQ(b.front(), 0u);
  EXPECT_EQ(b.back(), problem.a().rows());
  for (size_t i = 0; i + 1 < b.size(); ++i) EXPECT_LE(b[i], b[i + 1]);
  // The ranges cover every multiply exactly once.
  uint64_t multiplies = 0;
  const SpmmKwayStructure s = problem.kway_structure(d);
  for (const auto& w : s.work) multiplies += w.multiplies;
  EXPECT_EQ(multiplies, problem.total_work());
}

TEST(HeteroSpmmKway, AnalyticTimeMatchesExecutedRun) {
  const hetsim::Platform platform = accel_platform(2);
  const HeteroSpmm problem(test_matrix(), platform);
  for (const PartitionDescriptor& d :
       {PartitionDescriptor::even(4), PartitionDescriptor{{0.1, 0.6, 0.2, 0.1}},
        PartitionDescriptor::all_cpu(4)}) {
    EXPECT_NEAR(problem.run_kway(d).total_ns(), problem.kway_time_ns(d),
                problem.kway_time_ns(d) * 1e-9);
  }
}

TEST(HeteroSpmmKway, KwayProductIsCorrect) {
  const hetsim::Platform platform = accel_platform(2);
  const CsrMatrix a = test_matrix();
  const CsrMatrix expected = sparse::spgemm(a, a);
  const HeteroSpmm problem(a, platform);
  CsrMatrix c;
  const auto report = problem.run_kway(PartitionDescriptor::even(4), &c);
  EXPECT_EQ(c, expected);
  EXPECT_EQ(report.counter("devices"), 4.0);
  EXPECT_EQ(report.counter("c_nnz"), static_cast<double>(expected.nnz()));
}

TEST(HeteroSpmmKway, MarginalVectorHasOneEntryPerDevice) {
  const hetsim::Platform platform = accel_platform(2);
  const HeteroSpmm problem(test_matrix(), platform);
  const std::vector<double> w =
      problem.kway_marginal_work_ns(PartitionDescriptor::even(4));
  ASSERT_EQ(w.size(), 4u);
  for (double v : w) EXPECT_GT(v, 0.0);
}

TEST(HeteroSpmmKway, DescriptorBeyondPlatformDevicesThrows) {
  const HeteroSpmm problem(test_matrix(), hetsim::Platform::reference());
  EXPECT_THROW(problem.kway_time_ns(PartitionDescriptor::even(4)), Error);
  EXPECT_THROW(problem.run_kway(PartitionDescriptor::even(1)), Error);
}

core::KwayConfig four_way_config() {
  core::KwayConfig cfg;
  cfg.devices = 4;
  cfg.objective = CostObjective::kCriticalPath;
  cfg.robust.sampling.sample_factor = 0.25;
  return cfg;
}

TEST(HeteroSpmmKway, FourWayPlansAndExecutesEndToEnd) {
  const hetsim::Platform platform = accel_platform(2);
  Rng rng(1);
  const CsrMatrix a = sparse::random_uniform(1500, 1500, 12000, rng);
  const HeteroSpmm problem(a, platform);
  const core::KwayEstimate est =
      core::robust_estimate_partition_kway(problem, four_way_config());
  EXPECT_EQ(est.stage, core::FallbackStage::kSampled);
  ASSERT_EQ(est.descriptor.devices(), 4);
  ASSERT_TRUE(est.descriptor.valid());
  EXPECT_GT(est.evaluations, 0);
  CsrMatrix c;
  const auto report = problem.run_kway(est.descriptor, &c);
  EXPECT_EQ(c, sparse::spgemm(a, a));
  EXPECT_NEAR(report.total_ns(), problem.kway_time_ns(est.descriptor),
              problem.kway_time_ns(est.descriptor) * 1e-9);
  // A sampled 4-way plan should beat parking everything on one device.
  EXPECT_LT(problem.kway_time_ns(est.descriptor),
            problem.kway_time_ns(PartitionDescriptor::all_cpu(4)));
}

TEST(HeteroSpmmKway, FourWayEstimateIsDeterministicPerSeed) {
  const hetsim::Platform platform = accel_platform(2);
  const HeteroSpmm problem(test_matrix(), platform);
  const core::KwayEstimate a =
      core::robust_estimate_partition_kway(problem, four_way_config());
  const core::KwayEstimate b =
      core::robust_estimate_partition_kway(problem, four_way_config());
  EXPECT_EQ(a.descriptor, b.descriptor);
  EXPECT_EQ(a.evaluations, b.evaluations);
}

TEST(HeteroSpmmKway, IdentifyDeadlineFallsBackToThroughputShares) {
  const hetsim::Platform platform = accel_platform(2);
  const HeteroSpmm problem(test_matrix(), platform);
  core::KwayConfig cfg = four_way_config();
  cfg.robust.sampling.identify_max_evaluations = 1;
  const core::KwayEstimate est =
      core::robust_estimate_partition_kway(problem, cfg);
  EXPECT_EQ(est.stage, core::FallbackStage::kNaiveStatic);
  EXPECT_NE(est.reason.find("identify_deadline"), std::string::npos);
  EXPECT_EQ(est.descriptor,
            PartitionDescriptor::from_weights(platform.device_ops_per_s(4)));
}

TEST(HeteroSpmmKway, DeadGpuDegradesToAllCpuDescriptor) {
  hetsim::Platform platform = accel_platform(2);
  platform.set_fault_plan(hetsim::FaultPlan::parse("gpu-hard@0"));
  ASSERT_THROW(platform.faults()->gpu_kernel("warmup", 0.0),
               hetsim::DeviceFault);
  const CsrMatrix a = test_matrix();
  const HeteroSpmm problem(a, platform);
  const core::KwayEstimate est =
      core::robust_estimate_partition_kway(problem, four_way_config());
  EXPECT_EQ(est.stage, core::FallbackStage::kDegraded);
  EXPECT_EQ(est.reason, "gpu_offline");
  EXPECT_EQ(est.descriptor, PartitionDescriptor::all_cpu(4));
  // The all-CPU descriptor still multiplies correctly (no offload ranges).
  CsrMatrix c;
  problem.run_kway(est.descriptor, &c);
  EXPECT_EQ(c, sparse::spgemm(a, a));
}

TEST(HeteroSpmmKway, OffloadRangesRerouteOnPersistentFault) {
  hetsim::Platform platform = accel_platform(2);
  platform.set_fault_plan(hetsim::FaultPlan::parse("gpu-hard@0"));
  const CsrMatrix a = test_matrix();
  const HeteroSpmm problem(a, platform);
  CsrMatrix c;
  const auto report = problem.run_kway(PartitionDescriptor::even(4), &c);
  // Every offload range hit the dead GPU and was re-executed on the CPU —
  // with an identical product.
  EXPECT_EQ(report.counter("gpu_rerouted"), 3.0);
  EXPECT_EQ(c, sparse::spgemm(a, a));
}

// ---- K > 2 plan pins -------------------------------------------------------

using core::FallbackStage;

enum PinInput { kUniform, kScaleFree, kZeroNnz };

CsrMatrix pin_matrix(PinInput input) {
  Rng rng(input == kUniform ? 1 : 2);
  switch (input) {
    case kUniform:
      return sparse::random_uniform(600, 600, 4800, rng);
    case kScaleFree:
      return sparse::scale_free(600, 8, 2.1, rng);
    case kZeroNnz:
      break;
  }
  return CsrMatrix(600, 600);
}

/// One robust K > 2 plan, pinned in every field the planner reports.
struct KwayPin {
  const char* name;
  PinInput input;
  int devices;
  CostObjective objective;
  /// Expected shares; empty means the naive-static throughput shares,
  /// from_weights(device_ops_per_s(devices)).
  std::vector<double> shares;
  int evaluations;
  double estimation_cost_ns;
  FallbackStage stage;
  const char* reason;
  const char* faults = "";
  int max_evaluations = 0;
  FallbackStage start_stage = FallbackStage::kSampled;
};

// Plans of the coordinate-descent search, pinned as hex floats: only a
// change to the search itself may move the descriptor, evaluation count
// or virtual cost, never one to the budget, noise or fallback code it
// shares with the scalar pipeline.  The last four rows pin the chain's other exits: an evaluation budget spent
// mid-search (its evaluations and cost are carried over), a GPU fault on
// the first probe (all-CPU shares once the GPU is dead), a zero-nnz A and
// a deliberate naive-static start.
class KwayPlanPinTest : public ::testing::TestWithParam<KwayPin> {};

TEST_P(KwayPlanPinTest, RobustPlanMatchesThePin) {
  const KwayPin& pin = GetParam();
  hetsim::Platform platform = accel_platform(pin.devices - 2);
  if (*pin.faults != '\0')
    platform.set_fault_plan(hetsim::FaultPlan::parse(pin.faults));
  const HeteroSpmm problem(pin_matrix(pin.input), platform);
  core::KwayConfig cfg;
  cfg.devices = pin.devices;
  cfg.objective = pin.objective;
  cfg.robust.sampling.sample_factor = 0.25;
  cfg.robust.sampling.identify_max_evaluations = pin.max_evaluations;
  cfg.robust.start_stage = pin.start_stage;
  const core::KwayEstimate est =
      core::robust_estimate_partition_kway(problem, cfg);

  PartitionDescriptor expected;
  expected.shares = pin.shares;
  if (pin.shares.empty()) {
    expected = PartitionDescriptor::from_weights(
        platform.device_ops_per_s(static_cast<size_t>(pin.devices)));
  }
  EXPECT_EQ(est.descriptor, expected);
  EXPECT_EQ(est.evaluations, pin.evaluations);
  EXPECT_EQ(est.estimation_cost_ns, pin.estimation_cost_ns);
  EXPECT_EQ(est.stage, pin.stage);
  EXPECT_EQ(est.reason, pin.reason);
}

const KwayPin kPins[] = {
    {"UniformK3Balanced", kUniform, 3, CostObjective::kBalanced,
     {0x1.1eb851eb851ecp-2, 0x1.a86241ff37bf1p-2, 0x1.38e56c1543224p-2},
     155, 0x1.2f9e17154cdf1p+22, FallbackStage::kSampled, ""},
    {"UniformK3CriticalPath", kUniform, 3, CostObjective::kCriticalPath,
     {0x1.7ae147ae147aep-1, 0x1.1eb851eb851ecp-3, 0x1.eb851eb851eb8p-4},
     131, 0x1.fc9988c3fb0a1p+21, FallbackStage::kSampled, ""},
    {"UniformK3Greedy", kUniform, 3, CostObjective::kGreedy,
     {0x1.1eb851eb851ecp-2, 0x1.a86241ff37bf1p-2, 0x1.38e56c1543224p-2},
     155, 0x1.2f9e17154cdf1p+22, FallbackStage::kSampled, ""},
    {"UniformK3MinMax", kUniform, 3, CostObjective::kMinMaxWorkloads,
     {0x0p+0, 0x1.638d49f55e6eep-1, 0x1.38e56c1543224p-2},
     173, 0x1.55a03e50746f5p+22, FallbackStage::kSampled, ""},
    {"UniformK4Balanced", kUniform, 4, CostObjective::kBalanced,
     {0x1.eb851eb851eb8p-3, 0x1.47ae147ae147bp-2,
      0x1.3ad8ae887bb5ap-2, 0x1.0f6d5b40f419fp-3},
     175, 0x1.5692f3f0fccabp+22, FallbackStage::kSampled, ""},
    {"UniformK4CriticalPath", kUniform, 4, CostObjective::kCriticalPath,
     {0x1.23d70a3d70a3dp-1, 0x1.0a3d70a3d70a4p-3,
      0x1.56f90b25724c8p-3, 0x1.0f6d5b40f419fp-3},
     211, 0x1.9a05303928b77p+22, FallbackStage::kSampled, ""},
    {"UniformK4Greedy", kUniform, 4, CostObjective::kGreedy,
     {0x1.c28f5c28f5c29p-3, 0x1.8794490a16f77p-2,
      0x1.0f6d5b40f41a5p-2, 0x1.0f6d5b40f419fp-3},
     186, 0x1.6bdd4f4eff3abp+22, FallbackStage::kSampled, ""},
    {"UniformK4MinMax", kUniform, 4, CostObjective::kMinMaxWorkloads,
     {0x0p+0, 0x1.346dfb8f48ec6p-1,
      0x1.0f6d5b40f41a5p-2, 0x1.0f6d5b40f419fp-3},
     192, 0x1.799ba96b519a6p+22, FallbackStage::kSampled, ""},
    {"ScaleFreeK3Balanced", kScaleFree, 3, CostObjective::kBalanced,
     {0x1.eb851eb851eb8p-2, 0x1.eb851eb851eb8p-3, 0x1.1eb851eb851ecp-2},
     136, 0x1.05db7c18dfa3bp+22, FallbackStage::kSampled, ""},
    {"ScaleFreeK3CriticalPath", kScaleFree, 3, CostObjective::kCriticalPath,
     {0x1.7ae147ae147aep-1, 0x1.1eb851eb851ecp-3, 0x1.eb851eb851eb8p-4},
     131, 0x1.f6ddbfd4704dcp+21, FallbackStage::kSampled, ""},
    {"ScaleFreeK3Greedy", kScaleFree, 3, CostObjective::kGreedy,
     {0x1.47ae147ae147bp-3, 0x1.11a1c4d6a61cfp-1, 0x1.38e56c1543224p-2},
     157, 0x1.3044c27580a7ap+22, FallbackStage::kSampled, ""},
    {"ScaleFreeK3MinMax", kScaleFree, 3, CostObjective::kMinMaxWorkloads,
     {0x0p+0, 0x1.638d49f55e6eep-1, 0x1.38e56c1543224p-2},
     173, 0x1.509d9bc859df2p+22, FallbackStage::kSampled, ""},
    {"ScaleFreeK4Balanced", kScaleFree, 4, CostObjective::kBalanced,
     {0x1.851eb851eb852p-2, 0x1.3333333333333p-2,
      0x1.7feecdb4ce757p-3, 0x1.0f6d5b40f419fp-3},
     230, 0x1.ba6a6ad54db1ap+22, FallbackStage::kSampled, ""},
    {"ScaleFreeK4CriticalPath", kScaleFree, 4, CostObjective::kCriticalPath,
     {0x1.23d70a3d70a3dp-1, 0x1.0a3d70a3d70a4p-3,
      0x1.56f90b25724c8p-3, 0x1.0f6d5b40f419fp-3},
     211, 0x1.9561108d09321p+22, FallbackStage::kSampled, ""},
    {"ScaleFreeK4Greedy", kScaleFree, 4, CostObjective::kGreedy,
     {0x1.47ae147ae147bp-3, 0x1.c504ece12134ep-2,
      0x1.0f6d5b40f41a5p-2, 0x1.0f6d5b40f419fp-3},
     176, 0x1.53fe589bc64adp+22, FallbackStage::kSampled, ""},
    {"ScaleFreeK4MinMax", kScaleFree, 4, CostObjective::kMinMaxWorkloads,
     {0x0p+0, 0x1.346dfb8f48ec6p-1,
      0x1.0f6d5b40f41a5p-2, 0x1.0f6d5b40f419fp-3},
     192, 0x1.742977fc2e71ap+22, FallbackStage::kSampled, ""},
    {"EvaluationBudgetK4", kUniform, 4, CostObjective::kBalanced,
     {},
     5, 0x1.37cad1db0593p+17, FallbackStage::kNaiveStatic, "identify_deadline",
     "", 5, FallbackStage::kSampled},
    {"FaultDuringProbesK3", kUniform, 3, CostObjective::kBalanced,
     {1, 0, 0},
     0, 0x0p+0, FallbackStage::kNaiveStatic, "device_fault",
     "gpu-hard@0", 0, FallbackStage::kSampled},
    {"ZeroNnzK4", kZeroNnz, 4, CostObjective::kBalanced,
     {},
     0, 0x0p+0, FallbackStage::kNaiveStatic, "degenerate_input"},
    {"NaiveStaticStartK4", kUniform, 4, CostObjective::kBalanced,
     {},
     0, 0x0p+0, FallbackStage::kNaiveStatic, "",
     "", 0, FallbackStage::kNaiveStatic},
};

INSTANTIATE_TEST_SUITE_P(Pinned, KwayPlanPinTest, ::testing::ValuesIn(kPins),
                         [](const ::testing::TestParamInfo<KwayPin>& p) {
                           return std::string(p.param.name);
                         });

}  // namespace
}  // namespace nbwp::hetalg
