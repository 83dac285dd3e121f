// The K = 2 equivalence guarantee of docs/PARTITIONING.md: descriptor
// estimation at two devices reproduces the scalar pipeline bit for bit —
// same thresholds, same evaluation counts, same fallback stages — across
// the three case-study workloads, and executing the two-way descriptor
// yields the identical product.
#include "core/kway.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "hetalg/hetero_cc.hpp"
#include "hetalg/hetero_spmm.hpp"
#include "hetalg/hetero_spmv.hpp"
#include "sparse/generators.hpp"
#include "sparse/spgemm.hpp"

namespace nbwp::core {
namespace {

const hetsim::Platform& plat() { return hetsim::Platform::reference(); }

hetalg::HeteroSpmm spmm_problem(const hetsim::Platform& platform,
                                uint64_t seed = 1) {
  Rng rng(seed);
  return hetalg::HeteroSpmm(sparse::random_uniform(1500, 1500, 12000, rng),
                            platform);
}

hetalg::HeteroCc cc_problem(uint64_t seed = 1) {
  Rng rng(seed);
  return hetalg::HeteroCc(graph::banded_mesh(3000, 10, 32, rng), plat());
}

hetalg::HeteroSpmv spmv_problem(uint64_t seed = 1) {
  Rng rng(seed);
  return hetalg::HeteroSpmv(sparse::banded_fem(20000, 12, 64, 3, rng),
                            plat());
}

RobustConfig sampled_config() {
  RobustConfig cfg;
  cfg.sampling.sample_factor = 0.25;
  return cfg;
}

KwayConfig two_way_config(CostObjective objective = CostObjective::kBalanced) {
  KwayConfig cfg;
  cfg.devices = 2;
  cfg.objective = objective;
  cfg.robust = sampled_config();
  return cfg;
}

// At K = 2 the descriptor pipeline delegates to the scalar one, so the
// agreement is exact — EXPECT_DOUBLE_EQ, not EXPECT_NEAR.
template <typename P>
void expect_scalar_equivalence(const P& problem, Objective scalar_objective,
                               CostObjective kway_objective) {
  RobustConfig scfg = sampled_config();
  scfg.sampling.objective = scalar_objective;
  const RobustEstimate scalar = robust_estimate_partition(problem, scfg);
  const KwayEstimate kway =
      robust_estimate_partition_kway(problem, two_way_config(kway_objective));
  EXPECT_DOUBLE_EQ(kway.threshold, scalar.threshold);
  EXPECT_EQ(kway.stage, scalar.stage);
  EXPECT_EQ(kway.evaluations, scalar.evaluations);
  ASSERT_EQ(kway.descriptor.devices(), 2);
  EXPECT_EQ(kway.descriptor,
            PartitionDescriptor::two_way(
                detail::cpu_share_of_threshold(problem, scalar.threshold)));
}

TEST(KwayEquivalence, SpmmTwoWayMatchesScalarPipeline) {
  const auto problem = spmm_problem(plat());
  expect_scalar_equivalence(problem, Objective::kBalance,
                            CostObjective::kBalanced);
  expect_scalar_equivalence(problem, Objective::kBalance,
                            CostObjective::kGreedy);
  expect_scalar_equivalence(problem, Objective::kMakespan,
                            CostObjective::kCriticalPath);
  expect_scalar_equivalence(problem, Objective::kMakespan,
                            CostObjective::kMinMaxWorkloads);
}

TEST(KwayEquivalence, CcTwoWayMatchesScalarPipeline) {
  expect_scalar_equivalence(cc_problem(), Objective::kBalance,
                            CostObjective::kBalanced);
}

TEST(KwayEquivalence, SpmvTwoWayMatchesScalarPipeline) {
  expect_scalar_equivalence(spmv_problem(), Objective::kBalance,
                            CostObjective::kBalanced);
}

TEST(KwayEquivalence, UnguardedTwoWayMatchesEstimatePartition) {
  const auto problem = spmm_problem(plat());
  SamplingConfig scfg = sampled_config().sampling;
  const PartitionEstimate scalar = estimate_partition(problem, scfg);
  const KwayEstimate kway =
      estimate_partition_kway(problem, two_way_config());
  EXPECT_DOUBLE_EQ(kway.threshold, scalar.threshold);
  EXPECT_EQ(kway.evaluations, scalar.evaluations);
  EXPECT_DOUBLE_EQ(kway.estimation_cost_ns, scalar.estimation_cost_ns);
}

TEST(KwayEquivalence, ExecutingTheTwoWayDescriptorReproducesTheProduct) {
  const auto problem = spmm_problem(plat());
  const KwayEstimate est =
      robust_estimate_partition_kway(problem, two_way_config());
  // Bitwise-identical C and identical virtual makespan: the descriptor
  // path prices and executes the same split.
  sparse::CsrMatrix c_scalar, c_kway;
  const auto scalar_report = problem.run(est.threshold, &c_scalar);
  const auto kway_report = problem.run_kway(est.descriptor, &c_kway);
  EXPECT_EQ(c_kway, c_scalar);
  EXPECT_DOUBLE_EQ(kway_report.total_ns(), scalar_report.total_ns());
}

TEST(KwayEquivalence, TwoWayFallbackChainMirrorsScalarUnderFaults) {
  hetsim::Platform platform = hetsim::Platform::reference();
  platform.set_fault_plan(hetsim::FaultPlan::parse("gpu-hard@0"));
  const auto problem = spmm_problem(platform);
  const KwayEstimate est =
      robust_estimate_partition_kway(problem, two_way_config());
  EXPECT_EQ(est.stage, FallbackStage::kNaiveStatic);
  EXPECT_NE(est.reason.find("device_fault"), std::string::npos);
  // The dead GPU collapses naive static to an all-CPU split.
  EXPECT_DOUBLE_EQ(est.threshold, 100.0);
  EXPECT_DOUBLE_EQ(est.descriptor.cpu_share(), 1.0);
}

// Beyond two devices a problem must price descriptors; a scalar-only one
// is a programming error the robust chain must not turn into a fallback.
TEST(KwayPreconditions, ScalarOnlyProblemRejectsMoreThanTwoDevices) {
  KwayConfig cfg = two_way_config();
  cfg.devices = 3;
  EXPECT_THROW(estimate_partition_kway(cc_problem(), cfg), Error);
  EXPECT_THROW(robust_estimate_partition_kway(cc_problem(), cfg), Error);
}

}  // namespace
}  // namespace nbwp::core
