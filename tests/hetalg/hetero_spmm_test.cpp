#include "hetalg/hetero_spmm.hpp"

#include <gtest/gtest.h>

#include <utility>

#include "sparse/generators.hpp"
#include "sparse/spgemm.hpp"

namespace nbwp::hetalg {
namespace {

using sparse::CsrMatrix;

const hetsim::Platform& plat() { return hetsim::Platform::reference(); }

CsrMatrix test_matrix(uint64_t seed = 1) {
  Rng rng(seed);
  return sparse::banded_fem(800, 14, 24, 3, rng);
}

class HeteroSpmmThresholdTest : public ::testing::TestWithParam<double> {};

TEST_P(HeteroSpmmThresholdTest, RunMatchesAnalyticTime) {
  const HeteroSpmm problem(test_matrix(), plat());
  const double r = GetParam();
  EXPECT_EQ(problem.run(r).total_ns(), problem.time_ns(r));
}

TEST_P(HeteroSpmmThresholdTest, SplitHoldsRequestedWorkShare) {
  const HeteroSpmm problem(test_matrix(), plat());
  const double r = GetParam();
  const SpmmKwayStructure s = problem.structure_at(r);
  const double total = static_cast<double>(problem.total_work());
  const double share =
      100.0 * static_cast<double>(s.work[0].multiplies) / total;
  // The split row quantizes the share; one row's work bounds the error.
  EXPECT_NEAR(share, r, 2.0);
}

INSTANTIATE_TEST_SUITE_P(Shares, HeteroSpmmThresholdTest,
                         ::testing::Values(0.0, 10.0, 33.0, 50.0, 90.0,
                                           100.0));

TEST(HeteroSpmm, ProductIsCorrect) {
  const CsrMatrix a = test_matrix();
  const CsrMatrix expected = sparse::spgemm(a, a);
  const HeteroSpmm problem(a, plat());
  const auto report = problem.run(35.0);
  EXPECT_EQ(report.counter("c_nnz"), static_cast<double>(expected.nnz()));
}

TEST(HeteroSpmm, OneMatrixFormHoldsAOnce) {
  const CsrMatrix a = test_matrix();
  const HeteroSpmm problem(a, plat());
  EXPECT_EQ(&problem.b(), &problem.a());
  EXPECT_EQ(problem.a(), a);
  // Copies and moves keep B a view of their own A.
  const HeteroSpmm copy = problem;
  EXPECT_EQ(&copy.b(), &copy.a());
  HeteroSpmm source = problem;
  const HeteroSpmm moved = std::move(source);
  EXPECT_EQ(&moved.b(), &moved.a());
  CsrMatrix c;
  moved.run(35.0, &c);
  EXPECT_EQ(c, sparse::spgemm(a, a));
  // The two-matrix form keeps its own B.
  const HeteroSpmm two(a, a, plat());
  EXPECT_NE(&two.b(), &two.a());
  EXPECT_EQ(two.time_ns(35.0), problem.time_ns(35.0));
}

TEST(HeteroSpmm, TotalWorkMatchesCounters) {
  const CsrMatrix a = test_matrix();
  sparse::SpgemmCounters counters;
  sparse::spgemm(a, a, &counters);
  const HeteroSpmm problem(a, plat());
  EXPECT_EQ(problem.total_work(), counters.multiplies);
}

TEST(HeteroSpmm, RectangularOperandsSupported) {
  Rng rng(2);
  const CsrMatrix a = sparse::random_uniform(60, 90, 500, rng);
  const CsrMatrix b = sparse::random_uniform(90, 40, 400, rng);
  const HeteroSpmm problem(a, b, plat());
  const auto report = problem.run(50.0);
  EXPECT_EQ(report.counter("c_nnz"),
            static_cast<double>(sparse::spgemm(a, b).nnz()));
}

TEST(HeteroSpmm, IncompatibleShapesThrow) {
  const CsrMatrix a(3, 4), b(5, 3);
  EXPECT_THROW(HeteroSpmm(a, b, plat()), Error);
}

TEST(HeteroSpmm, SplitRowMonotoneInShare) {
  const HeteroSpmm problem(test_matrix(), plat());
  sparse::Index prev = 0;
  for (double r = 0; r <= 100; r += 5) {
    const sparse::Index split = problem.split_row(r);
    EXPECT_GE(split, prev);
    prev = split;
  }
  EXPECT_EQ(problem.split_row(0), 0u);
  EXPECT_EQ(problem.split_row(100), test_matrix().rows());
}

TEST(HeteroSpmm, DeviceTimesAllPositive) {
  const HeteroSpmm problem(test_matrix(), plat());
  const auto [cpu_ns, gpu_ns] = problem.device_times_all();
  EXPECT_GT(cpu_ns, 0.0);
  EXPECT_GT(gpu_ns, 0.0);
  EXPECT_GT(cpu_ns, gpu_ns);  // GPU is the faster device on bulk SpGEMM
}

TEST(HeteroSpmm, SamplePreservesShapeFraction) {
  const HeteroSpmm problem(test_matrix(), plat());
  Rng rng(3);
  const HeteroSpmm sample = problem.make_sample(0.25, rng);
  EXPECT_EQ(sample.a().rows(), problem.sample_rows(0.25));
  EXPECT_NEAR(static_cast<double>(sample.a().rows()),
              0.25 * problem.a().rows(), 2.0);
  // Work scales roughly cubically with the linear fraction.
  EXPECT_LT(sample.total_work(), problem.total_work() / 16);
}

TEST(HeteroSpmm, PredeterminedSampleDeterministic) {
  const HeteroSpmm problem(test_matrix(), plat());
  const HeteroSpmm s1 = problem.make_sample_predetermined(0.25, 0.0);
  const HeteroSpmm s2 = problem.make_sample_predetermined(0.25, 0.0);
  EXPECT_EQ(s1.total_work(), s2.total_work());
}

TEST(HeteroSpmm, BalanceInteriorMinimum) {
  const HeteroSpmm problem(test_matrix(), plat());
  double best_r = 0, best = problem.balance_ns(0);
  for (double r = 1; r <= 100; ++r) {
    if (problem.balance_ns(r) < best) {
      best = problem.balance_ns(r);
      best_r = r;
    }
  }
  EXPECT_GT(best_r, 5.0);
  EXPECT_LT(best_r, 95.0);
}

TEST(HeteroSpmm, InvalidShareThrows) {
  const HeteroSpmm problem(test_matrix(), plat());
  EXPECT_THROW(problem.time_ns(-0.5), Error);
  EXPECT_THROW(problem.run(100.5), Error);
  EXPECT_THROW(problem.make_sample_predetermined(0.0, 0.5), Error);
}

}  // namespace
}  // namespace nbwp::hetalg
