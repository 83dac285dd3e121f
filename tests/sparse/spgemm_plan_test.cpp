#include "sparse/spgemm_plan.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sparse/generators.hpp"
#include "sparse/spgemm.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace nbwp::sparse {
namespace {

// The numeric-only kernel promises bitwise identity with the full
// two-phase kernel, so comparisons here are exact (EXPECT_EQ on the
// doubles), never tolerance-based.
void expect_bitwise_equal(const CsrMatrix& c, const CsrMatrix& ref) {
  ASSERT_EQ(c.rows(), ref.rows());
  ASSERT_EQ(c.cols(), ref.cols());
  ASSERT_EQ(c.nnz(), ref.nnz());
  const auto rp = c.row_ptr(), rp_ref = ref.row_ptr();
  for (size_t i = 0; i < rp.size(); ++i) EXPECT_EQ(rp[i], rp_ref[i]);
  const auto ci = c.col_idx(), ci_ref = ref.col_idx();
  const auto v = c.values(), v_ref = ref.values();
  for (size_t t = 0; t < ci.size(); ++t) {
    ASSERT_EQ(ci[t], ci_ref[t]) << "t=" << t;
    EXPECT_EQ(v[t], v_ref[t]) << "t=" << t;
  }
}

/// Same sparsity pattern, values scaled — the re-multiply scenario.
CsrMatrix scale_values(const CsrMatrix& m, double factor) {
  std::vector<uint64_t> rp(m.row_ptr().begin(), m.row_ptr().end());
  std::vector<Index> ci(m.col_idx().begin(), m.col_idx().end());
  std::vector<double> vals(m.values().begin(), m.values().end());
  for (double& v : vals) v *= factor;
  return CsrMatrix::from_parts(m.rows(), m.cols(), std::move(rp),
                               std::move(ci), std::move(vals));
}

TEST(SpgemmPlan, NumericOnlyBitwiseIdenticalToFullKernel) {
  Rng rng(21);
  const CsrMatrix a = scale_free(300, 9, 2.0, rng);
  const CsrMatrix b = scale_free(300, 7, 2.0, rng);
  for (unsigned team : {1u, 2u, 4u}) {
    ThreadPool pool(team);
    const CsrMatrix ref = spgemm_parallel(a, b, pool);
    const SpgemmPlan plan = spgemm_plan(a, b, pool);
    EXPECT_EQ(plan.nnz(), ref.nnz());
    EXPECT_EQ(plan.flops, plan.load_prefix.back());
    const CsrMatrix c = spgemm_numeric(a, b, plan, pool);
    expect_bitwise_equal(c, ref);
  }
}

TEST(SpgemmPlan, RemultiplyWithFreshValuesBitwise) {
  // Build the plan once, then re-multiply the same pattern with different
  // values — the HeteroSpmm threshold-sweep scenario.
  Rng rng(22);
  const CsrMatrix a = random_uniform(120, 150, 1400, rng, -1.0, 1.0);
  const CsrMatrix b = random_uniform(150, 100, 1200, rng, -1.0, 1.0);
  ThreadPool pool(4);
  const SpgemmPlan plan = spgemm_plan(a, b, pool);
  for (double factor : {0.5, -3.0, 7.25}) {
    const CsrMatrix a2 = scale_values(a, factor);
    const CsrMatrix b2 = scale_values(b, 1.0 / factor);
    ASSERT_TRUE(plan.matches(a2, b2));
    expect_bitwise_equal(spgemm_numeric(a2, b2, plan, pool),
                         spgemm_parallel(a2, b2, pool));
  }
}

TEST(SpgemmPlan, RangedPassBitwiseIdenticalToRowRange) {
  // The device-range entry point: C is one CSR whatever the split, and
  // each range's counters match the serial kernel over the same rows.
  Rng rng(23);
  const CsrMatrix a = banded_fem(200, 8, 16, 4, rng);
  ThreadPool pool(2);
  const SpgemmPlan plan = spgemm_plan(a, a, pool);
  const CsrMatrix ref = spgemm(a, a);
  const Index n = a.rows();
  const std::vector<std::vector<Index>> splits = {
      {0, n}, {0, 0, n}, {0, n, n}, {0, 17, 120, n}, {0, 1, n}};
  for (const auto& bounds : splits) {
    std::vector<SpgemmCounters> planned(bounds.size() - 1);
    expect_bitwise_equal(spgemm_numeric(a, a, plan, pool, bounds, planned),
                         ref);
    for (size_t r = 0; r < planned.size(); ++r) {
      // The load-vector consistency REQUIRE in HeteroSpmm::run depends on
      // the numeric-only path counting multiplies exactly like the full
      // kernel.
      SpgemmCounters full;
      spgemm_row_range(a, a, bounds[r], bounds[r + 1], &full);
      EXPECT_EQ(planned[r].multiplies, full.multiplies) << "range " << r;
      EXPECT_EQ(planned[r].c_nnz, full.c_nnz);
      EXPECT_EQ(planned[r].rows, full.rows);
    }
  }
}

TEST(SpgemmPlan, RangedPassRandomBoundariesAndTeamSizes) {
  // Teams up to 8 (beyond the core count of small machines), K = 1..6
  // ranges with random — often empty — boundaries, both schedules.
  Rng rng(27);
  const CsrMatrix a = scale_free(1200, 9, 2.1, rng);  // wide: rows hash too
  const CsrMatrix b = scale_free(1200, 7, 2.0, rng);
  const CsrMatrix ref = spgemm(a, b);
  const Index n = a.rows();
  for (unsigned team = 1; team <= 8; ++team) {
    ThreadPool pool(team);
    SpgemmParallelOptions options;
    if (team % 2 == 0) options.schedule = SpgemmSchedule::kDynamic;
    const SpgemmPlan plan = spgemm_plan(a, b, pool, options);
    for (int trial = 0; trial < 6; ++trial) {
      const size_t k = trial == 0 ? 1 : 1 + rng.uniform(6);
      std::vector<Index> bounds(k + 1, 0);
      for (size_t j = 1; j < k; ++j)
        bounds[j] = static_cast<Index>(rng.uniform(n + 1));
      bounds[k] = n;
      std::sort(bounds.begin(), bounds.end());
      if (trial == 1) bounds.insert(bounds.begin() + 1, 2, bounds[1]);
      std::vector<SpgemmCounters> per_range(bounds.size() - 1);
      expect_bitwise_equal(
          spgemm_numeric(a, b, plan, pool, bounds, per_range, options), ref);
      uint64_t hashed = 0;
      for (size_t r = 0; r < per_range.size(); ++r) {
        EXPECT_EQ(per_range[r].multiplies,
                  plan.load_prefix[bounds[r + 1]] - plan.load_prefix[bounds[r]])
            << "team " << team << " range " << r;
        EXPECT_EQ(per_range[r].rows, bounds[r + 1] - bounds[r]);
        EXPECT_EQ(per_range[r].c_nnz,
                  plan.row_ptr[bounds[r + 1]] - plan.row_ptr[bounds[r]]);
        EXPECT_EQ(per_range[r].rows_spa + per_range[r].rows_hash,
                  per_range[r].rows);
        hashed += per_range[r].rows_hash;
      }
      EXPECT_GT(hashed, 0u) << "the plan's hash routes were not replayed";
    }
  }
}

TEST(SpgemmPlan, CountersMatchFullKernel) {
  Rng rng(24);
  const CsrMatrix a = scale_free(150, 10, 2.2, rng);
  ThreadPool pool(3);
  SpgemmCounters planned, full;
  const SpgemmPlan plan = spgemm_plan(a, a, pool);
  spgemm_numeric(a, a, plan, pool, &planned);
  spgemm_parallel(a, a, pool, &full);
  EXPECT_EQ(planned.multiplies, full.multiplies);
  EXPECT_EQ(planned.c_nnz, full.c_nnz);
  EXPECT_EQ(planned.rows, full.rows);
}

TEST(SpgemmPlan, MatchesDetectsPatternChangeNotValueChange) {
  Rng rng(25);
  const CsrMatrix a = random_uniform(60, 60, 500, rng);
  ThreadPool pool(2);
  const SpgemmPlan plan = spgemm_plan(a, a, pool);
  EXPECT_TRUE(plan.matches(a, a));
  EXPECT_TRUE(plan.matches(scale_values(a, 2.0), a));
  EXPECT_EQ(csr_pattern_hash(a), csr_pattern_hash(scale_values(a, 2.0)));
  // Same shape, different column pattern.
  const CsrMatrix other = random_uniform(60, 60, 500, rng);
  EXPECT_FALSE(plan.matches(other, a));
  EXPECT_NE(csr_pattern_hash(a), csr_pattern_hash(other));
}

TEST(SpgemmPlan, StalePlanFailsLoudly) {
  ThreadPool pool(2);
  // A 1x2 times 2x2: both B variants have the same shape and nnz (so the
  // cheap per-call validation passes) but different column patterns, so
  // the per-row accumulated-nnz check must fire before memory is written.
  const std::vector<Triplet> ta = {{0, 0, 1.0}, {0, 1, 1.0}};
  const std::vector<Triplet> tb = {{0, 0, 1.0}, {1, 0, 1.0}};
  const std::vector<Triplet> tb_stale = {{0, 0, 1.0}, {1, 1, 1.0}};
  const CsrMatrix a = CsrMatrix::from_triplets(1, 2, ta);
  const CsrMatrix b = CsrMatrix::from_triplets(2, 2, tb);
  const CsrMatrix b_stale = CsrMatrix::from_triplets(2, 2, tb_stale);
  const SpgemmPlan plan = spgemm_plan(a, b, pool);
  EXPECT_EQ(plan.nnz(), 1u);
  EXPECT_FALSE(plan.matches(a, b_stale));
  EXPECT_THROW(spgemm_numeric(a, b_stale, plan, pool), Error);
  const Index split[] = {0, 0, 1};
  SpgemmCounters per_range[2];
  EXPECT_THROW(spgemm_numeric(a, b_stale, plan, pool, split, per_range),
               Error);
  // Boundaries must run monotonically from 0 to rows, one per range + 1.
  const Index unsorted[] = {0, 1, 0, 1};
  SpgemmCounters three[3];
  EXPECT_THROW(spgemm_numeric(a, b, plan, pool, unsorted, three), Error);
  const Index short_of_rows[] = {0, 0};
  EXPECT_THROW(spgemm_numeric(a, b, plan, pool, short_of_rows,
                              std::span(per_range, 1)),
               Error);
  EXPECT_THROW(spgemm_numeric(a, b, plan, pool, split, three), Error);
  // Shape or nnz drift is caught by the cheap per-call validation.
  const std::vector<Triplet> tb_extra = {
      {0, 0, 1.0}, {1, 0, 1.0}, {1, 1, 1.0}};
  const CsrMatrix b_extra = CsrMatrix::from_triplets(2, 2, tb_extra);
  EXPECT_THROW(spgemm_numeric(a, b_extra, plan, pool), Error);
}

TEST(SpgemmPlan, EmptyRowsAndEmptyProduct) {
  ThreadPool pool(2);
  Rng rng(26);
  // A with all-empty rows: the product is empty but well formed.
  const CsrMatrix a_empty = CsrMatrix::from_triplets(5, 8, std::vector<Triplet>{});
  const CsrMatrix b = random_uniform(8, 6, 30, rng);
  const SpgemmPlan plan = spgemm_plan(a_empty, b, pool);
  EXPECT_EQ(plan.nnz(), 0u);
  const CsrMatrix c = spgemm_numeric(a_empty, b, plan, pool);
  EXPECT_EQ(c.rows(), 5u);
  EXPECT_EQ(c.nnz(), 0u);
  expect_bitwise_equal(c, spgemm_parallel(a_empty, b, pool));
}

}  // namespace
}  // namespace nbwp::sparse
