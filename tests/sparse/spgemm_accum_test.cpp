// Accumulator-mode coverage for the adaptive SpGEMM kernel: every
// accumulator (ForceSpa / ForceHash / Auto) x schedule must reproduce the
// serial kernel bit-for-bit across the output-density spectrum, and the
// workspace pool must shrink on demand.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "obs/metrics.hpp"
#include "sparse/generators.hpp"
#include "sparse/spgemm.hpp"
#include "sparse/spgemm_plan.hpp"
#include "util/rng.hpp"

namespace nbwp::sparse {
namespace {

using ModeSchedule = std::tuple<SpgemmAccumulator, SpgemmSchedule>;

class SpgemmAccumTest : public ::testing::TestWithParam<ModeSchedule> {
 protected:
  SpgemmParallelOptions options() const {
    SpgemmParallelOptions o;
    o.accumulator = std::get<0>(GetParam());
    o.schedule = std::get<1>(GetParam());
    return o;
  }
};

TEST_P(SpgemmAccumTest, BitIdenticalOnBandedDenseRows) {
  Rng rng(31);
  const CsrMatrix a = banded_fem(600, 24, 48, 4, rng);
  ThreadPool pool(4);
  SpgemmCounters seq_counters, par_counters;
  const CsrMatrix seq = spgemm(a, a, &seq_counters);
  const CsrMatrix par = spgemm_parallel(a, a, pool, &par_counters, options());
  EXPECT_TRUE(seq == par);
  EXPECT_EQ(seq_counters.multiplies, par_counters.multiplies);
  EXPECT_EQ(seq_counters.c_nnz, par_counters.c_nnz);
  EXPECT_EQ(par_counters.rows_spa + par_counters.rows_hash,
            par_counters.rows);
}

TEST_P(SpgemmAccumTest, BitIdenticalOnSkewedScaleFree) {
  Rng rng(32);
  const CsrMatrix a = scale_free(800, 8, 2.0, rng);
  ThreadPool pool(4);
  const CsrMatrix seq = spgemm(a, a);
  EXPECT_TRUE(seq == spgemm_parallel(a, a, pool, nullptr, options()));
}

TEST_P(SpgemmAccumTest, BitIdenticalWithEmptyRowsAndColumns) {
  std::vector<Triplet> trips;
  Rng rng(33);
  for (Index r = 0; r < 120; ++r) {
    if (r % 7 == 3 || r >= 100) continue;  // empty rows and an empty tail
    for (int j = 0; j < 3; ++j)
      trips.push_back({r, static_cast<Index>(rng.uniform(120)),
                       rng.uniform_real(-1, 1)});
  }
  const CsrMatrix a = CsrMatrix::from_triplets(120, 120, trips);
  ThreadPool pool(4);
  const CsrMatrix seq = spgemm(a, a);
  EXPECT_TRUE(seq == spgemm_parallel(a, a, pool, nullptr, options()));
}

TEST_P(SpgemmAccumTest, BitIdenticalMasked) {
  Rng rng(34);
  const CsrMatrix a = scale_free(400, 6, 2.2, rng);
  std::vector<uint8_t> mask(a.rows());
  for (Index r = 0; r < a.rows(); ++r) mask[r] = a.row_nnz(r) > 6;
  ThreadPool pool(4);
  for (uint8_t keep : {uint8_t{0}, uint8_t{1}}) {
    const CsrMatrix serial =
        spgemm_row_range_masked(a, a, 0, a.rows(), mask, keep);
    const CsrMatrix par =
        spgemm_parallel_masked(a, a, pool, mask, keep, nullptr, options());
    EXPECT_TRUE(serial == par) << "keep=" << int(keep);
  }
}

TEST_P(SpgemmAccumTest, BitIdenticalOnWideSparseRows) {
  // Wide matrix, a handful of nnz per row: the regime where kAuto routes
  // everything to the hash accumulator.
  Rng rng(35);
  const CsrMatrix a = random_uniform(500, 5000, 2500, rng, -1, 1);
  const CsrMatrix b = random_uniform(5000, 5000, 25000, rng, -1, 1);
  ThreadPool pool(4);
  const CsrMatrix seq = spgemm(a, b);
  EXPECT_TRUE(seq == spgemm_parallel(a, b, pool, nullptr, options()));
}

TEST_P(SpgemmAccumTest, SingleWorkerPoolStillHonorsMode) {
  Rng rng(36);
  const CsrMatrix a = scale_free(300, 8, 2.0, rng);
  ThreadPool pool(1);
  const CsrMatrix seq = spgemm(a, a);
  EXPECT_TRUE(seq == spgemm_parallel(a, a, pool, nullptr, options()));
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndSchedules, SpgemmAccumTest,
    ::testing::Combine(
        ::testing::Values(SpgemmAccumulator::kAuto,
                          SpgemmAccumulator::kForceSpa,
                          SpgemmAccumulator::kForceHash),
        ::testing::Values(SpgemmSchedule::kWorkBalanced,
                          SpgemmSchedule::kDynamic)),
    [](const auto& param_info) {
      const char* mode = "";
      switch (std::get<0>(param_info.param)) {
        case SpgemmAccumulator::kAuto: mode = "Auto"; break;
        case SpgemmAccumulator::kForceSpa: mode = "ForceSpa"; break;
        case SpgemmAccumulator::kForceHash: mode = "ForceHash"; break;
      }
      return std::string(mode) +
             (std::get<1>(param_info.param) == SpgemmSchedule::kDynamic
                  ? "Dynamic"
                  : "WorkBalanced");
    });

TEST(SpgemmAccumRouting, ForcedModesRouteEveryRow) {
  Rng rng(40);
  const CsrMatrix a = scale_free(300, 8, 2.0, rng);
  ThreadPool pool(2);
  SpgemmParallelOptions o;

  o.accumulator = SpgemmAccumulator::kForceHash;
  SpgemmCounters hash_counters;
  spgemm_parallel(a, a, pool, &hash_counters, o);
  EXPECT_EQ(hash_counters.rows_hash, hash_counters.rows);
  EXPECT_EQ(hash_counters.rows_spa, 0u);

  o.accumulator = SpgemmAccumulator::kForceSpa;
  SpgemmCounters spa_counters;
  spgemm_parallel(a, a, pool, &spa_counters, o);
  EXPECT_EQ(spa_counters.rows_spa, spa_counters.rows);
  EXPECT_EQ(spa_counters.rows_hash, 0u);
}

TEST(SpgemmAccumRouting, AutoSplitsSkewedWideMatrixAcrossAccumulators) {
  // Scale-free square: a few hub rows produce dense output, the long tail
  // stays sparse.  With the default threshold both routes must fire.
  Rng rng(41);
  const CsrMatrix a = scale_free(4096, 12, 2.0, rng);
  ThreadPool pool(4);
  SpgemmParallelOptions o;
  o.schedule = SpgemmSchedule::kWorkBalanced;  // defeat the serial shortcut
  SpgemmCounters counters;
  spgemm_parallel(a, a, pool, &counters, o);
  EXPECT_EQ(counters.rows_spa + counters.rows_hash, counters.rows);
  EXPECT_GT(counters.rows_hash, 0u) << "tail rows should hash";
  EXPECT_GT(counters.rows_spa, 0u) << "hub rows should use the SPA";
}

TEST(SpgemmAccumRouting, AutoNeverHashesNarrowMatrices) {
  Rng rng(42);
  const CsrMatrix a = random_uniform(200, 200, 2000, rng);  // cols < 512
  ThreadPool pool(2);
  SpgemmParallelOptions o;
  o.schedule = SpgemmSchedule::kWorkBalanced;
  SpgemmCounters counters;
  spgemm_parallel(a, a, pool, &counters, o);
  EXPECT_EQ(counters.rows_hash, 0u);
  EXPECT_EQ(counters.rows_spa, counters.rows);
}

TEST(SpgemmWorkspace, TrimReleasesIdleArenasAndKernelRecovers) {
  Rng rng(43);
  const CsrMatrix a = random_uniform(300, 2000, 6000, rng, -1, 1);
  const CsrMatrix b = random_uniform(2000, 2000, 20000, rng, -1, 1);
  ThreadPool pool(4);
  const CsrMatrix before = spgemm_parallel(a, b, pool);

  auto stats = spgemm_workspace_stats();
  EXPECT_GT(stats.idle, 0u);
  EXPECT_GT(stats.idle_bytes, 0u);

  const size_t released = spgemm_workspace_trim();
  EXPECT_EQ(released, stats.idle_bytes);
  stats = spgemm_workspace_stats();
  EXPECT_EQ(stats.idle, 0u);
  EXPECT_EQ(stats.idle_bytes, 0u);

  // The pool repopulates transparently and the kernel still agrees with
  // itself after the trim.
  EXPECT_TRUE(before == spgemm_parallel(a, b, pool));
  EXPECT_GT(spgemm_workspace_stats().idle, 0u);
}

TEST(SpgemmWorkspace, ResetHighWaterClearsGaugeBetweenPhases) {
  Rng rng(45);
  const CsrMatrix big = random_uniform(2000, 2000, 12000, rng, -1, 1);
  const CsrMatrix small = random_uniform(40, 40, 200, rng, -1, 1);
  ThreadPool pool(2);
  // Start from an empty pool so both workers lease arenas whose
  // high-water marks come from the "big" phase, not earlier tests.
  spgemm_workspace_trim();
  obs::Registry::global().clear();
  obs::set_metrics_enabled(true);
  spgemm_parallel(big, big, pool);
  const auto gauge = [] {
    return obs::Registry::global().snapshot().gauges.at(
        "kernel.spgemm.arena.high_water_bytes");
  };
  const double big_peak = gauge();
  EXPECT_GT(big_peak, 0.0);

  // Without the phase-boundary reset a small product still reports the
  // big phase's footprint (the arenas remember it); with it, the gauge
  // reflects only the small product.
  spgemm_parallel(small, small, pool);
  EXPECT_GE(gauge(), big_peak);
  spgemm_workspace_reset_high_water();
  EXPECT_DOUBLE_EQ(gauge(), 0.0);
  spgemm_parallel(small, small, pool);
  const double small_peak = gauge();
  EXPECT_GT(small_peak, 0.0);
  EXPECT_LT(small_peak, big_peak);
  obs::set_metrics_enabled(false);
  obs::Registry::global().clear();
}

TEST(SpgemmWorkspace, RepeatedProductsKeepIdleBytesFlat) {
  // Every row of B holds the same 16 columns, so every row of C reaches
  // its 16 distinct columns — exactly the 1/2 load factor of its hash
  // table — on the first B row it reads and then only hits them.  Such
  // hits used to grow the table and strand the old arrays in the pooled
  // arena on every pass.  After the first pass has sized the workspace,
  // re-multiplying the same matrices must not add a byte.
  Rng rng(47);
  std::vector<Triplet> ta, tb;
  for (Index i = 0; i < 400; ++i)
    for (int j = 0; j < 3; ++j)
      ta.push_back({i, static_cast<Index>(rng.uniform(64)),
                    rng.uniform_real(-1, 1)});
  for (Index k = 0; k < 64; ++k)
    for (Index c = 0; c < 16; ++c)
      tb.push_back({k, 64 * c, rng.uniform_real(-1, 1)});
  const CsrMatrix a = CsrMatrix::from_triplets(400, 64, ta);
  const CsrMatrix b = CsrMatrix::from_triplets(64, 1024, tb);
  ThreadPool pool(1);  // one lease at a time: the pool's size is exact
  SpgemmParallelOptions o;
  o.accumulator = SpgemmAccumulator::kForceHash;
  spgemm_workspace_trim();
  const SpgemmPlan plan = spgemm_plan(a, b, pool, o);
  const CsrMatrix first = spgemm_numeric(a, b, plan, pool);
  spgemm_parallel(a, b, pool, nullptr, o);
  const auto after_first = spgemm_workspace_stats();
  for (int pass = 0; pass < 5; ++pass) {
    EXPECT_TRUE(spgemm_numeric(a, b, plan, pool) == first);
    spgemm_parallel(a, b, pool, nullptr, o);
  }
  const auto after_all = spgemm_workspace_stats();
  EXPECT_EQ(after_all.created, after_first.created);
  EXPECT_EQ(after_all.idle_bytes, after_first.idle_bytes);
}

TEST(SpgemmWorkspace, RepeatedPlanBuildsKeepIdleBytesFlat) {
  // A plan build writes C's pattern to scratch that it unmaps before
  // returning, so the pooled workspaces never hold it: rebuilding the
  // same plan creates and grows nothing, and trim hands back every byte.
  Rng rng(48);
  const CsrMatrix a = scale_free(1200, 9, 2.1, rng);
  ThreadPool pool(1);  // one lease at a time: the pool's size is exact
  spgemm_workspace_trim();
  const SpgemmPlan first = spgemm_plan(a, a, pool);
  const auto after_first = spgemm_workspace_stats();
  EXPECT_EQ(after_first.idle, 1u);
  EXPECT_LT(after_first.idle_bytes, first.nnz() * sizeof(Index));
  for (int pass = 0; pass < 5; ++pass) {
    const SpgemmPlan again = spgemm_plan(a, a, pool);
    EXPECT_EQ(again.col_idx, first.col_idx);
  }
  const auto after_all = spgemm_workspace_stats();
  EXPECT_EQ(after_all.created, after_first.created);
  EXPECT_EQ(after_all.idle_bytes, after_first.idle_bytes);
  EXPECT_EQ(spgemm_workspace_trim(), after_all.idle_bytes);
  EXPECT_EQ(spgemm_workspace_stats().idle_bytes, 0u);
}

TEST(SpgemmWorkspace, TrimKeepsRequestedNumberIdle) {
  Rng rng(44);
  const CsrMatrix a = random_uniform(600, 600, 3000, rng);
  ThreadPool pool(4);
  spgemm_parallel(a, a, pool);  // populate several workspaces
  spgemm_workspace_trim(1);
  EXPECT_LE(spgemm_workspace_stats().idle, 1u);
  // And the survivor is still usable.
  const CsrMatrix c1 = spgemm_parallel(a, a, pool);
  EXPECT_TRUE(c1 == spgemm(a, a));
}

}  // namespace
}  // namespace nbwp::sparse
