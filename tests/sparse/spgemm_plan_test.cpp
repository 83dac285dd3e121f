#include "sparse/spgemm_plan.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sparse/generators.hpp"
#include "sparse/load_vector.hpp"
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

/// A copy of `m` with every `stride`-th row emptied.
CsrMatrix drop_rows(const CsrMatrix& m, Index stride) {
  std::vector<Triplet> t;
  for (Index i = 0; i < m.rows(); ++i) {
    if (i % stride == 0) continue;
    const auto cs = m.row_cols(i);
    const auto vs = m.row_vals(i);
    for (size_t j = 0; j < cs.size(); ++j) t.push_back({i, cs[j], vs[j]});
  }
  return CsrMatrix::from_triplets(m.rows(), m.cols(), t);
}

/// The numeric router's decision, recomputed from a row of C: its exact
/// nnz and its column span (last col - first col + 1, 0 when empty).
bool expected_route(const SpgemmParallelOptions& o, Index cols, uint64_t nnz,
                    uint64_t span) {
  switch (o.accumulator) {
    case SpgemmAccumulator::kForceSpa: return false;
    case SpgemmAccumulator::kForceHash: return true;
    case SpgemmAccumulator::kAuto: break;
  }
  if (cols < o.hash_min_cols) return false;
  const auto below =
      static_cast<uint64_t>(o.hash_density_threshold * static_cast<double>(cols));
  return nnz < below && static_cast<double>(span) >=
                            o.hash_min_span_ratio * static_cast<double>(nnz);
}

TEST(SpgemmPlan, PinnedToSerialProductAcrossTeamsSchedulesAndRoutes) {
  // Every plan field is pinned: the pattern to serial spgemm's C, the
  // routes to the router re-run on C's rows, the load prefix to the load
  // vector — for every team size, schedule and accumulator mode.
  Rng rng(28);
  const CsrMatrix sf_a = scale_free(1200, 9, 2.1, rng);  // wide: hashes
  const CsrMatrix sf_b = scale_free(1200, 7, 2.0, rng);
  const CsrMatrix banded = banded_fem(600, 24, 48, 4, rng);  // dense rows
  const CsrMatrix holes = drop_rows(scale_free(900, 8, 2.0, rng), 3);
  const CsrMatrix wide = random_uniform(900, 1500, 9000, rng, -1.0, 1.0);
  const CsrMatrix none_a = CsrMatrix::from_triplets(5, 8, std::vector<Triplet>{});
  const CsrMatrix none_b = random_uniform(8, 6, 30, rng);
  const CsrMatrix empty_b = CsrMatrix::from_triplets(900, 700, std::vector<Triplet>{});
  const std::vector<std::pair<const CsrMatrix*, const CsrMatrix*>> inputs = {
      {&sf_a, &sf_b}, {&banded, &banded}, {&holes, &wide},
      {&none_a, &none_b}, {&holes, &empty_b}};
  for (const auto& [a, b] : inputs) {
    const CsrMatrix ref = spgemm(*a, *b);
    const auto load_prefix = prefix_sums(load_vector(*a, row_nnz_vector(*b)));
    for (unsigned team = 1; team <= 8; ++team) {
      ThreadPool pool(team);
      for (const auto accumulator :
           {SpgemmAccumulator::kAuto, SpgemmAccumulator::kForceSpa,
            SpgemmAccumulator::kForceHash}) {
        for (const int64_t chunk : {int64_t{-1}, int64_t{0}, int64_t{5}}) {
          SpgemmParallelOptions o;
          o.accumulator = accumulator;
          o.schedule = chunk < 0 ? SpgemmSchedule::kWorkBalanced
                                 : SpgemmSchedule::kDynamic;
          o.dynamic_chunk = std::max<int64_t>(chunk, 0);
          const SpgemmPlan plan = spgemm_plan(*a, *b, pool, o);
          SCOPED_TRACE(::testing::Message()
                       << a->rows() << "x" << b->cols() << " team " << team
                       << " accumulator " << static_cast<int>(accumulator)
                       << " chunk " << chunk);
          ASSERT_TRUE(std::ranges::equal(plan.row_ptr, ref.row_ptr()));
          ASSERT_TRUE(std::ranges::equal(plan.col_idx, ref.col_idx()));
          ASSERT_EQ(plan.load_prefix, load_prefix);
          EXPECT_EQ(plan.flops, load_prefix.back());
          ASSERT_EQ(plan.row_use_hash.size(), a->rows());
          for (Index i = 0; i < a->rows(); ++i) {
            const auto cs = ref.row_cols(i);
            const uint64_t span = cs.empty() ? 0 : cs.back() - cs.front() + 1;
            ASSERT_EQ(plan.row_use_hash[i] != 0,
                      expected_route(o, b->cols(), cs.size(), span))
                << "row " << i;
          }
        }
      }
    }
  }
}

TEST(SpgemmPlan, CallersLoadPrefixBuildsTheSamePlan) {
  Rng rng(29);
  const CsrMatrix a = scale_free(800, 9, 2.1, rng);
  ThreadPool pool(3);
  const auto prefix = prefix_sums(load_vector(a, row_nnz_vector(a)));
  const SpgemmPlan own = spgemm_plan(a, a, pool);
  const SpgemmPlan given = spgemm_plan(a, a, pool, {}, prefix);
  EXPECT_EQ(given.load_prefix, own.load_prefix);
  EXPECT_EQ(given.flops, own.flops);
  EXPECT_EQ(given.row_ptr, own.row_ptr);
  EXPECT_EQ(given.col_idx, own.col_idx);
  EXPECT_EQ(given.row_use_hash, own.row_use_hash);
  const std::vector<uint64_t> too_short(prefix.begin(), prefix.end() - 1);
  EXPECT_THROW(spgemm_plan(a, a, pool, {}, too_short), Error);
}

TEST(SpgemmPlan, WrongLoadPrefixOfTheRightLengthThrows) {
  // The caller's prefix sizes each row's pattern scratch, so a stale one
  // (too small, too large, or not starting at 0) must throw before any
  // row writes past its region — on every route and schedule — and leave
  // the pooled workspaces clean for the next build.
  Rng rng(30);
  const CsrMatrix a = scale_free(800, 9, 2.1, rng);
  ThreadPool pool(3);
  const auto prefix = prefix_sums(load_vector(a, row_nnz_vector(a)));
  std::vector<uint64_t> deflated(prefix), one_short(prefix), inflated(prefix),
      shifted(prefix);
  for (auto& p : deflated) p /= 2;
  for (size_t i = 401; i < one_short.size(); ++i) --one_short[i];
  for (auto& p : inflated) p *= 2;
  for (auto& p : shifted) ++p;
  const SpgemmPlan own = spgemm_plan(a, a, pool);
  for (const auto accumulator :
       {SpgemmAccumulator::kAuto, SpgemmAccumulator::kForceSpa,
        SpgemmAccumulator::kForceHash}) {
    for (const auto schedule :
         {SpgemmSchedule::kWorkBalanced, SpgemmSchedule::kDynamic}) {
      SpgemmParallelOptions o;
      o.accumulator = accumulator;
      o.schedule = schedule;
      for (const auto* bad : {&deflated, &one_short, &inflated, &shifted})
        EXPECT_THROW(spgemm_plan(a, a, pool, o, *bad), Error);
      const SpgemmPlan again = spgemm_plan(a, a, pool, o, prefix);
      EXPECT_EQ(again.row_ptr, own.row_ptr);
      EXPECT_EQ(again.col_idx, own.col_idx);
    }
  }
}

TEST(SpgemmPlan, HighCompressionProductMatchesSerial) {
  // Dense 32x32 diagonal blocks: each row of A x A has 1024 flops but
  // only 32 distinct columns, so the pattern scratch (min(flops, cols)
  // per row) is 32x larger than C's pattern, of which only C is written.
  const Index n = 2048, block = 32;
  std::vector<Triplet> t;
  for (Index i = 0; i < n; ++i) {
    const Index first = i / block * block;
    for (Index j = first; j < first + block; ++j)
      t.push_back({i, j, 1.0 + static_cast<double>((i * 7 + j) % 5)});
  }
  const CsrMatrix a = CsrMatrix::from_triplets(n, n, t);
  const CsrMatrix ref = spgemm(a, a);
  for (unsigned team : {1u, 4u}) {
    ThreadPool pool(team);
    for (const auto accumulator :
         {SpgemmAccumulator::kAuto, SpgemmAccumulator::kForceHash}) {
      SpgemmParallelOptions o;
      o.accumulator = accumulator;
      const SpgemmPlan plan = spgemm_plan(a, a, pool, o);
      EXPECT_EQ(plan.flops, uint64_t{n} * block * block);
      EXPECT_EQ(plan.nnz(), uint64_t{n} * block);
      ASSERT_TRUE(std::ranges::equal(plan.row_ptr, ref.row_ptr()));
      ASSERT_TRUE(std::ranges::equal(plan.col_idx, ref.col_idx()));
      expect_bitwise_equal(spgemm_numeric(a, a, plan, pool, nullptr, o), ref);
    }
  }
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
