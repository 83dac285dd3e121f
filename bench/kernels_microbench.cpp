// Microbenchmarks (google-benchmark) for the executed kernels: these
// measure *real* wall-clock throughput of the substrate implementations,
// complementing the virtual-time experiments.
#include <benchmark/benchmark.h>

#include "graph/cc.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"
#include "graph/sampling.hpp"
#include <cmath>
#include <string_view>
#include <utility>
#include <vector>

#include "parallel/parallel_for.hpp"
#include "sparse/generators.hpp"
#include "sparse/sampling.hpp"
#include "sparse/load_vector.hpp"
#include "sparse/spgemm.hpp"
#include "sparse/spgemm_plan.hpp"
#include "sparse/spmv.hpp"
#include "sort/sort_kernels.hpp"
#include "graph/list_ranking.hpp"
#include "parallel/thread_pool.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

using namespace nbwp;

namespace {

graph::CsrGraph make_bench_graph(int64_t n) {
  Rng rng(7);
  return graph::banded_mesh(static_cast<graph::Vertex>(n), 16, 64, rng);
}

sparse::CsrMatrix make_bench_matrix(int64_t n) {
  Rng rng(7);
  return sparse::banded_fem(static_cast<sparse::Index>(n), 24, 64, 4, rng);
}

void BM_CcDfs(benchmark::State& state) {
  const auto g = make_bench_graph(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::cc_dfs(g).num_components);
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_CcDfs)->Arg(1 << 12)->Arg(1 << 14)->Arg(1 << 16);

void BM_CcShiloachVishkin(benchmark::State& state) {
  const auto g = make_bench_graph(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::cc_shiloach_vishkin(g).num_components);
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_CcShiloachVishkin)->Arg(1 << 12)->Arg(1 << 14)->Arg(1 << 16);

void BM_CcUnionFind(benchmark::State& state) {
  const auto g = make_bench_graph(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::cc_union_find(g).num_components);
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_CcUnionFind)->Arg(1 << 12)->Arg(1 << 14)->Arg(1 << 16);

graph::CsrGraph make_scalefree_graph(int64_t n) {
  Rng rng(7);
  return graph::preferential_attachment(static_cast<graph::Vertex>(n), 8,
                                        rng);
}

// Args: {vertices, workers}.  Label propagation floods min-labels over
// every edge per round; the sampling-based adaptive kernel links a couple
// of neighbors per vertex, finds the giant component from a 1k sample,
// and skips its vertices in phase 2.  The committed BENCH_kernels.json
// and the CI gate (scripts/check_bench_regression.py) key on the
// Adaptive-vs-LabelProp ratio per worker count, which is
// machine-independent.
void BM_CcLabelProp(benchmark::State& state) {
  const auto g = make_scalefree_graph(state.range(0));
  ThreadPool pool(static_cast<unsigned>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        graph::cc_label_propagation(g, pool).num_components);
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_CcLabelProp)
    ->Args({1 << 14, 2})
    ->Args({1 << 14, 4})
    ->Args({1 << 14, 8});

void BM_CcAdaptive(benchmark::State& state) {
  const auto g = make_scalefree_graph(state.range(0));
  ThreadPool pool(static_cast<unsigned>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::cc_adaptive(g, pool).num_components);
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_CcAdaptive)
    ->Args({1 << 14, 2})
    ->Args({1 << 14, 4})
    ->Args({1 << 14, 8});

void BM_PrefixCutProfile(benchmark::State& state) {
  const auto g = make_bench_graph(state.range(0));
  for (auto _ : state) {
    graph::PrefixCutProfile profile(g);
    benchmark::DoNotOptimize(profile.cross_edges(g.num_vertices() / 2));
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_PrefixCutProfile)->Arg(1 << 14)->Arg(1 << 16);

void BM_SplitByPrefix(benchmark::State& state) {
  const auto g = make_bench_graph(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        graph::split_by_prefix(g, g.num_vertices() / 5).cross_edges.size());
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_SplitByPrefix)->Arg(1 << 14)->Arg(1 << 16);

void BM_InducedSubgraph(benchmark::State& state) {
  const auto g = make_bench_graph(state.range(0));
  Rng rng(3);
  const auto verts = graph::uniform_vertex_sample(
      g, static_cast<graph::Vertex>(std::sqrt(g.num_vertices())) * 4, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        graph::induced_subgraph(g, verts).num_edges());
  }
}
BENCHMARK(BM_InducedSubgraph)->Arg(1 << 14)->Arg(1 << 16);

void BM_Spgemm(benchmark::State& state) {
  const auto a = make_bench_matrix(state.range(0));
  uint64_t multiplies = 0;
  for (auto _ : state) {
    sparse::SpgemmCounters counters;
    benchmark::DoNotOptimize(sparse::spgemm(a, a, &counters).nnz());
    multiplies += counters.multiplies;
  }
  state.SetItemsProcessed(static_cast<int64_t>(multiplies));
}
BENCHMARK(BM_Spgemm)->Arg(1 << 10)->Arg(1 << 12)->Arg(1 << 14);

sparse::CsrMatrix make_skewed_matrix(int64_t n) {
  Rng rng(7);
  return sparse::scale_free(static_cast<sparse::Index>(n), 12, 2.0, rng);
}

/// Pre-two-phase parallel SpGEMM: equal row counts per worker, one
/// partial CSR per worker, merged by a pairwise vstack chain.  Kept as a
/// bench-local baseline so the work-balanced kernel has something honest
/// to beat on skewed inputs.
sparse::CsrMatrix spgemm_equal_rows_vstack(const sparse::CsrMatrix& a,
                                           const sparse::CsrMatrix& b,
                                           ThreadPool& pool) {
  const auto team = static_cast<sparse::Index>(pool.size());
  const sparse::Index n = a.rows();
  std::vector<sparse::CsrMatrix> parts(team);
  pool.run_team([&](unsigned w) {
    const sparse::Index lo = n * w / team;
    const sparse::Index hi = n * (w + 1) / team;
    parts[w] = sparse::spgemm_row_range(a, b, lo, hi);
  });
  sparse::CsrMatrix c = std::move(parts[0]);
  for (sparse::Index w = 1; w < team; ++w)
    c = sparse::CsrMatrix::vstack(c, parts[w]);
  return c;
}

void BM_SpgemmSkewedSerial(benchmark::State& state) {
  const auto a = make_skewed_matrix(state.range(0));
  uint64_t multiplies = 0;
  for (auto _ : state) {
    sparse::SpgemmCounters counters;
    benchmark::DoNotOptimize(sparse::spgemm(a, a, &counters).nnz());
    multiplies += counters.multiplies;
  }
  state.SetItemsProcessed(static_cast<int64_t>(multiplies));
}
BENCHMARK(BM_SpgemmSkewedSerial)->Arg(1 << 12);

// Args: {matrix size, workers}.  The scale-free matrix concentrates the
// flops in a few dense rows, so equal row counts leave most of the team
// idle while the unlucky worker grinds; the flops-balanced two-phase
// kernel below runs the same product on the same pool sizes.
void BM_SpgemmEqualRowsVstack(benchmark::State& state) {
  const auto a = make_skewed_matrix(state.range(0));
  ThreadPool pool(static_cast<unsigned>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(spgemm_equal_rows_vstack(a, a, pool).nnz());
  }
}
BENCHMARK(BM_SpgemmEqualRowsVstack)
    ->Args({1 << 12, 2})
    ->Args({1 << 12, 4})
    ->Args({1 << 12, 8});

// The PR 3 kernel, pinned to the dense SPA for every row: the baseline
// the adaptive accumulator (BM_SpgemmParallelAdaptive) must beat on this
// skewed input.  The committed BENCH_kernels.json snapshot and the CI
// regression gate (scripts/check_bench_regression.py) both key on the
// Adaptive-vs-this ratio, which is machine-independent.
void BM_SpgemmParallel(benchmark::State& state) {
  const auto a = make_skewed_matrix(state.range(0));
  ThreadPool pool(static_cast<unsigned>(state.range(1)));
  sparse::SpgemmParallelOptions options;
  options.schedule = sparse::SpgemmSchedule::kWorkBalanced;
  options.accumulator = sparse::SpgemmAccumulator::kForceSpa;
  uint64_t multiplies = 0;
  for (auto _ : state) {
    sparse::SpgemmCounters counters;
    benchmark::DoNotOptimize(
        sparse::spgemm_parallel(a, a, pool, &counters, options).nnz());
    multiplies += counters.multiplies;
  }
  state.SetItemsProcessed(static_cast<int64_t>(multiplies));
}
BENCHMARK(BM_SpgemmParallel)
    ->Args({1 << 12, 2})
    ->Args({1 << 12, 4})
    ->Args({1 << 12, 8});

void BM_SpgemmParallelAdaptive(benchmark::State& state) {
  const auto a = make_skewed_matrix(state.range(0));
  ThreadPool pool(static_cast<unsigned>(state.range(1)));
  sparse::SpgemmParallelOptions options;
  options.schedule = sparse::SpgemmSchedule::kWorkBalanced;
  options.accumulator = sparse::SpgemmAccumulator::kAuto;
  uint64_t multiplies = 0;
  for (auto _ : state) {
    sparse::SpgemmCounters counters;
    benchmark::DoNotOptimize(
        sparse::spgemm_parallel(a, a, pool, &counters, options).nnz());
    multiplies += counters.multiplies;
  }
  state.SetItemsProcessed(static_cast<int64_t>(multiplies));
}
BENCHMARK(BM_SpgemmParallelAdaptive)
    ->Args({1 << 12, 2})
    ->Args({1 << 12, 4})
    ->Args({1 << 12, 8});

// Banded-FEM input: every output row lands well above the density
// threshold, so kAuto must match ForceSpa here (acceptance: never >5%
// slower on dense-row benches).
void BM_SpgemmBandedParallel(benchmark::State& state) {
  const auto a = make_bench_matrix(state.range(0));
  ThreadPool pool(static_cast<unsigned>(state.range(1)));
  sparse::SpgemmParallelOptions options;
  options.schedule = sparse::SpgemmSchedule::kWorkBalanced;
  options.accumulator = state.range(2) == 0
                            ? sparse::SpgemmAccumulator::kForceSpa
                            : sparse::SpgemmAccumulator::kAuto;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sparse::spgemm_parallel(a, a, pool, nullptr, options).nnz());
  }
}
BENCHMARK(BM_SpgemmBandedParallel)
    ->ArgNames({"n", "workers", "auto"})
    ->Args({1 << 12, 4, 0})
    ->Args({1 << 12, 4, 1});

/// Square matrix with a uniform `d` nnz per row: output rows of A*A have
/// ~min(d^2, n) distinct columns, so sweeping d walks the output-density
/// spectrum on fixed-width (n-column) rows.  ForceSpa vs ForceHash over
/// the sweep locates the crossover that calibrates
/// SpgemmParallelOptions::hash_density_threshold (docs/PERFORMANCE.md).
sparse::CsrMatrix make_uniform_rows_matrix(sparse::Index n, unsigned d) {
  Rng rng(19);
  return sparse::random_uniform(n, n, uint64_t{n} * d, rng, -1.0, 1.0);
}

void BM_SpgemmAccumDensitySweep(benchmark::State& state) {
  const auto a = make_uniform_rows_matrix(
      static_cast<sparse::Index>(state.range(0)),
      static_cast<unsigned>(state.range(1)));
  ThreadPool pool(4);
  sparse::SpgemmParallelOptions options;
  options.schedule = sparse::SpgemmSchedule::kWorkBalanced;
  switch (state.range(2)) {
    case 0: options.accumulator = sparse::SpgemmAccumulator::kForceSpa; break;
    case 1: options.accumulator = sparse::SpgemmAccumulator::kForceHash; break;
    default: options.accumulator = sparse::SpgemmAccumulator::kAuto; break;
  }
  uint64_t multiplies = 0;
  for (auto _ : state) {
    sparse::SpgemmCounters counters;
    benchmark::DoNotOptimize(
        sparse::spgemm_parallel(a, a, pool, &counters, options).nnz());
    multiplies += counters.multiplies;
  }
  state.SetItemsProcessed(static_cast<int64_t>(multiplies));
}
BENCHMARK(BM_SpgemmAccumDensitySweep)
    ->ArgNames({"n", "row_nnz", "accum"})
    ->Args({1 << 12, 4, 0})
    ->Args({1 << 12, 4, 1})
    ->Args({1 << 12, 8, 0})
    ->Args({1 << 12, 8, 1})
    ->Args({1 << 12, 16, 0})
    ->Args({1 << 12, 16, 1})
    ->Args({1 << 12, 32, 0})
    ->Args({1 << 12, 32, 1})
    ->Args({1 << 12, 64, 0})
    ->Args({1 << 12, 64, 1})
    ->Args({1 << 12, 16, 2})
    ->Args({1 << 12, 64, 2});

void BM_SpgemmParallelDynamic(benchmark::State& state) {
  const auto a = make_skewed_matrix(state.range(0));
  ThreadPool pool(static_cast<unsigned>(state.range(1)));
  sparse::SpgemmParallelOptions options;
  options.schedule = sparse::SpgemmSchedule::kDynamic;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sparse::spgemm_parallel(a, a, pool, nullptr, options).nnz());
  }
}
BENCHMARK(BM_SpgemmParallelDynamic)->Args({1 << 12, 4})->Args({1 << 12, 8});

void BM_SpgemmParallelMasked(benchmark::State& state) {
  const auto a = make_skewed_matrix(state.range(0));
  std::vector<uint8_t> mask(a.rows());
  for (sparse::Index r = 0; r < a.rows(); ++r) mask[r] = r % 2;
  ThreadPool pool(static_cast<unsigned>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sparse::spgemm_parallel_masked(a, a, pool, mask, 1).nnz());
  }
}
BENCHMARK(BM_SpgemmParallelMasked)->Args({1 << 12, 4});

void BM_LoadVector(benchmark::State& state) {
  const auto a = make_bench_matrix(state.range(0));
  const auto v_b = sparse::row_nnz_vector(a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sparse::load_vector(a, v_b).size());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_LoadVector)->Arg(1 << 12)->Arg(1 << 16);

void BM_SampleSubmatrix(benchmark::State& state) {
  const auto a = make_bench_matrix(state.range(0));
  for (auto _ : state) {
    Rng rng(11);
    benchmark::DoNotOptimize(
        sparse::sample_submatrix_uniform(a, a.rows() / 4, a.cols() / 4, rng)
            .nnz());
  }
}
BENCHMARK(BM_SampleSubmatrix)->Arg(1 << 12)->Arg(1 << 16);

void BM_Spmv(benchmark::State& state) {
  const auto a = make_bench_matrix(state.range(0));
  std::vector<double> x(a.cols(), 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sparse::spmv(a, x).size());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_Spmv)->Arg(1 << 12)->Arg(1 << 16);

/// The pre-blocking parallel SpMV, copied verbatim from the seed kernel it
/// replaced: one parallel_for index per row, each calling a row-range
/// helper that re-validates the operands (as the seed's spmv_row_range
/// did) before the scalar left-to-right dot product.  Kept bench-local so
/// the row-blocked + SIMD kernel always has the kernel it replaced to
/// beat; the CI gate keys on the Blocked-vs-this ratio per worker count.
void spmv_row_range_seed(const sparse::CsrMatrix& a, std::span<const double> x,
                         std::span<double> y, sparse::Index first,
                         sparse::Index last) {
  NBWP_REQUIRE(x.size() == a.cols(), "x size mismatch");
  NBWP_REQUIRE(y.size() == a.rows(), "y size mismatch");
  NBWP_REQUIRE(first <= last && last <= a.rows(), "row range invalid");
  for (sparse::Index r = first; r < last; ++r) {
    const auto cols = a.row_cols(r);
    const auto vals = a.row_vals(r);
    double acc = 0.0;
    for (size_t i = 0; i < cols.size(); ++i) acc += vals[i] * x[cols[i]];
    y[r] = acc;
  }
}

std::vector<double> spmv_parallel_rowwise(const sparse::CsrMatrix& a,
                                          std::span<const double> x,
                                          ThreadPool& pool) {
  std::vector<double> y(a.rows(), 0.0);
  parallel_for(pool, 0, a.rows(), [&](int64_t r) {
    spmv_row_range_seed(a, x, y, static_cast<sparse::Index>(r),
                        static_cast<sparse::Index>(r) + 1);
  });
  return y;
}

// Args: {rows, workers}, on the skewed scale-free matrix (a few rows hold
// most of the nnz, so equal row counts starve the team and short rows
// dominate the row count).
void BM_SpmvParallelRowwise(benchmark::State& state) {
  const auto a = make_skewed_matrix(state.range(0));
  ThreadPool pool(static_cast<unsigned>(state.range(1)));
  std::vector<double> x(a.cols(), 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(spmv_parallel_rowwise(a, x, pool).data());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_SpmvParallelRowwise)
    ->Args({1 << 14, 2})
    ->Args({1 << 14, 4})
    ->Args({1 << 14, 8});

void BM_SpmvParallelBlocked(benchmark::State& state) {
  const auto a = make_skewed_matrix(state.range(0));
  ThreadPool pool(static_cast<unsigned>(state.range(1)));
  std::vector<double> x(a.cols(), 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sparse::spmv_parallel(a, x, pool).data());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_SpmvParallelBlocked)
    ->Args({1 << 14, 2})
    ->Args({1 << 14, 4})
    ->Args({1 << 14, 8});

// Fixed-pattern re-multiply, the HeteroSpmm threshold-sweep scenario:
// the full kernel pays symbolic + numeric every time, the planned kernel
// builds the symbolic plan once outside the loop and replays numeric-only
// products over it.  Acceptance (and the CI ratio gate): numeric-only
// re-multiplies at least 1.5x faster.
void BM_SpgemmFullRemultiply(benchmark::State& state) {
  const auto a = make_skewed_matrix(state.range(0));
  ThreadPool pool(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sparse::spgemm_parallel(a, a, pool).nnz());
  }
}
BENCHMARK(BM_SpgemmFullRemultiply)->Arg(1 << 12);

void BM_SpgemmNumericRemultiply(benchmark::State& state) {
  const auto a = make_skewed_matrix(state.range(0));
  ThreadPool pool(4);
  const sparse::SpgemmPlan plan = sparse::spgemm_plan(a, a, pool);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sparse::spgemm_numeric(a, a, plan, pool).nnz());
  }
}
BENCHMARK(BM_SpgemmNumericRemultiply)->Arg(1 << 12);

// First-run cost of the planned path: one plan build, the product
// HeteroSpmm::run pays before its first numeric pass.  The CI gate bounds
// it against BM_SpgemmFullRemultiply (one full symbolic + numeric product
// of the same input).
void BM_SpgemmPlanBuild(benchmark::State& state) {
  const auto a = make_skewed_matrix(state.range(0));
  ThreadPool pool(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sparse::spgemm_plan(a, a, pool).nnz());
  }
}
BENCHMARK(BM_SpgemmPlanBuild)->Arg(1 << 12);

void BM_GpuRadixSort(benchmark::State& state) {
  Rng rng(7);
  const auto original =
      sort::uniform_keys(static_cast<size_t>(state.range(0)), rng);
  for (auto _ : state) {
    auto keys = original;
    benchmark::DoNotOptimize(sort::gpu_radix_sort(keys));
  }
  state.SetItemsProcessed(state.iterations() * original.size());
}
BENCHMARK(BM_GpuRadixSort)->Arg(1 << 14)->Arg(1 << 18);

void BM_CpuChunkedSort(benchmark::State& state) {
  Rng rng(7);
  const auto original =
      sort::uniform_keys(static_cast<size_t>(state.range(0)), rng);
  ThreadPool pool(4);
  for (auto _ : state) {
    auto keys = original;
    benchmark::DoNotOptimize(sort::cpu_chunked_sort(keys, pool, 8));
  }
  state.SetItemsProcessed(state.iterations() * original.size());
}
BENCHMARK(BM_CpuChunkedSort)->Arg(1 << 14)->Arg(1 << 18);

void BM_WyllieRanking(benchmark::State& state) {
  Rng rng(7);
  const auto next = graph::random_linked_list(
      static_cast<uint32_t>(state.range(0)), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::rank_wyllie(next).iterations);
  }
  state.SetItemsProcessed(state.iterations() * next.size());
}
BENCHMARK(BM_WyllieRanking)->Arg(1 << 12)->Arg(1 << 15);

void BM_SequentialRanking(benchmark::State& state) {
  Rng rng(7);
  const auto next = graph::random_linked_list(
      static_cast<uint32_t>(state.range(0)), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::rank_sequential(next).ranks.size());
  }
  state.SetItemsProcessed(state.iterations() * next.size());
}
BENCHMARK(BM_SequentialRanking)->Arg(1 << 12)->Arg(1 << 16);

}  // namespace

// Same contract as BENCHMARK_MAIN(), plus a default JSON artifact: unless
// the caller passes --benchmark_out themselves, results also land in
// BENCH_kernels.json (machine-readable, consumed by CI).
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]).rfind("--benchmark_out", 0) == 0)
      has_out = true;
  }
  char out_flag[] = "--benchmark_out=BENCH_kernels.json";
  char fmt_flag[] = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag);
    args.push_back(fmt_flag);
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
