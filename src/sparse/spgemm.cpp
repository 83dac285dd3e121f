#include "sparse/spgemm.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "sparse/spgemm_plan.hpp"

#include "obs/obs.hpp"
#include "parallel/arena.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/workspace_pool.hpp"
#include "sparse/hash_accum.hpp"
#include "sparse/load_vector.hpp"
#include "sparse/spa.hpp"
#include "util/error.hpp"

namespace nbwp::sparse {

namespace {

/// One worker's kit: a bump-pointer arena and the accumulators laid out
/// of it.  The arena is never reset while a lease is live (the
/// accumulators' spans point into it); growth wastes the superseded
/// arrays inside the arena, which geometric block sizing bounds.
/// spgemm_workspace_trim() destroys whole idle workspaces;
/// spgemm_workspace_reset_high_water() rewinds idle arenas (detaching
/// the accumulators first) at phase boundaries.
struct SpgemmWorkspace {
  Arena arena;
  Spa spa;
  HashAccum hash;
  PatternBitmap bitmap;

  size_t capacity_bytes() const { return arena.capacity_bytes(); }
};

/// Process-lifetime workspace pool: accumulator storage survives across
/// products, so the estimation pipeline's hundreds of sampled runs stop
/// paying an allocation + zero-fill per call.  Leases are best-fit by a
/// per-product byte hint, and spgemm_workspace_trim() shrinks the pool.
WorkspacePool<SpgemmWorkspace>& workspace_pool() {
  static WorkspacePool<SpgemmWorkspace> pool;
  return pool;
}

/// Bytes a product over `cols`-wide rows is likely to need, for best-fit
/// leasing.  SPA-routed products dominate: values + stamps + touched.
size_t workspace_hint(Index cols, SpgemmAccumulator mode) {
  if (mode == SpgemmAccumulator::kForceHash) return size_t{1} << 16;
  return static_cast<size_t>(cols) *
         (sizeof(double) + sizeof(uint64_t) + sizeof(Index));
}

void count_workspace(const WorkspacePool<SpgemmWorkspace>::Lease& lease) {
  obs::count(lease.reused() ? "kernel.spgemm.workspace.reused"
                            : "kernel.spgemm.workspace.created");
}

void emit_kernel_counters(const SpgemmCounters& c) {
  if (!obs::metrics_enabled()) return;
  auto& reg = obs::Registry::global();
  reg.counter("kernel.spgemm.rows").add(static_cast<double>(c.rows));
  reg.counter("kernel.spgemm.multiplies")
      .add(static_cast<double>(c.multiplies));
  reg.counter("kernel.spgemm.c_nnz").add(static_cast<double>(c.c_nnz));
  reg.counter("kernel.spgemm.rows_spa").add(static_cast<double>(c.rows_spa));
  reg.counter("kernel.spgemm.rows_hash")
      .add(static_cast<double>(c.rows_hash));
}

/// Per-row accumulator routing, resolved once per product.
struct AccumRouter {
  SpgemmAccumulator mode;
  uint64_t hash_below;    ///< kAuto: hash when distinct bound < this
  double min_span_ratio;  ///< kAuto numeric: also require span >= ratio*nnz

  static AccumRouter make(const SpgemmParallelOptions& options, Index cols) {
    AccumRouter r{options.accumulator, 0, options.hash_min_span_ratio};
    if (r.mode == SpgemmAccumulator::kAuto && cols >= options.hash_min_cols) {
      r.hash_below = static_cast<uint64_t>(options.hash_density_threshold *
                                           static_cast<double>(cols));
    }
    return r;
  }

  /// True when kAuto needs the symbolic pass to record per-row column
  /// spans for the numeric routing decision.
  bool needs_span() const { return hash_below > 0; }

  bool use_hash(uint64_t distinct_bound) const {
    switch (mode) {
      case SpgemmAccumulator::kForceSpa: return false;
      case SpgemmAccumulator::kForceHash: return true;
      case SpgemmAccumulator::kAuto: break;
    }
    return distinct_bound < hash_below;
  }

  /// Numeric-phase routing: globally sparse rows hash, *unless* their
  /// columns are packed into a narrow band (span close to nnz), where the
  /// SPA's contiguous arrays and run-copy extraction win outright.
  bool use_hash_numeric(uint64_t row_nnz, uint64_t span) const {
    switch (mode) {
      case SpgemmAccumulator::kForceSpa: return false;
      case SpgemmAccumulator::kForceHash: return true;
      case SpgemmAccumulator::kAuto: break;
    }
    return row_nnz < hash_below &&
           static_cast<double>(span) >=
               min_span_ratio * static_cast<double>(row_nnz);
  }
};

/// Accumulate A's row i times B into `acc` (Spa or HashAccum: identical
/// first-touch semantics, so the result bits do not depend on the route).
template <typename Acc, typename KeepRow>
void accumulate_row(const CsrMatrix& a, const CsrMatrix& b,
                    const KeepRow& keep_row, Index i, Acc& acc,
                    SpgemmCounters& local) {
  const auto acs = a.row_cols(i);
  const auto avs = a.row_vals(i);
  for (size_t j = 0; j < acs.size(); ++j) {
    const Index k = acs[j];
    if (!keep_row(k)) continue;
    const double aik = avs[j];
    const auto bcs = b.row_cols(k);
    const auto bvs = b.row_vals(k);
    for (size_t t = 0; t < bcs.size(); ++t) acc.add(bcs[t], aik * bvs[t]);
    local.multiplies += bcs.size();
  }
  local.a_nnz += acs.size();
}

template <typename KeepRow>
CsrMatrix spgemm_impl(const CsrMatrix& a, const CsrMatrix& b, Index first,
                      Index last, const KeepRow& keep_row,
                      SpgemmCounters* counters) {
  NBWP_REQUIRE(a.cols() == b.rows(), "spgemm shape mismatch");
  NBWP_REQUIRE(first <= last && last <= a.rows(), "row range out of bounds");
  auto ws = workspace_pool().acquire(
      workspace_hint(b.cols(), SpgemmAccumulator::kForceSpa));
  count_workspace(ws);
  Spa& spa = ws->spa;
  spa.ensure(ws->arena, b.cols());
  CsrBuilder builder(last - first, b.cols());
  SpgemmCounters local;
  std::vector<double> vals_out;
  for (Index i = first; i < last; ++i) {
    spa.start_row();
    accumulate_row(a, b, keep_row, i, spa, local);
    const auto touched = spa.touched_sorted();
    vals_out.resize(touched.size());
    for (size_t t = 0; t < touched.size(); ++t)
      vals_out[t] = spa.value(touched[t]);
    builder.append_sorted_row(touched, vals_out);
    local.c_nnz += touched.size();
  }
  local.rows = last - first;
  local.rows_spa = last - first;
  if (counters) *counters += local;
  emit_kernel_counters(local);
  return builder.finish();
}

/// Phase 1: per-row output nnz for rows [lo, hi) of A.  On entry
/// row_nnz[i] still holds the row's flops bound (the load vector), which
/// routes the row: sparse rows mark a cache-resident hash table, dense
/// rows a 1-bit-per-column bitmap — either way a far smaller working set
/// than the numeric SPA's value+stamp arrays.  A row whose flops differ
/// from that bound throws Error.  When `row_span` is non-null it receives
/// each row's column span (max - min + 1), the locality signal the
/// numeric router combines with exact nnz.  With a `pattern`, each row's
/// sorted columns are also written out: on entry row_at[lo] is where the
/// block's rows start, back to back, and on exit row_at[i] is where row
/// i landed.
template <typename KeepRow>
void symbolic_rows(const CsrMatrix& a, const CsrMatrix& b,
                   const KeepRow& keep_row, Index lo, Index hi,
                   SpgemmWorkspace& ws, const AccumRouter& router,
                   uint64_t* row_nnz, Index* row_span, Index* pattern,
                   uint64_t* row_at) {
  const Index cols = b.cols();
  uint64_t at = pattern ? row_at[lo] : 0;
  for (Index i = lo; i < hi; ++i) {
    const uint64_t bound = std::min<uint64_t>(row_nnz[i], cols);
    const bool hash = router.use_hash(bound);
    if (hash) {
      ws.hash.ensure(ws.arena, bound);
      ws.hash.start_row();
    } else {
      ws.bitmap.ensure(ws.arena, cols);
    }
    Index cmin = cols, cmax = 0;
    uint64_t flops = 0;
    for (Index k : a.row_cols(i)) {
      if (!keep_row(k)) continue;
      const auto bcs = b.row_cols(k);
      if (bcs.empty()) continue;
      cmin = std::min(cmin, bcs.front());  // rows of B are column-sorted
      cmax = std::max(cmax, bcs.back());
      flops += bcs.size();
      if (hash) {
        for (Index c : bcs) ws.hash.mark(c);
      } else {
        for (Index c : bcs) ws.bitmap.mark(c);
      }
    }
    // The bound sized the row's pattern region (spgemm_plan may take it
    // from the caller): a row that disagrees would write past it.
    if (flops != row_nnz[i]) {
      ws.bitmap.reset();  // the pooled workspace goes back clean
      throw Error("spgemm flops bound does not match A x B at row " +
                  std::to_string(i));
    }
    row_nnz[i] = hash ? ws.hash.touched() : ws.bitmap.count();
    if (pattern == nullptr) {
      if (!hash) ws.bitmap.reset();
    } else if (hash) {
      ws.hash.extract_sorted(pattern + at, nullptr);
    } else {
      ws.bitmap.extract_sorted(pattern + at);
    }
    if (row_span) row_span[i] = row_nnz[i] == 0 ? 0 : cmax - cmin + 1;
    if (pattern) {
      row_at[i] = at;
      at += row_nnz[i];
    }
  }
}

/// Phase 2: accumulate rows [lo, hi) and write them into their slots.
/// Each row's exact output nnz is known from phase 1, so routing is by
/// true density and the hash table is sized exactly.
template <typename KeepRow>
void numeric_rows(const CsrMatrix& a, const CsrMatrix& b,
                  const KeepRow& keep_row, Index lo, Index hi,
                  SpgemmWorkspace& ws, const AccumRouter& router,
                  std::span<const uint64_t> row_ptr, const Index* row_span,
                  Index* col_out, double* val_out, SpgemmCounters& local) {
  for (Index i = lo; i < hi; ++i) {
    const uint64_t at = row_ptr[i];
    const uint64_t row_nnz = row_ptr[i + 1] - at;
    if (router.use_hash_numeric(row_nnz, row_span ? row_span[i] : 0)) {
      ws.hash.ensure(ws.arena, row_nnz);
      ws.hash.start_row();
      accumulate_row(a, b, keep_row, i, ws.hash, local);
      ws.hash.extract_sorted(col_out + at, val_out + at);
      ++local.rows_hash;
    } else {
      ws.spa.ensure(ws.arena, b.cols());
      ws.spa.start_row();
      accumulate_row(a, b, keep_row, i, ws.spa, local);
      ws.spa.extract_sorted(col_out + at, val_out + at);
      ++local.rows_spa;
    }
    local.c_nnz += row_nnz;
  }
  local.rows += hi - lo;
}

/// One workspace lease per pool worker, taken on the worker's first
/// block and held until the caller drops the vector (team entries).
using WorkerLeases =
    std::vector<std::optional<WorkspacePool<SpgemmWorkspace>::Lease>>;

/// Scheduling shell of every parallel path: run `work(worker, lo, hi,
/// ws)` over all n rows — one block per worker at the static `bounds`, or
/// dynamic chunks — with each worker's blocks sharing its lease in
/// `leases`.
template <typename Work>
void dispatch(ThreadPool& pool, Index n, std::span<const Index> bounds,
              bool dynamic, int64_t dynamic_chunk, size_t hint,
              WorkerLeases& leases, const Work& work) {
  const auto with_workspace = [&](unsigned w, Index lo, Index hi) {
    if (!leases[w]) {
      leases[w].emplace(workspace_pool().acquire(hint));
      count_workspace(*leases[w]);
    }
    work(w, lo, hi, **leases[w]);
  };
  if (dynamic) {
    parallel_for_chunks(
        pool, 0, n,
        [&](unsigned w, int64_t lo, int64_t hi) {
          with_workspace(w, static_cast<Index>(lo), static_cast<Index>(hi));
        },
        Schedule::kDynamic, dynamic_chunk);
  } else {
    pool.run_team([&](unsigned w) {
      if (bounds[w] >= bounds[w + 1]) return;
      with_workspace(w, bounds[w], bounds[w + 1]);
    });
  }
}

/// Publish the largest arena high-water mark among the leased workspaces.
void set_arena_gauge(WorkerLeases& leases) {
  size_t high_water = 0;
  for (auto& lease : leases) {
    if (lease)
      high_water = std::max(high_water, (*lease)->arena.high_water_bytes());
  }
  obs::set_gauge("kernel.spgemm.arena.high_water_bytes",
                 static_cast<double>(high_water));
}

/// Two-phase work-balanced parallel product over all rows of A.
/// `load` is the per-row flops vector matching `keep_row`.
template <typename KeepRow>
CsrMatrix spgemm_parallel_impl(const CsrMatrix& a, const CsrMatrix& b,
                               ThreadPool& pool, const KeepRow& keep_row,
                               std::vector<uint64_t> load,
                               SpgemmCounters* counters,
                               const SpgemmParallelOptions& options) {
  const Index n = a.rows();
  const unsigned team = pool.size();
  const auto prefix = prefix_sums(load);
  std::vector<uint64_t> row_nnz(std::move(load));  // reuse as phase-1 output
  const AccumRouter router = AccumRouter::make(options, b.cols());
  // kAuto only: phase 1 records each row's column span so phase 2 can
  // keep band-local rows on the SPA (see AccumRouter::use_hash_numeric).
  std::vector<Index> row_span(router.needs_span() ? n : 0);
  Index* span_data = row_span.empty() ? nullptr : row_span.data();
  const size_t hint = workspace_hint(b.cols(), options.accumulator);
  const bool dynamic = options.schedule == SpgemmSchedule::kDynamic;
  const std::vector<Index> bounds =
      dynamic ? std::vector<Index>{} : balanced_boundaries(prefix, team);
  WorkerLeases leases(team);
  const auto run = [&](const auto& work) {
    dispatch(pool, n, bounds, dynamic, options.dynamic_chunk, hint, leases,
             work);
  };

  {
    obs::Span symbolic("kernel.spgemm.symbolic");
    run([&](unsigned, Index lo, Index hi, SpgemmWorkspace& ws) {
      symbolic_rows(a, b, keep_row, lo, hi, ws, router, row_nnz.data(),
                    span_data, nullptr, nullptr);
    });
  }

  // Single allocation: prefix-sum the row sizes and place every row.
  std::vector<uint64_t> row_ptr(static_cast<size_t>(n) + 1, 0);
  for (Index i = 0; i < n; ++i) row_ptr[i + 1] = row_ptr[i] + row_nnz[i];
  const uint64_t nnz = row_ptr.back();
  std::vector<Index> col_idx(nnz);
  std::vector<double> values(nnz);

  std::vector<SpgemmCounters> part(team);
  {
    obs::Span numeric("kernel.spgemm.numeric");
    run([&](unsigned w, Index lo, Index hi, SpgemmWorkspace& ws) {
      numeric_rows(a, b, keep_row, lo, hi, ws, router, row_ptr, span_data,
                   col_idx.data(), values.data(), part[w]);
    });
  }

  set_arena_gauge(leases);
  SpgemmCounters total;
  for (const auto& pc : part) total += pc;
  if (counters) *counters += total;
  emit_kernel_counters(total);
  return CsrMatrix::from_parts(n, b.cols(), std::move(row_ptr),
                               std::move(col_idx), std::move(values));
}

// ---- SpgemmPlan internals -------------------------------------------------

/// Numeric phase over a plan for rows [lo, hi): accumulate exactly as the
/// full kernel would, validate the row's nnz against the plan, then
/// *gather* values by the plan's known sorted pattern — no per-row sort.
/// Gathering reads the same accumulated doubles extract_sorted would
/// write, so the result stays bitwise identical to the full product.
void numeric_rows_planned(const CsrMatrix& a, const CsrMatrix& b,
                          const SpgemmPlan& plan, Index lo, Index hi,
                          SpgemmWorkspace& ws, double* val_out,
                          SpgemmCounters& local) {
  const auto keep_all = [](Index) { return true; };
  for (Index i = lo; i < hi; ++i) {
    const uint64_t at = plan.row_ptr[i];
    const uint64_t row_nnz = plan.row_ptr[i + 1] - at;
    const Index* cols = plan.col_idx.data() + at;
    if (plan.row_use_hash[i]) {
      ws.hash.ensure(ws.arena, row_nnz);
      ws.hash.start_row();
      accumulate_row(a, b, keep_all, i, ws.hash, local);
      NBWP_REQUIRE(ws.hash.touched() == row_nnz,
                   "spgemm plan stale: row pattern changed");
      for (uint64_t t = 0; t < row_nnz; ++t)
        val_out[at + t] = ws.hash.value(cols[t]);
      ++local.rows_hash;
    } else {
      ws.spa.ensure(ws.arena, b.cols());
      ws.spa.start_row();
      accumulate_row(a, b, keep_all, i, ws.spa, local);
      NBWP_REQUIRE(ws.spa.touched() == row_nnz,
                   "spgemm plan stale: row pattern changed");
      NBWP_PRAGMA_SIMD
      for (uint64_t t = 0; t < row_nnz; ++t)
        val_out[at + t] = ws.spa.value(cols[t]);
      ++local.rows_spa;
    }
    local.c_nnz += row_nnz;
  }
  local.rows += hi - lo;
}

/// Cheap per-call compatibility check of the numeric-only entry points
/// (full pattern validation is SpgemmPlan::matches).
void require_plan_compatible(const SpgemmPlan& plan, const CsrMatrix& a,
                             const CsrMatrix& b) {
  NBWP_REQUIRE(a.cols() == b.rows(), "spgemm shape mismatch");
  NBWP_REQUIRE(plan.rows == a.rows() && plan.cols == b.cols(),
               "spgemm plan shape mismatch");
  NBWP_REQUIRE(plan.a_nnz == a.nnz() && plan.b_nnz == b.nnz(),
               "spgemm plan nnz mismatch");
  NBWP_REQUIRE(
      plan.row_ptr.size() == static_cast<size_t>(plan.rows) + 1 &&
          plan.row_use_hash.size() == static_cast<size_t>(plan.rows) &&
          plan.load_prefix.size() == static_cast<size_t>(plan.rows) + 1 &&
          plan.col_idx.size() == plan.nnz(),
      "spgemm plan internally inconsistent");
}

bool use_serial(const CsrMatrix& a, ThreadPool& pool,
                const SpgemmParallelOptions& options) {
  // A forced accumulator must actually be exercised, so it never takes
  // the serial (SPA-only) shortcut.
  if (options.accumulator != SpgemmAccumulator::kAuto) return false;
  if (pool.size() == 1) return true;
  return options.schedule == SpgemmSchedule::kAuto &&
         a.rows() < pool.size() * 4;
}

}  // namespace

CsrMatrix spgemm_row_range(const CsrMatrix& a, const CsrMatrix& b,
                           Index first, Index last,
                           SpgemmCounters* counters) {
  obs::Span span("kernel.spgemm.row_range");
  return spgemm_impl(a, b, first, last, [](Index) { return true; }, counters);
}

CsrMatrix spgemm(const CsrMatrix& a, const CsrMatrix& b,
                 SpgemmCounters* counters) {
  return spgemm_row_range(a, b, 0, a.rows(), counters);
}

CsrMatrix spgemm_parallel(const CsrMatrix& a, const CsrMatrix& b,
                          ThreadPool& pool, SpgemmCounters* counters,
                          const SpgemmParallelOptions& options) {
  NBWP_REQUIRE(a.cols() == b.rows(), "spgemm shape mismatch");
  if (use_serial(a, pool, options)) return spgemm(a, b, counters);
  obs::Span span("kernel.spgemm.parallel");
  return spgemm_parallel_impl(
      a, b, pool, [](Index) { return true; },
      load_vector(a, row_nnz_vector(b)), counters, options);
}

CsrMatrix spgemm_row_range_masked(const CsrMatrix& a, const CsrMatrix& b,
                                  Index first, Index last,
                                  std::span<const uint8_t> b_row_mask,
                                  uint8_t keep, SpgemmCounters* counters) {
  obs::Span span("kernel.spgemm.masked");
  NBWP_REQUIRE(b_row_mask.size() == b.rows(), "mask size mismatch");
  return spgemm_impl(
      a, b, first, last,
      [&](Index k) { return b_row_mask[k] == keep; }, counters);
}

CsrMatrix spgemm_parallel_masked(const CsrMatrix& a, const CsrMatrix& b,
                                 ThreadPool& pool,
                                 std::span<const uint8_t> b_row_mask,
                                 uint8_t keep, SpgemmCounters* counters,
                                 const SpgemmParallelOptions& options) {
  NBWP_REQUIRE(a.cols() == b.rows(), "spgemm shape mismatch");
  NBWP_REQUIRE(b_row_mask.size() == b.rows(), "mask size mismatch");
  if (use_serial(a, pool, options))
    return spgemm_row_range_masked(a, b, 0, a.rows(), b_row_mask, keep,
                                   counters);
  obs::Span span("kernel.spgemm.masked.parallel");
  const auto keep_row = [&](Index k) { return b_row_mask[k] == keep; };
  return spgemm_parallel_impl(
      a, b, pool, keep_row,
      load_vector_masked(a, row_nnz_vector(b), b_row_mask, keep), counters,
      options);
}

CsrMatrix sp_add(const CsrMatrix& a, const CsrMatrix& b) {
  NBWP_REQUIRE(a.rows() == b.rows() && a.cols() == b.cols(),
               "sp_add shape mismatch");
  CsrBuilder builder(a.rows(), a.cols());
  std::vector<Index> cols;
  std::vector<double> vals;
  for (Index r = 0; r < a.rows(); ++r) {
    cols.clear();
    vals.clear();
    const auto ac = a.row_cols(r), bc = b.row_cols(r);
    const auto av = a.row_vals(r), bv = b.row_vals(r);
    size_t i = 0, j = 0;
    while (i < ac.size() || j < bc.size()) {
      if (j >= bc.size() || (i < ac.size() && ac[i] < bc[j])) {
        cols.push_back(ac[i]);
        vals.push_back(av[i]);
        ++i;
      } else if (i >= ac.size() || bc[j] < ac[i]) {
        cols.push_back(bc[j]);
        vals.push_back(bv[j]);
        ++j;
      } else {
        cols.push_back(ac[i]);
        vals.push_back(av[i] + bv[j]);
        ++i;
        ++j;
      }
    }
    builder.append_sorted_row(cols, vals);
  }
  return builder.finish();
}

uint64_t csr_pattern_hash(const CsrMatrix& m) {
  uint64_t h = 0x243F6A8885A308D3ull;
  const auto mix = [&h](uint64_t v) {
    h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  };
  mix(m.rows());
  mix(m.cols());
  for (const uint64_t p : m.row_ptr()) mix(p);
  for (const Index c : m.col_idx()) mix(c);
  return h;
}

bool SpgemmPlan::matches(const CsrMatrix& a, const CsrMatrix& b) const {
  return rows == a.rows() && cols == b.cols() && a_nnz == a.nnz() &&
         b_nnz == b.nnz() && a_pattern_hash == csr_pattern_hash(a) &&
         b_pattern_hash == csr_pattern_hash(b);
}

SpgemmPlan spgemm_plan(const CsrMatrix& a, const CsrMatrix& b,
                       ThreadPool& pool, const SpgemmParallelOptions& options,
                       std::span<const uint64_t> load_prefix) {
  NBWP_REQUIRE(a.cols() == b.rows(), "spgemm shape mismatch");
  obs::Span span("kernel.spgemm.plan.build");
  obs::count("kernel.spgemm.plan.built");
  const Index n = a.rows();
  const unsigned team = pool.size();

  SpgemmPlan plan;
  plan.rows = n;
  plan.cols = b.cols();
  plan.a_nnz = a.nnz();
  plan.b_nnz = b.nnz();
  plan.a_pattern_hash = csr_pattern_hash(a);
  // A x A passes one operand twice: hash its pattern once.
  plan.b_pattern_hash =
      &a == &b ? plan.a_pattern_hash : csr_pattern_hash(b);

  plan.load_prefix =
      load_prefix.empty()
          ? prefix_sums(load_vector(a, row_nnz_vector(b)))
          : std::vector<uint64_t>(load_prefix.begin(), load_prefix.end());
  NBWP_REQUIRE(plan.load_prefix.size() == static_cast<size_t>(n) + 1 &&
                   plan.load_prefix.front() == 0,
               "spgemm plan load prefix needs rows + 1 entries from 0");
  plan.flops = plan.load_prefix.back();

  const AccumRouter router = AccumRouter::make(options, b.cols());
  // Phase-1 input: each row's flops bound, read back from the prefix,
  // and the running sum of the width-capped bounds, where a block
  // starting at that row may write its columns.
  std::vector<uint64_t> row_nnz(n), row_at(static_cast<size_t>(n) + 1, 0);
  for (Index i = 0; i < n; ++i) {
    row_nnz[i] = plan.load_prefix[i + 1] - plan.load_prefix[i];
    row_at[i + 1] = row_at[i] + std::min<uint64_t>(row_nnz[i], b.cols());
  }
  // Spans are always recorded: the captured routes replay the numeric
  // router's density + locality decision on every future re-multiply.
  std::vector<Index> row_span(n);
  const size_t hint = workspace_hint(b.cols(), options.accumulator);
  const bool dynamic = options.schedule == SpgemmSchedule::kDynamic;
  const std::vector<Index> bounds =
      dynamic ? std::vector<Index>{}
              : balanced_boundaries(plan.load_prefix, team);
  const auto keep_all = [](Index) { return true; };

  // One walk over A x B counts every row and writes its sorted columns
  // into that bound, mapped straight from the OS: each block fills its
  // region from the front, so only about C's pattern is ever touched,
  // and unmapping returns it without retuning the malloc heap.
  const size_t bytes = std::max<uint64_t>(row_at[n], 1) * sizeof(Index);
  void* map = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (map == MAP_FAILED) throw std::bad_alloc();
  const auto unmap = [bytes](void* p) { munmap(p, bytes); };
  const std::unique_ptr<void, decltype(unmap)> mapped(map, unmap);
  Index* const pattern = static_cast<Index*>(map);
  WorkerLeases leases(team);
  dispatch(pool, n, bounds, dynamic, options.dynamic_chunk, hint, leases,
           [&](unsigned, Index lo, Index hi, SpgemmWorkspace& ws) {
             symbolic_rows(a, b, keep_all, lo, hi, ws, router,
                           row_nnz.data(), row_span.data(), pattern,
                           row_at.data());
           });

  plan.row_ptr.assign(static_cast<size_t>(n) + 1, 0);
  for (Index i = 0; i < n; ++i)
    plan.row_ptr[i + 1] = plan.row_ptr[i] + row_nnz[i];
  plan.row_use_hash.resize(n);
  for (Index i = 0; i < n; ++i)
    plan.row_use_hash[i] =
        router.use_hash_numeric(row_nnz[i], row_span[i]) ? 1 : 0;

  // One pool pass packs the rows into col_idx.
  plan.col_idx.resize(plan.nnz());
  parallel_for(pool, 0, n, [&](int64_t i) {
    std::copy_n(pattern + row_at[i], row_nnz[i],
                plan.col_idx.data() + plan.row_ptr[i]);
  });
  return plan;
}

CsrMatrix spgemm_numeric(const CsrMatrix& a, const CsrMatrix& b,
                         const SpgemmPlan& plan, ThreadPool& pool,
                         SpgemmCounters* counters,
                         const SpgemmParallelOptions& options) {
  const Index whole[] = {0, plan.rows};
  SpgemmCounters total;
  CsrMatrix c = spgemm_numeric(a, b, plan, pool, whole, {&total, 1}, options);
  if (counters) *counters += total;
  return c;
}

CsrMatrix spgemm_numeric(const CsrMatrix& a, const CsrMatrix& b,
                         const SpgemmPlan& plan, ThreadPool& pool,
                         std::span<const Index> bounds,
                         std::span<SpgemmCounters> range_counters,
                         const SpgemmParallelOptions& options) {
  require_plan_compatible(plan, a, b);
  const size_t k = range_counters.size();
  NBWP_REQUIRE(k >= 1 && bounds.size() == k + 1 && bounds.front() == 0 &&
                   bounds.back() == plan.rows &&
                   std::ranges::is_sorted(bounds),
               "spgemm numeric ranges must be monotone from 0 to rows");
  obs::Span span("kernel.spgemm.numeric_only");
  obs::count("kernel.spgemm.plan.reused");
  const Index n = plan.rows;
  const unsigned team = pool.size();
  std::vector<uint64_t> row_ptr(plan.row_ptr);
  std::vector<Index> col_idx(plan.col_idx);
  std::vector<double> values(plan.nnz());

  const size_t hint = workspace_hint(plan.cols, options.accumulator);
  const bool dynamic = options.schedule == SpgemmSchedule::kDynamic;
  const std::vector<Index> blocks =
      dynamic ? std::vector<Index>{}
              : balanced_boundaries(plan.load_prefix, team);
  std::vector<SpgemmCounters> part(static_cast<size_t>(team) * k);
  WorkerLeases leases(team);
  dispatch(
      pool, n, blocks, dynamic, options.dynamic_chunk, hint, leases,
      [&](unsigned w, Index lo, Index hi, SpgemmWorkspace& ws) {
        // Clip the block at the range boundaries: r is the range holding
        // row lo (the last of any empty ranges ending there).
        auto r = static_cast<size_t>(std::ranges::upper_bound(bounds, lo) -
                                     bounds.begin()) - 1;
        for (; lo < hi; ++r) {
          const Index end = std::min(hi, bounds[r + 1]);
          numeric_rows_planned(a, b, plan, lo, end, ws, values.data(),
                               part[w * k + r]);
          lo = end;
        }
      });
  set_arena_gauge(leases);
  SpgemmCounters total;
  for (size_t w = 0; w < team; ++w) {
    for (size_t r = 0; r < k; ++r) {
      range_counters[r] += part[w * k + r];
      total += part[w * k + r];
    }
  }
  emit_kernel_counters(total);
  return CsrMatrix::from_parts(n, plan.cols, std::move(row_ptr),
                               std::move(col_idx), std::move(values));
}

SpgemmWorkspaceStats spgemm_workspace_stats() {
  auto& pool = workspace_pool();
  return {pool.created(), pool.reused(), pool.idle(), pool.idle_bytes()};
}

size_t spgemm_workspace_trim(size_t keep_idle) {
  return workspace_pool().trim(keep_idle);
}

void spgemm_workspace_reset_high_water() {
  workspace_pool().for_each_idle([](SpgemmWorkspace& ws) {
    // Detach the accumulators before rewinding the arena: their spans
    // point into the superseded layout.  The next lease re-lays them
    // through ensure() exactly like a fresh workspace, but from the
    // retained (warm) capacity — so the next phase's gauge measures that
    // phase's own layout, not the footprint history.
    ws.spa = Spa{};
    ws.hash = HashAccum{};
    ws.bitmap = PatternBitmap{};
    ws.arena.reset();
    ws.arena.reset_high_water();
  });
  obs::set_gauge("kernel.spgemm.arena.high_water_bytes", 0.0);
}

}  // namespace nbwp::sparse
