// Numeric-only SpGEMM re-multiplication over a captured symbolic plan.
//
// The two-phase parallel kernel (sparse/spgemm.hpp) pays a symbolic pass
// per product to size the output and route rows between accumulators.
// When the same sparsity pattern is multiplied repeatedly — a HeteroSpmm
// instance run at more than one split, or an iterative solver
// re-multiplying per sweep with fresh values — that pass computes the
// same answer every time.  SpgemmPlan captures it once:
// C's row pointers, the per-row accumulator routes, the flops prefix the
// scheduler balances on, and pattern hashes of both operands so a stale
// plan is rejected instead of silently misused.  spgemm_numeric then
// skips straight to the numeric phase and stays bitwise identical to the
// full kernel (accumulation order per row is unchanged; the symbolic
// output it trusts is validated per row before anything is written).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "sparse/csr_matrix.hpp"
#include "sparse/spgemm.hpp"

namespace nbwp::sparse {

/// Structural hash of a CSR operand (shape, row pointers, column indices
/// — not values).  Two matrices with equal hashes share a sparsity
/// pattern for planning purposes.
uint64_t csr_pattern_hash(const CsrMatrix& m);

/// Captured symbolic output of C = A x B for one sparsity pattern.
struct SpgemmPlan {
  Index rows = 0;  ///< rows of A (= rows of C)
  Index cols = 0;  ///< cols of B (= cols of C)
  uint64_t a_nnz = 0, b_nnz = 0;
  uint64_t a_pattern_hash = 0, b_pattern_hash = 0;
  uint64_t flops = 0;  ///< total multiplies of the product

  std::vector<uint64_t> row_ptr;      ///< C's row pointers (rows + 1)
  std::vector<Index> col_idx;         ///< C's column pattern (sorted per row)
  std::vector<uint8_t> row_use_hash;  ///< numeric accumulator route per row
  std::vector<uint64_t> load_prefix;  ///< flops prefix sum (rows + 1)

  uint64_t nnz() const { return row_ptr.empty() ? 0 : row_ptr.back(); }

  /// Full structural validation (hashes both operands, O(nnz)).  The
  /// numeric entry points below only re-check shapes and nnz per call;
  /// run this once when the operands' provenance is unknown.
  bool matches(const CsrMatrix& a, const CsrMatrix& b) const;
};

/// Build the plan in one work-balanced pool pass over A x B that counts
/// each row and keeps its sorted columns, then one pass that places them
/// in col_idx.  Costs one symbolic pass plus a copy of C's pattern, less
/// than the full product it saves on every later multiply.
/// The columns are staged in an anonymous MAP_NORESERVE mapping of
/// sum_i min(flops_i, cols) indices, unmapped before return.  Only about
/// nnz(C) of it is touched, but all of it counts against RLIMIT_AS and,
/// under strict overcommit (vm.overcommit_memory=2), the commit limit:
/// a product whose flops far exceed nnz(C) can throw std::bad_alloc
/// where a buffer of nnz(C) would fit.  The mapping is not pooled, so
/// spgemm_workspace_stats() and the arena gauge never see it.
/// `load_prefix`, when given, is the caller's flops prefix
/// (prefix_sums(load_vector(a, row_nnz_vector(b))), rows + 1 entries
/// from 0).  It sizes that mapping, so a row whose flops disagree with it
/// throws Error before writing anything.  Empty, it is computed here.
SpgemmPlan spgemm_plan(const CsrMatrix& a, const CsrMatrix& b,
                       ThreadPool& pool,
                       const SpgemmParallelOptions& options = {},
                       std::span<const uint64_t> load_prefix = {});

/// Numeric-only parallel product over a previously built plan: no
/// symbolic pass, rows scheduled by the plan's flops prefix, accumulator
/// routes replayed from the plan.  Bitwise identical to
/// spgemm_parallel(a, b, pool) for operands matching the plan's pattern.
/// Each row's accumulated nnz is checked against the plan before its slot
/// is written, so a stale plan fails loudly instead of corrupting memory.
CsrMatrix spgemm_numeric(const CsrMatrix& a, const CsrMatrix& b,
                         const SpgemmPlan& plan, ThreadPool& pool,
                         SpgemmCounters* counters = nullptr,
                         const SpgemmParallelOptions& options = {});

/// The same single pass, with the rows split into K device ranges by
/// `bounds` (K + 1 monotone values, 0 to rows; empty ranges allowed):
/// every worker block is clipped at the range boundaries, so range r's
/// counters are added to `range_counters[r]` (K entries).  C is one CSR
/// whatever the split — the ranges only attribute the work.
CsrMatrix spgemm_numeric(const CsrMatrix& a, const CsrMatrix& b,
                         const SpgemmPlan& plan, ThreadPool& pool,
                         std::span<const Index> bounds,
                         std::span<SpgemmCounters> range_counters,
                         const SpgemmParallelOptions& options = {});

}  // namespace nbwp::sparse
