// Algorithm 2: heterogeneous sparse matrix-matrix multiplication
// (Section IV, after Matam et al. [22]).
//
//   Phase I   compute the load vector L_AB = A x V_B on the GPU, find the
//             split row i so rows [0, i) hold r% of the total work volume.
//   Phase II  C1 = A[0..i) x B on the CPU overlapped with
//             C2 = A[i..n) x B on the GPU.
//   Phase III transfer C2 and stitch C = [C1; C2].
//
// The split percentage r is the *CPU share of the work volume* in percent.
//
// `run` executes the product — every device's rows in one host pool pass
// into a single C, since virtual time comes from the structure and not
// from host order; `time_ns` evaluates the identical cost formulas from
// cached per-row work arrays (computed once per input), so exhaustive
// sweeps cost O(rows/32) per candidate.
#pragma once

#include <memory>
#include <span>
#include <utility>

#include "core/partition_descriptor.hpp"
#include "hetalg/spmm_cost.hpp"
#include "hetsim/platform.hpp"
#include "sparse/csr_matrix.hpp"
#include "sparse/spgemm_plan.hpp"
#include "util/rng.hpp"

namespace nbwp::hetalg {

class HeteroSpmm {
 public:
  /// B defaults to A (the paper computes A x A for compatibility).
  HeteroSpmm(sparse::CsrMatrix a, sparse::CsrMatrix b,
             const hetsim::Platform& platform);
  HeteroSpmm(sparse::CsrMatrix a, const hetsim::Platform& platform);

  const sparse::CsrMatrix& a() const { return a_; }
  const sparse::CsrMatrix& b() const { return b_; }
  const hetsim::Platform& platform() const { return *platform_; }

  static constexpr double threshold_lo() { return 0.0; }
  static constexpr double threshold_hi() { return 100.0; }

  /// Total work volume L = ||L_AB||_1 (multiply count of the product).
  uint64_t total_work() const { return work_prefix_.back(); }

  /// Split row for a CPU share of r%.
  sparse::Index split_row(double r_cpu_pct) const;

  /// Execute Algorithm 2.  Counters: "c_nnz", "cpu_work_ns",
  /// "gpu_work_ns", "split_row"; phases: "phase1", "phase2.cpu",
  /// "phase2.gpu", "stitch".  The product C itself is validated in tests.
  ///
  /// The first run builds a symbolic SpgemmPlan for A x B (from the
  /// cached flops prefix) and caches it on the instance; every run (any
  /// threshold — the split only moves the row boundary, not the pattern)
  /// then executes one numeric-only pass over that plan on the thread
  /// pool, writing both sides into a single C ("plan_built" counter
  /// reports 0/1 per run).  Threshold sweeps price splits with time_ns
  /// and never run(), so a plan usually serves one run: its build is
  /// first-run cost, kept to one symbolic walk.
  ///
  /// The GPU product ("spmm.c2") is gated through the platform's fault
  /// injector (hetalg/gpu_guard.hpp) on the calling thread before the
  /// pass; a persistent fault reroutes it to the CPU ("phase2.reroute"
  /// phase, "gpu_rerouted" counter) with an identical product.  `c_out`,
  /// when non-null, receives C.
  hetsim::RunReport run(double r_cpu_pct,
                        sparse::CsrMatrix* c_out = nullptr) const;

  /// Analytic makespan (equals run(r).total_ns()).
  double time_ns(double r_cpu_pct) const;

  /// Analytic identification objective |cpu_work - gpu_work|.
  double balance_ns(double r_cpu_pct) const;

  /// Work-portion device times if ALL rows ran on one device — the inputs
  /// of the race-based coarse estimation (Section IV-A.b): both devices
  /// multiply the whole (sample) input in parallel; the throughput ratio
  /// at the first finish yields the coarse split.
  std::pair<double, double> device_times_all() const;  // {cpu_ns, gpu_ns}

  /// Sample step (Section IV-A.a): uniformly random submatrix with
  /// round(frac * n) rows and columns; the paper's choice is frac = 1/4.
  /// Fig. 6 sweeps frac in [1/10, 4/10].  B is sampled on the matching
  /// column set so the product stays well defined.
  HeteroSpmm make_sample(double frac, Rng& rng) const;

  /// Predetermined (non-random) contiguous sample anchored at a corner
  /// fraction `anchor` in [0,1] — the Fig. 7 ablation.
  HeteroSpmm make_sample_predetermined(double frac, double anchor) const;

  /// Virtual cost of drawing a sample of that size (CPU).
  double sampling_cost_ns(double frac) const;

  sparse::Index sample_rows(double frac) const;

  SpmmStructure structure_at(double r_cpu_pct) const;

  // --- K-way descriptor interface (core/kway.hpp) -------------------------
  // Device 0 is the CPU, 1 the primary GPU, 2.. the platform accelerators.
  // At K = 2 every function reproduces the scalar path exactly:
  // kway_time_ns(two_way(r/100)) == time_ns(r) and run_kway produces a
  // bitwise-identical C (the numeric kernel is deterministic per row and
  // the split only moves range boundaries).

  /// Row boundaries of the descriptor's contiguous ranges: K+1 values with
  /// boundaries[0] == 0 and boundaries[K] == rows; device i owns rows
  /// [boundaries[i], boundaries[i+1]).  Monotone by construction.
  std::vector<sparse::Index> kway_row_boundaries(
      const core::PartitionDescriptor& d) const;

  SpmmKwayStructure kway_structure(const core::PartitionDescriptor& d) const;

  /// Per-device marginal costs (work + share-dependent transfers) — the
  /// cost-objective inputs of the K-way identify search.
  std::vector<double> kway_marginal_work_ns(
      const core::PartitionDescriptor& d) const;

  /// Analytic K-way makespan (equals run_kway(d).total_ns()).
  double kway_time_ns(const core::PartitionDescriptor& d) const;

  /// Execute Algorithm 2 under a K-way descriptor.  Each non-empty
  /// offload range is gated through the fault injector ("spmm.kway.d<i>")
  /// on the calling thread, in device order; rerouted ranges are
  /// re-priced at CPU cost under "phase2.reroute".  All ranges are then
  /// multiplied by the same single pool pass as run().  Counters add
  /// "devices" and "gpu_rerouted" (count of rerouted offload ranges).
  hetsim::RunReport run_kway(const core::PartitionDescriptor& d,
                             sparse::CsrMatrix* c_out = nullptr) const;

  /// Device cost of processing rows [first, last) in isolation — work plus
  /// the range-dependent transfers for the GPU.  Used by the dynamic-
  /// scheduling comparators (core/dynamic_baselines.hpp), which need costs
  /// for arbitrary chunks rather than prefix splits.
  double range_cost_cpu_ns(sparse::Index first, sparse::Index last) const;
  double range_cost_gpu_ns(sparse::Index first, sparse::Index last) const;

 private:
  void build_profiles();

  /// C = A x B in one numeric pass over the cached plan (built on first
  /// use), split at the device row `bounds` so each range's executed
  /// multiplies are checked against the load vector.
  sparse::CsrMatrix multiply_ranges(
      std::span<const sparse::Index> bounds) const;

  sparse::CsrMatrix a_;
  sparse::CsrMatrix b_;
  const hetsim::Platform* platform_;
  std::vector<uint64_t> row_work_;     ///< L_AB
  std::vector<uint64_t> work_prefix_;  ///< prefix sums of row_work_
  std::vector<uint64_t> a_nnz_prefix_;
  /// Lazy symbolic plan for A x B; shared so copies keep the cache (the
  /// plan is immutable once built and the operands never change).
  mutable std::shared_ptr<const sparse::SpgemmPlan> plan_;
};

}  // namespace nbwp::hetalg
