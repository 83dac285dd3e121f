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
// Row bounds are the one thing Algorithm 2 prices or executes: a threshold
// r is the two-range decomposition {0, split_row(r), rows} and a K-way
// descriptor its K-range chain (kway_row_boundaries).  Both become one
// SpmmKwayStructure, priced by spmm_kway_times and executed by one
// executor — every device's rows in one host pool pass into a single C,
// since virtual time comes from the structure and not from host order.
// The per-row work arrays are computed once per input, so exhaustive
// sweeps cost O(rows/32) per candidate.
#pragma once

#include <array>
#include <memory>
#include <optional>
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
  /// B defaults to A (the paper computes A x A for compatibility); the
  /// one-matrix form holds A once and b() returns it.
  HeteroSpmm(sparse::CsrMatrix a, sparse::CsrMatrix b,
             const hetsim::Platform& platform);
  HeteroSpmm(sparse::CsrMatrix a, const hetsim::Platform& platform);

  const sparse::CsrMatrix& a() const { return a_; }
  const sparse::CsrMatrix& b() const { return b_ ? *b_ : a_; }
  const hetsim::Platform& platform() const { return *platform_; }

  static constexpr double threshold_lo() { return 0.0; }
  static constexpr double threshold_hi() { return 100.0; }

  /// Total work volume L = ||L_AB||_1 (multiply count of the product).
  uint64_t total_work() const { return work_prefix_.back(); }

  /// Split row for a CPU share of r%.
  sparse::Index split_row(double r_cpu_pct) const;

  /// Execute Algorithm 2 at CPU share r: run_kway's executor over the
  /// bounds {0, split_row(r), rows}.  `c_out`, when non-null, receives C.
  hetsim::RunReport run(double r_cpu_pct,
                        sparse::CsrMatrix* c_out = nullptr) const;

  /// Analytic makespan (equals run(r).total_ns()).
  double time_ns(double r_cpu_pct) const;

  /// Analytic identification objective |marginal_ns[0] - marginal_ns[1]|:
  /// CPU work against GPU work plus its share-dependent transfers.
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

  /// Two-range structure of CPU share r (rows [0, split) on the CPU).
  SpmmKwayStructure structure_at(double r_cpu_pct) const;

  // --- K-way descriptor interface (core/kway.hpp) -------------------------
  // Device 0 is the CPU, 1 the primary GPU, 2.. the platform accelerators.
  // Every function prices or executes kway_row_boundaries(d) through the
  // same structure builder and executor as the threshold calls, so a
  // descriptor with the threshold's split row gives the identical time
  // and a bitwise-identical C.

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

  /// Execute Algorithm 2 under a K-way descriptor: the executor over
  /// kway_row_boundaries(d).
  ///
  /// The executor gates each non-empty offload range through the fault
  /// injector ("spmm.kway.d<i>", hetalg/gpu_guard.hpp) on the calling
  /// thread, in device order, so a seeded fault plan decides identically
  /// every run; a rerouted range is re-priced at CPU cost under
  /// "phase2.reroute".  All ranges are then multiplied by one numeric pool
  /// pass over a symbolic SpgemmPlan for A x B, built on the first run
  /// from the cached flops prefix and cached on the instance (the bounds
  /// only move range boundaries, not C's pattern).  Phases: "phase1",
  /// "phase2.cpu", "phase2.gpu", "phase2.makespan", "phase2.reroute" (when
  /// a range was rerouted), "stitch".  Counters: "devices", "gpu_rerouted"
  /// (rerouted offload ranges), "plan_built" (0/1), "c_nnz", "split_row"
  /// (the CPU range's end) and "work_total".
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

  /// {0, split_row(r), rows}: the CPU range, then the GPU range.
  std::array<sparse::Index, 3> threshold_bounds(double r_cpu_pct) const;

  /// Work of rows [first, last) on device `device` (0 = CPU, whose
  /// kernel has no warp inflation).
  SpgemmWork range_work(sparse::Index first, sparse::Index last,
                        size_t device) const;

  /// Structure of the contiguous ranges [bounds[i], bounds[i+1]).
  SpmmKwayStructure structure_for(
      std::span<const sparse::Index> bounds) const;

  /// Gate, multiply and report the ranges (see run_kway).
  hetsim::RunReport run_ranges(std::span<const sparse::Index> bounds,
                               sparse::CsrMatrix* c_out) const;

  /// C = A x B in one numeric pass over the cached plan (built on first
  /// use), split at the device row `bounds` so each range's executed
  /// multiplies are checked against the load vector.
  sparse::CsrMatrix multiply_ranges(
      std::span<const sparse::Index> bounds) const;

  sparse::CsrMatrix a_;
  std::optional<sparse::CsrMatrix> b_;  ///< empty when B is A
  const hetsim::Platform* platform_;
  std::vector<uint64_t> row_work_;     ///< L_AB
  std::vector<uint64_t> work_prefix_;  ///< prefix sums of row_work_
  std::vector<uint64_t> a_nnz_prefix_;
  /// Lazy symbolic plan for A x B; shared so copies keep the cache (the
  /// plan is immutable once built and the operands never change).
  mutable std::shared_ptr<const sparse::SpgemmPlan> plan_;
};

}  // namespace nbwp::hetalg
