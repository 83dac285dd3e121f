// Virtual-time cost formulas for Algorithm 2 (split SpGEMM) and the SpGEMM
// kernels shared with Algorithm 3.
//
// The structural inputs are exact functions of the split (rows, A-entries,
// multiply count, warp imbalance), so HeteroSpmm::run and the analytic
// sweep agree to the bit.  Output (C) traffic is modeled proportionally to
// the multiply count: the compression factor of the result is treated as a
// constant so that virtual time never depends on data the analytic sweep
// cannot see.
#pragma once

#include <cstdint>
#include <vector>

#include "hetsim/platform.hpp"

namespace nbwp::hetalg {

/// Work summary of one SpGEMM row-range on one device.
struct SpgemmWork {
  uint64_t rows = 0;        ///< rows of A processed
  uint64_t a_nnz = 0;       ///< entries of A read
  uint64_t multiplies = 0;  ///< intermediate products (work volume)
  double inflation = 1.0;   ///< warp imbalance over the processed rows
};

/// CPU row-row SpGEMM (SPA accumulator), work portion only.
double spgemm_cpu_work_ns(const hetsim::Platform& p, const SpgemmWork& w);
/// GPU row-per-thread hash SpGEMM, work portion only.  The device overload
/// prices the same kernel on any offload device (primary GPU or an
/// hetsim::AccelDevice); the Platform overload forwards to the primary.
double spgemm_gpu_work_ns(const hetsim::GpuDevice& gpu, const SpgemmWork& w);
double spgemm_gpu_work_ns(const hetsim::Platform& p, const SpgemmWork& w);

/// Structural summary of Algorithm 2 over contiguous row ranges: index 0
/// is the CPU range, 1 the primary GPU, 2.. the platform's accelerators
/// (a threshold split is the two-range case).  The byte vectors are zero
/// at index 0 (the CPU reads A/B in place).
struct SpmmKwayStructure {
  std::vector<SpgemmWork> work;
  std::vector<double> a_dev_bytes;  ///< CSR bytes of each device's A slice
  std::vector<double> b_dev_bytes;  ///< B shipment per offload device
};

/// Per-device phase-II times of a row-range decomposition.  The marginal
/// costs exclude only the split-independent constants (launches, the B
/// shipment, per-transfer latencies); |marginal_ns[0] - marginal_ns[1]| is
/// the two-way identification objective.
struct SpmmKwayTimes {
  double phase1_ns = 0;
  std::vector<double> device_ns;    ///< work + transfers + overheads
  std::vector<double> marginal_ns;  ///< work + split-dependent transfers
                                    ///< (the cost-objective inputs)
  double stitch_ns = 0;

  double total_ns() const;
};

SpmmKwayTimes spmm_kway_times(const hetsim::Platform& platform,
                              const SpmmKwayStructure& s);

/// Modeled bytes of the C rows produced from `multiplies` intermediate
/// products (constant compression factor; see header comment).
double c_bytes_estimate(uint64_t multiplies);

}  // namespace nbwp::hetalg
