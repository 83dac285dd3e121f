#include "hetalg/spmm_cost.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace nbwp::hetalg {

namespace {
// --- CPU Gustavson with sparse accumulator -------------------------------
// Per multiply: the B-row entry is streamed (12B: 4B column + 8B value) and
// the accumulator slot is a random touch; for matrices wider than L2 most
// touches miss, which is what the paper's modest CPU SpGEMM saw.
constexpr double kCpuStreamPerMultiply = 12.0;
constexpr double kCpuRandomPerMultiply = 12.0;
constexpr double kCpuOpsPerMultiply = 2.0;
constexpr double kCpuRandomPerANnz = 8.0;  // B row_ptr lookup
constexpr double kCpuBarriers = 2.0;

// --- GPU row-per-thread hash SpGEMM --------------------------------------
// Per multiply: B entry gather (semi-coalesced) + hash-table probe/insert.
// The kernel bins rows by expected work before launching (standard
// practice since CUSP/bhSPARSE), which mitigates — but does not remove —
// warp load imbalance: the effective inflation grows as the square root
// of the raw row-work imbalance.
constexpr double kGpuStreamPerMultiply = 8.0;
constexpr double kGpuRandomPerMultiply = 12.0;
constexpr double kGpuOpsPerMultiply = 4.0;
constexpr double kGpuRandomPerANnz = 8.0;
constexpr double kGpuLaunches = 4.0;
constexpr double kGpuBinningExponent = 0.5;

// --- Phase I (load vector on the GPU) -------------------------------------
constexpr double kP1RandomPerANnz = 8.0;   // V_B gather
constexpr double kP1StreamPerANnz = 4.0;
constexpr double kP1Launches = 3.0;        // L_AB, scan, split search

// --- Result traffic -------------------------------------------------------
// C entries per multiply (compression factor) times 12B per entry.
constexpr double kCompression = 0.5;
constexpr double kBytesPerCEntry = 12.0;

// --- Phase III stitch ------------------------------------------------------
constexpr double kStitchStreamPerCByte = 2.0;  // read + write once
}  // namespace

double c_bytes_estimate(uint64_t multiplies) {
  return kCompression * kBytesPerCEntry * static_cast<double>(multiplies);
}

double spgemm_cpu_work_ns(const hetsim::Platform& p, const SpgemmWork& w) {
  if (w.rows == 0 || w.multiplies == 0) return 0.0;
  hetsim::WorkProfile prof;
  const auto mult = static_cast<double>(w.multiplies);
  prof.bytes_stream = kCpuStreamPerMultiply * mult +
                      c_bytes_estimate(w.multiplies);
  prof.bytes_random = kCpuRandomPerMultiply * mult +
                      kCpuRandomPerANnz * static_cast<double>(w.a_nnz);
  prof.ops = kCpuOpsPerMultiply * mult;
  prof.parallel_items = static_cast<double>(
      std::min<uint64_t>(w.rows, static_cast<uint64_t>(p.cpu_threads())));
  prof.steps = 0;
  return p.cpu().time_ns(prof);
}

double spgemm_gpu_work_ns(const hetsim::GpuDevice& gpu,
                          const SpgemmWork& w) {
  if (w.rows == 0 || w.multiplies == 0) return 0.0;
  hetsim::WorkProfile prof;
  const auto mult = static_cast<double>(w.multiplies);
  prof.bytes_stream = kGpuStreamPerMultiply * mult +
                      c_bytes_estimate(w.multiplies);
  prof.bytes_random = kGpuRandomPerMultiply * mult +
                      kGpuRandomPerANnz * static_cast<double>(w.a_nnz);
  prof.ops = kGpuOpsPerMultiply * mult;
  // Hash-SpGEMM kernels launch a warp (or more) per row and bin rows by
  // work, so even a sqrt(n)-row sample fills the SMX units; the kernel is
  // not occupancy-limited by the row count.
  prof.parallel_items = gpu.spec().full_occupancy_items;
  prof.simd_inflation =
      std::pow(std::max(1.0, w.inflation), kGpuBinningExponent);
  prof.steps = 0;  // launches charged as overhead by the caller
  return gpu.time_ns(prof);
}

double spgemm_gpu_work_ns(const hetsim::Platform& p, const SpgemmWork& w) {
  return spgemm_gpu_work_ns(p.gpu(), w);
}

double SpmmKwayTimes::total_ns() const {
  double phase2 = 0;
  for (double d : device_ns) phase2 = d > phase2 ? d : phase2;
  return phase1_ns + phase2 + stitch_ns;
}

SpmmKwayTimes spmm_kway_times(const hetsim::Platform& platform,
                              const SpmmKwayStructure& s) {
  using hetsim::WorkProfile;
  const size_t k = s.work.size();
  NBWP_REQUIRE(k >= 2 && k == s.a_dev_bytes.size() &&
                   k == s.b_dev_bytes.size(),
               "malformed k-way structure");
  NBWP_REQUIRE(k <= platform.device_count(),
               "k-way structure has more devices than the platform");
  SpmmKwayTimes t;
  t.device_ns.assign(k, 0.0);
  t.marginal_ns.assign(k, 0.0);

  uint64_t rows_total = 0, a_nnz_total = 0;
  for (const SpgemmWork& w : s.work) {
    rows_total += w.rows;
    a_nnz_total += w.a_nnz;
  }

  // Phase I on the primary GPU: load vector, prefix scan, split search
  // (it depends only on totals).
  {
    const auto a_nnz = static_cast<double>(a_nnz_total);
    WorkProfile p;
    p.bytes_random = kP1RandomPerANnz * a_nnz;
    p.bytes_stream = kP1StreamPerANnz * a_nnz +
                     8.0 * static_cast<double>(rows_total);
    p.ops = 2.0 * a_nnz;
    p.parallel_items = static_cast<double>(rows_total);
    p.steps = kP1Launches;
    t.phase1_ns = platform.gpu().time_ns(p);
  }

  t.marginal_ns[0] = t.device_ns[0] = spgemm_cpu_work_ns(platform, s.work[0]);
  if (s.work[0].rows > 0) {
    WorkProfile barriers;
    barriers.steps = kCpuBarriers;
    t.device_ns[0] += platform.cpu().time_ns(barriers);
  }

  uint64_t offload_multiplies = 0;
  bool any_offload = false;
  for (size_t i = 1; i < k; ++i) {
    const hetsim::GpuDevice& dev =
        i == 1 ? platform.gpu() : platform.accel(i - 2).device;
    const hetsim::PcieLink& link =
        i == 1 ? platform.link() : platform.accel(i - 2).link;
    const double work = spgemm_gpu_work_ns(dev, s.work[i]);
    double transfer_var = 0, overhead = 0;
    if (s.work[i].rows > 0) {
      WorkProfile launches;
      launches.steps = kGpuLaunches;
      transfer_var = (s.a_dev_bytes[i] +
                      c_bytes_estimate(s.work[i].multiplies)) /
                     link.spec().bandwidth_bps * 1e9;
      overhead = dev.time_ns(launches) + link.transfer_ns(s.b_dev_bytes[i]) +
                 link.spec().latency_ns;
      offload_multiplies += s.work[i].multiplies;
      any_offload = true;
    }
    t.marginal_ns[i] = work + transfer_var;
    t.device_ns[i] = work + transfer_var + overhead;
  }

  {
    WorkProfile p;
    p.bytes_stream =
        kStitchStreamPerCByte * c_bytes_estimate(offload_multiplies);
    p.parallel_items = platform.cpu_threads();
    p.steps = any_offload ? 1.0 : 0.0;
    t.stitch_ns = platform.cpu().time_ns(p);
  }
  return t;
}

}  // namespace nbwp::hetalg
