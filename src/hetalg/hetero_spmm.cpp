#include "hetalg/hetero_spmm.hpp"

#include <algorithm>
#include <cmath>

#include "hetalg/gpu_guard.hpp"
#include "hetsim/work_profile.hpp"
#include "parallel/thread_pool.hpp"
#include "sparse/load_vector.hpp"
#include "sparse/sampling.hpp"
#include "sparse/spgemm.hpp"
#include "util/error.hpp"

namespace nbwp::hetalg {

using sparse::CsrMatrix;
using sparse::Index;

HeteroSpmm::HeteroSpmm(CsrMatrix a, CsrMatrix b,
                       const hetsim::Platform& platform)
    : a_(std::move(a)), b_(std::move(b)), platform_(&platform) {
  NBWP_REQUIRE(a_.cols() == b_.rows(), "A and B are not compatible");
  build_profiles();
}

HeteroSpmm::HeteroSpmm(CsrMatrix a, const hetsim::Platform& platform)
    : a_(a), b_(std::move(a)), platform_(&platform) {
  build_profiles();
}

void HeteroSpmm::build_profiles() {
  const auto v_b = sparse::row_nnz_vector(b_);
  row_work_ = sparse::load_vector(a_, v_b);
  work_prefix_ = sparse::prefix_sums(row_work_);
  std::vector<uint64_t> a_nnz(a_.rows());
  for (Index r = 0; r < a_.rows(); ++r) a_nnz[r] = a_.row_nnz(r);
  a_nnz_prefix_ = sparse::prefix_sums(a_nnz);
}

Index HeteroSpmm::split_row(double r_cpu_pct) const {
  NBWP_REQUIRE(r_cpu_pct >= 0.0 && r_cpu_pct <= 100.0,
               "split percentage out of range");
  return sparse::split_row_for_share(work_prefix_, r_cpu_pct);
}

SpmmStructure HeteroSpmm::structure_at(double r_cpu_pct) const {
  const Index split = split_row(r_cpu_pct);
  const Index n = a_.rows();
  SpmmStructure s;
  s.cpu.rows = split;
  s.cpu.a_nnz = a_nnz_prefix_[split];
  s.cpu.multiplies = work_prefix_[split];
  s.cpu.inflation = 1.0;
  s.gpu.rows = n - split;
  s.gpu.a_nnz = a_nnz_prefix_[n] - a_nnz_prefix_[split];
  s.gpu.multiplies = work_prefix_[n] - work_prefix_[split];
  s.gpu.inflation = hetsim::simd_inflation_range(
      row_work_, split, n, platform_->gpu().spec().warp_size);
  // GPU slice of A: proportional share of the CSR arrays.
  s.a_gpu_bytes = static_cast<double>(s.gpu.a_nnz) * 12.0 +
                  static_cast<double>(s.gpu.rows) * 8.0;
  s.b_bytes = s.gpu.rows > 0 ? b_.bytes() : 0.0;
  return s;
}

double HeteroSpmm::time_ns(double r_cpu_pct) const {
  return spmm_times(*platform_, structure_at(r_cpu_pct)).total_ns();
}

double HeteroSpmm::balance_ns(double r_cpu_pct) const {
  return spmm_times(*platform_, structure_at(r_cpu_pct)).balance_ns();
}

std::pair<double, double> HeteroSpmm::device_times_all() const {
  const Index n = a_.rows();
  SpgemmWork all;
  all.rows = n;
  all.a_nnz = a_nnz_prefix_[n];
  all.multiplies = work_prefix_[n];
  all.inflation = 1.0;
  const double cpu = spgemm_cpu_work_ns(*platform_, all);
  all.inflation = hetsim::simd_inflation_range(
      row_work_, 0, n, platform_->gpu().spec().warp_size);
  const double gpu = spgemm_gpu_work_ns(*platform_, all);
  return {cpu, gpu};
}

CsrMatrix HeteroSpmm::multiply_ranges(std::span<const Index> bounds) const {
  // The symbolic pass runs once per instance: every split re-multiplies
  // the same pattern, so the plan built on the first run serves all later
  // ones numeric-only.
  if (plan_ == nullptr) {
    plan_ = std::make_shared<const sparse::SpgemmPlan>(
        sparse::spgemm_plan(a_, b_, ThreadPool::global(), {}, work_prefix_));
  }
  std::vector<sparse::SpgemmCounters> counters(bounds.size() - 1);
  CsrMatrix c = sparse::spgemm_numeric(a_, b_, *plan_, ThreadPool::global(),
                                       bounds, counters);
  for (size_t i = 0; i < counters.size(); ++i) {
    NBWP_REQUIRE(counters[i].multiplies ==
                     work_prefix_[bounds[i + 1]] - work_prefix_[bounds[i]],
                 "executed work disagrees with the load vector");
  }
  return c;
}

hetsim::RunReport HeteroSpmm::run(double r_cpu_pct,
                                  CsrMatrix* c_out) const {
  const Index split = split_row(r_cpu_pct);
  const Index n = a_.rows();
  const SpmmStructure s = structure_at(r_cpu_pct);
  const SpmmTimes times = spmm_times(*platform_, s);

  // The GPU half goes through the fault gate first; a persistent fault
  // reroutes it to the CPU.  Either way one numeric pass computes both
  // halves — only the virtual-time accounting differs per device.
  const bool c2_on_gpu =
      split == n || gpu_gate(*platform_, "spmm.c2", times.gpu_ns());
  const Index bounds[] = {0, split, n};
  const bool plan_built = plan_ == nullptr;
  CsrMatrix c = multiply_ranges(bounds);

  hetsim::RunReport report;
  report.add_phase("phase1", times.phase1_ns);
  if (c2_on_gpu) {
    report.add_overlapped_phase("phase2", times.cpu_ns(), times.gpu_ns());
  } else {
    report.add_overlapped_phase("phase2", times.cpu_ns(), 0.0);
    report.add_phase("phase2.reroute", spgemm_cpu_work_ns(*platform_, s.gpu));
  }
  report.set_counter("gpu_rerouted", c2_on_gpu ? 0.0 : 1.0);
  report.set_counter("plan_built", plan_built ? 1.0 : 0.0);
  report.add_phase("stitch", times.stitch_ns);
  report.set_counter("c_nnz", static_cast<double>(c.nnz()));
  report.set_counter("split_row", split);
  report.set_counter("work_total", static_cast<double>(total_work()));
  report.set_counter("cpu_work_ns", times.cpu_work_ns);
  report.set_counter("gpu_work_ns", times.gpu_work_ns);
  if (c_out) *c_out = std::move(c);
  return report;
}

std::vector<Index> HeteroSpmm::kway_row_boundaries(
    const core::PartitionDescriptor& d) const {
  const size_t k = d.devices();
  NBWP_REQUIRE(k >= 2, "descriptor needs at least two devices");
  NBWP_REQUIRE(k <= platform_->device_count(),
               "descriptor has more devices than the platform");
  std::vector<Index> b(k + 1, 0);
  const std::vector<double> cum = d.cumulative_pct();
  for (size_t j = 0; j < cum.size(); ++j)
    b[j + 1] = std::max(b[j], split_row(cum[j]));
  b[k] = a_.rows();
  NBWP_REQUIRE(b[k - 1] <= b[k], "descriptor boundaries not monotone");
  return b;
}

SpmmKwayStructure HeteroSpmm::kway_structure(
    const core::PartitionDescriptor& d) const {
  const std::vector<Index> b = kway_row_boundaries(d);
  const size_t k = d.devices();
  SpmmKwayStructure s;
  s.work.resize(k);
  s.a_dev_bytes.assign(k, 0.0);
  s.b_dev_bytes.assign(k, 0.0);
  for (size_t i = 0; i < k; ++i) {
    const Index first = b[i], last = b[i + 1];
    SpgemmWork& w = s.work[i];
    w.rows = last - first;
    w.a_nnz = a_nnz_prefix_[last] - a_nnz_prefix_[first];
    w.multiplies = work_prefix_[last] - work_prefix_[first];
    if (i == 0) {
      w.inflation = 1.0;
      continue;  // the CPU reads A and B in place
    }
    const hetsim::GpuDevice& dev =
        i == 1 ? platform_->gpu() : platform_->accel(i - 2).device;
    w.inflation = hetsim::simd_inflation_range(row_work_, first, last,
                                               dev.spec().warp_size);
    s.a_dev_bytes[i] = static_cast<double>(w.a_nnz) * 12.0 +
                       static_cast<double>(w.rows) * 8.0;
    s.b_dev_bytes[i] = w.rows > 0 ? b_.bytes() : 0.0;
  }
  return s;
}

std::vector<double> HeteroSpmm::kway_marginal_work_ns(
    const core::PartitionDescriptor& d) const {
  return spmm_kway_times(*platform_, kway_structure(d)).marginal_ns;
}

double HeteroSpmm::kway_time_ns(const core::PartitionDescriptor& d) const {
  return spmm_kway_times(*platform_, kway_structure(d)).total_ns();
}

hetsim::RunReport HeteroSpmm::run_kway(const core::PartitionDescriptor& d,
                                       CsrMatrix* c_out) const {
  const std::vector<Index> b = kway_row_boundaries(d);
  const size_t k = d.devices();
  const SpmmKwayStructure s = kway_structure(d);
  const SpmmKwayTimes times = spmm_kway_times(*platform_, s);

  // Gate every non-empty offload range on this thread, in device order,
  // so one dead device reroutes only its own rows and a seeded fault plan
  // decides identically every run; then one pool pass computes all ranges.
  double on_device_ns = 0.0;  // slowest offload range still on its device
  double reroute_ns = 0.0;    // rerouted ranges re-priced at CPU cost
  int rerouted = 0;
  for (size_t i = 1; i < k; ++i) {
    if (b[i] == b[i + 1]) continue;
    const std::string what = strfmt("spmm.kway.d%zu", i);
    if (gpu_gate(*platform_, what.c_str(), times.device_ns[i])) {
      on_device_ns = std::max(on_device_ns, times.device_ns[i]);
    } else {
      ++rerouted;
      reroute_ns += spgemm_cpu_work_ns(*platform_, s.work[i]);
    }
  }
  const bool plan_built = plan_ == nullptr;
  CsrMatrix c = multiply_ranges(b);

  hetsim::RunReport report;
  report.add_phase("phase1", times.phase1_ns);
  report.add_overlapped_phase("phase2", times.device_ns[0], on_device_ns);
  if (rerouted > 0) report.add_phase("phase2.reroute", reroute_ns);
  report.add_phase("stitch", times.stitch_ns);
  report.set_counter("devices", static_cast<double>(k));
  report.set_counter("gpu_rerouted", static_cast<double>(rerouted));
  report.set_counter("plan_built", plan_built ? 1.0 : 0.0);
  report.set_counter("c_nnz", static_cast<double>(c.nnz()));
  report.set_counter("split_row", static_cast<double>(b[1]));
  report.set_counter("work_total", static_cast<double>(total_work()));
  if (c_out) *c_out = std::move(c);
  return report;
}

double HeteroSpmm::range_cost_cpu_ns(Index first, Index last) const {
  NBWP_REQUIRE(first <= last && last <= a_.rows(), "range out of bounds");
  SpgemmWork w;
  w.rows = last - first;
  w.a_nnz = a_nnz_prefix_[last] - a_nnz_prefix_[first];
  w.multiplies = work_prefix_[last] - work_prefix_[first];
  return spgemm_cpu_work_ns(*platform_, w);
}

double HeteroSpmm::range_cost_gpu_ns(Index first, Index last) const {
  NBWP_REQUIRE(first <= last && last <= a_.rows(), "range out of bounds");
  SpgemmWork w;
  w.rows = last - first;
  w.a_nnz = a_nnz_prefix_[last] - a_nnz_prefix_[first];
  w.multiplies = work_prefix_[last] - work_prefix_[first];
  w.inflation = hetsim::simd_inflation_range(
      row_work_, first, last, platform_->gpu().spec().warp_size);
  const double a_bytes = static_cast<double>(w.a_nnz) * 12.0 +
                         static_cast<double>(w.rows) * 8.0;
  const double transfer =
      (a_bytes + c_bytes_estimate(w.multiplies)) /
      platform_->link().spec().bandwidth_bps * 1e9;
  return spgemm_gpu_work_ns(*platform_, w) + transfer;
}

Index HeteroSpmm::sample_rows(double frac) const {
  NBWP_REQUIRE(frac > 0.0 && frac <= 1.0, "sample fraction out of range");
  const auto n = static_cast<int64_t>(a_.rows());
  if (n == 0) return 0;
  const int64_t k = std::llround(frac * static_cast<double>(n));
  return static_cast<Index>(
      std::clamp<int64_t>(k, std::min<int64_t>(2, n), n));
}

namespace {
Index sample_cols_for(double frac, Index cols) {
  const auto n = static_cast<int64_t>(cols);
  if (n == 0) return 0;
  const int64_t k = std::llround(frac * static_cast<double>(n));
  return static_cast<Index>(
      std::clamp<int64_t>(k, std::min<int64_t>(2, n), n));
}
}  // namespace

HeteroSpmm HeteroSpmm::make_sample(double frac, Rng& rng) const {
  const Index k_rows = sample_rows(frac);
  const Index k_cols = sample_cols_for(frac, a_.cols());
  // Row set for A', column set shared by A' columns and B' rows/cols so
  // the sampled product A' x B' is well defined.
  const auto rows =
      nbwp::sample_without_replacement(a_.rows(), k_rows, rng);
  const auto cols =
      nbwp::sample_without_replacement(a_.cols(), k_cols, rng);
  std::vector<Index> row_ids(rows.begin(), rows.end());
  std::vector<Index> col_ids(cols.begin(), cols.end());
  CsrMatrix a_s = sparse::extract_submatrix(a_, row_ids, col_ids);
  CsrMatrix b_s = sparse::extract_submatrix(b_, col_ids, col_ids);
  return HeteroSpmm(std::move(a_s), std::move(b_s), *platform_);
}

HeteroSpmm HeteroSpmm::make_sample_predetermined(double frac,
                                                 double anchor) const {
  const Index k_rows = sample_rows(frac);
  const Index k_cols = sample_cols_for(frac, a_.cols());
  const auto row0 = static_cast<Index>(anchor * (a_.rows() - k_rows));
  const auto col0 = static_cast<Index>(anchor * (a_.cols() - k_cols));
  CsrMatrix a_s =
      sparse::sample_submatrix_contiguous(a_, row0, col0, k_rows, k_cols);
  CsrMatrix b_s =
      sparse::sample_submatrix_contiguous(b_, col0, col0, k_cols, k_cols);
  return HeteroSpmm(std::move(a_s), std::move(b_s), *platform_);
}

double HeteroSpmm::sampling_cost_ns(double frac) const {
  // Extracting the submatrix scans the sampled rows of A and B with a
  // membership test per entry.
  const double scanned =
      frac * (static_cast<double>(a_.nnz()) + static_cast<double>(b_.nnz()));
  hetsim::WorkProfile p;
  p.bytes_stream = 12.0 * scanned;
  p.bytes_random = 4.0 * scanned;
  p.ops = 8.0 * scanned;
  p.parallel_items = platform_->cpu_threads();
  p.steps = 1;
  return platform_->cpu().time_ns(p);
}

}  // namespace nbwp::hetalg
