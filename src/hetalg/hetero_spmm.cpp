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

namespace {
/// CSR bytes of an A slice shipped to an offload device.
double a_slice_bytes(const SpgemmWork& w) {
  return static_cast<double>(w.a_nnz) * 12.0 +
         static_cast<double>(w.rows) * 8.0;
}
}  // namespace

HeteroSpmm::HeteroSpmm(CsrMatrix a, CsrMatrix b,
                       const hetsim::Platform& platform)
    : a_(std::move(a)), b_(std::move(b)), platform_(&platform) {
  NBWP_REQUIRE(a_.cols() == b_->rows(), "A and B are not compatible");
  build_profiles();
}

HeteroSpmm::HeteroSpmm(CsrMatrix a, const hetsim::Platform& platform)
    : a_(std::move(a)), platform_(&platform) {
  build_profiles();
}

void HeteroSpmm::build_profiles() {
  const auto v_b = sparse::row_nnz_vector(b());
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

SpgemmWork HeteroSpmm::range_work(Index first, Index last,
                                  size_t device) const {
  SpgemmWork w;
  w.rows = last - first;
  w.a_nnz = a_nnz_prefix_[last] - a_nnz_prefix_[first];
  w.multiplies = work_prefix_[last] - work_prefix_[first];
  if (device > 0) {
    const hetsim::GpuDevice& dev = device == 1
                                       ? platform_->gpu()
                                       : platform_->accel(device - 2).device;
    w.inflation = hetsim::simd_inflation_range(row_work_, first, last,
                                               dev.spec().warp_size);
  }
  return w;
}

SpmmKwayStructure HeteroSpmm::structure_for(
    std::span<const Index> bounds) const {
  const size_t k = bounds.size() - 1;
  SpmmKwayStructure s;
  s.work.resize(k);
  s.a_dev_bytes.assign(k, 0.0);  // the CPU reads A and B in place
  s.b_dev_bytes.assign(k, 0.0);
  for (size_t i = 0; i < k; ++i) {
    s.work[i] = range_work(bounds[i], bounds[i + 1], i);
    if (i == 0) continue;
    s.a_dev_bytes[i] = a_slice_bytes(s.work[i]);
    s.b_dev_bytes[i] = s.work[i].rows > 0 ? b().bytes() : 0.0;
  }
  return s;
}

std::array<Index, 3> HeteroSpmm::threshold_bounds(double r_cpu_pct) const {
  return {0, split_row(r_cpu_pct), a_.rows()};
}

SpmmKwayStructure HeteroSpmm::structure_at(double r_cpu_pct) const {
  return structure_for(threshold_bounds(r_cpu_pct));
}

double HeteroSpmm::time_ns(double r_cpu_pct) const {
  return spmm_kway_times(*platform_, structure_at(r_cpu_pct)).total_ns();
}

double HeteroSpmm::balance_ns(double r_cpu_pct) const {
  const SpmmKwayTimes t =
      spmm_kway_times(*platform_, structure_at(r_cpu_pct));
  return std::abs(t.marginal_ns[0] - t.marginal_ns[1]);
}

hetsim::RunReport HeteroSpmm::run(double r_cpu_pct, CsrMatrix* c_out) const {
  return run_ranges(threshold_bounds(r_cpu_pct), c_out);
}

std::pair<double, double> HeteroSpmm::device_times_all() const {
  const Index n = a_.rows();
  return {spgemm_cpu_work_ns(*platform_, range_work(0, n, 0)),
          spgemm_gpu_work_ns(*platform_, range_work(0, n, 1))};
}

CsrMatrix HeteroSpmm::multiply_ranges(std::span<const Index> bounds) const {
  // The symbolic pass runs once per instance: every split re-multiplies
  // the same pattern, so the plan built on the first run serves all later
  // ones numeric-only.
  if (plan_ == nullptr) {
    plan_ = std::make_shared<const sparse::SpgemmPlan>(sparse::spgemm_plan(
        a_, b(), ThreadPool::global(), {}, work_prefix_));
  }
  std::vector<sparse::SpgemmCounters> counters(bounds.size() - 1);
  CsrMatrix c = sparse::spgemm_numeric(a_, b(), *plan_, ThreadPool::global(),
                                       bounds, counters);
  for (size_t i = 0; i < counters.size(); ++i) {
    NBWP_REQUIRE(counters[i].multiplies ==
                     work_prefix_[bounds[i + 1]] - work_prefix_[bounds[i]],
                 "executed work disagrees with the load vector");
  }
  return c;
}

hetsim::RunReport HeteroSpmm::run_ranges(std::span<const Index> bounds,
                                         CsrMatrix* c_out) const {
  const size_t k = bounds.size() - 1;
  const SpmmKwayStructure s = structure_for(bounds);
  const SpmmKwayTimes times = spmm_kway_times(*platform_, s);

  // Gate every non-empty offload range on this thread, in device order,
  // so one dead device reroutes only its own rows and a seeded fault plan
  // decides identically every run; then one pool pass computes all ranges.
  double on_device_ns = 0.0;  // slowest offload range still on its device
  double reroute_ns = 0.0;    // rerouted ranges re-priced at CPU cost
  int rerouted = 0;
  for (size_t i = 1; i < k; ++i) {
    if (bounds[i] == bounds[i + 1]) continue;
    const std::string what = strfmt("spmm.kway.d%zu", i);
    if (gpu_gate(*platform_, what.c_str(), times.device_ns[i])) {
      on_device_ns = std::max(on_device_ns, times.device_ns[i]);
    } else {
      ++rerouted;
      reroute_ns += spgemm_cpu_work_ns(*platform_, s.work[i]);
    }
  }
  const bool plan_built = plan_ == nullptr;
  CsrMatrix c = multiply_ranges(bounds);

  hetsim::RunReport report;
  report.add_phase("phase1", times.phase1_ns);
  report.add_overlapped_phase("phase2", times.device_ns[0], on_device_ns);
  if (rerouted > 0) report.add_phase("phase2.reroute", reroute_ns);
  report.add_phase("stitch", times.stitch_ns);
  report.set_counter("devices", static_cast<double>(k));
  report.set_counter("gpu_rerouted", static_cast<double>(rerouted));
  report.set_counter("plan_built", plan_built ? 1.0 : 0.0);
  report.set_counter("c_nnz", static_cast<double>(c.nnz()));
  report.set_counter("split_row", static_cast<double>(bounds[1]));
  report.set_counter("work_total", static_cast<double>(total_work()));
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
  return structure_for(kway_row_boundaries(d));
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
  return run_ranges(kway_row_boundaries(d), c_out);
}

double HeteroSpmm::range_cost_cpu_ns(Index first, Index last) const {
  NBWP_REQUIRE(first <= last && last <= a_.rows(), "range out of bounds");
  return spgemm_cpu_work_ns(*platform_, range_work(first, last, 0));
}

double HeteroSpmm::range_cost_gpu_ns(Index first, Index last) const {
  NBWP_REQUIRE(first <= last && last <= a_.rows(), "range out of bounds");
  const SpgemmWork w = range_work(first, last, 1);
  const double transfer =
      (a_slice_bytes(w) + c_bytes_estimate(w.multiplies)) /
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
  CsrMatrix b_s = sparse::extract_submatrix(b(), col_ids, col_ids);
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
      sparse::sample_submatrix_contiguous(b(), col0, col0, k_cols, k_cols);
  return HeteroSpmm(std::move(a_s), std::move(b_s), *platform_);
}

double HeteroSpmm::sampling_cost_ns(double frac) const {
  // Extracting the submatrix scans the sampled rows of A and B with a
  // membership test per entry.
  const double scanned =
      frac * (static_cast<double>(a_.nnz()) + static_cast<double>(b().nnz()));
  hetsim::WorkProfile p;
  p.bytes_stream = 12.0 * scanned;
  p.bytes_random = 4.0 * scanned;
  p.ops = 8.0 * scanned;
  p.parallel_items = platform_->cpu_threads();
  p.steps = 1;
  return platform_->cpu().time_ns(p);
}

}  // namespace nbwp::hetalg
