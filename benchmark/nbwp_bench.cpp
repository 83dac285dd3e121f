// nbwp_bench — the workload runner of the repository benchmark.
//
//   nbwp_bench --workload plan-cold|solve|serve-mix|kway --seed N
//              --seconds S [--trace] [--smoke]
//
// One process runs one workload for one seed and prints one JSON
// document on stdout.  benchmark/run.py builds this binary, runs it,
// checks the document against BENCHMARK.json and prints the metrics;
// benchmark/README.md says why each workload exists.
//
//   plan-cold  closed loop, one client: problem constructor + guarded
//              Sample -> Identify -> Extrapolate over 16 Table II analogs.
//   solve      the plan-cold job plus run(t), the `nbwp_cli run` path.
//   serve-mix  open loop at fixed rates into AdmissionController ->
//              PlanService over 512 small inputs with Zipf popularity.
//   kway       closed loop over 6 SpMM inputs on a 4-device platform:
//              robust_estimate_partition_kway + run_kway.
//
// The seed picks the generation seed of every input and the traffic
// order; the library's own sampling seed stays at 24301 (the nbwp_cli
// default), so a plan depends only on its input.  Set-up (generation,
// reference outputs, exhaustive optima, an untimed warm-up pass) runs
// several times and its median is setup_s.  Every job's output is
// checked.  --trace splits the window into an untraced and a traced half:
// the untraced half gives the job_p50_ms the trace overhead is measured
// against, the traced half the per-layer self times.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/exhaustive.hpp"
#include "core/extrapolate.hpp"
#include "core/kway.hpp"
#include "core/robust_estimate.hpp"
#include "datasets/table2.hpp"
#include "graph/cc.hpp"
#include "hetalg/hetero_cc.hpp"
#include "hetalg/hetero_spmm.hpp"
#include "hetalg/hetero_spmm_hh.hpp"
#include "hetalg/hetero_spmv.hpp"
#include "obs/obs.hpp"
#include "parallel/thread_pool.hpp"
#include "self_times.hpp"
#include "serve/serve.hpp"
#include "sparse/spgemm.hpp"
#include "sparse/spmv.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/strfmt.hpp"

#ifndef NBWP_BENCH_BUILD_TYPE
#define NBWP_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace nbwp;
using Clock = std::chrono::steady_clock;

constexpr uint64_t kSamplingSeed = 24301;  // nbwp_cli --sampling-seed

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

uint64_t derive_seed(uint64_t seed, uint64_t stream) {
  uint64_t state = seed * 0x9E3779B97F4A7C15ULL + stream;
  return splitmix64(state);
}

double pct(const std::vector<double>& xs, double p) {
  return xs.empty() ? 0.0 : percentile(xs, p);
}

double sum(const std::vector<double>& xs) {
  double total = 0;
  for (double x : xs) total += x;
  return total;
}

// ---- case studies ----------------------------------------------------------

enum class Study { kCc, kSpmm, kHh, kSpmv };
constexpr Study kStudies[] = {Study::kCc, Study::kSpmm, Study::kHh,
                              Study::kSpmv};

const char* study_name(Study s) {
  switch (s) {
    case Study::kCc: return "cc";
    case Study::kSpmm: return "spmm";
    case Study::kHh: return "hh";
    case Study::kSpmv: return "spmv";
  }
  return "?";
}

/// The per-workload sampling configuration of nbwp_cli (config_for in
/// apps/nbwp_cli.cpp), so a benchmark job plans exactly as `nbwp_cli
/// estimate` does.
core::RobustConfig robust_config(Study study) {
  core::SamplingConfig cfg;
  cfg.seed = kSamplingSeed;
  if (study == Study::kCc) {
    cfg.method = core::IdentifyMethod::kCoarseToFine;
    cfg.warm.halfwidth = 4;
    cfg.warm.step = 1;
  } else if (study == Study::kSpmm || study == Study::kSpmv) {
    cfg.sample_factor = 0.25;
    cfg.method = core::IdentifyMethod::kRaceThenFine;
    cfg.warm.halfwidth = 3;
    cfg.warm.step = 3;
  } else {
    cfg.method = core::IdentifyMethod::kGradientDescent;
    cfg.gradient.log_space = true;
    cfg.gradient.starts = 2;
    cfg.gradient.max_iterations = 10;
    cfg.gradient.initial_step_fraction = 0.2;
    cfg.warm.log_space = true;
    cfg.warm.log_ratio = 1.5;
    cfg.warm.log_points = 3;
  }
  core::RobustConfig rcfg;
  rcfg.sampling = cfg;
  return rcfg;
}

double hh_extrapolate(const hetalg::HeteroSpmmHh& full,
                      const hetalg::HeteroSpmmHh& sample, double t) {
  return core::work_share_extrapolate(full, sample, t);
}

template <typename P>
core::RobustEstimate estimate(const P& problem,
                              const core::RobustConfig& cfg) {
  if constexpr (std::is_same_v<P, hetalg::HeteroSpmmHh>) {
    return core::robust_estimate_partition(problem, cfg, hh_extrapolate);
  } else {
    return core::robust_estimate_partition(problem, cfg);
  }
}

/// The exhaustive optimum nbwp_cli compares against: a 1 % grid, or the
/// 192-point log grid of cutoffs for HH.
template <typename P>
double optimum_ns(const P& problem) {
  if constexpr (std::is_same_v<P, hetalg::HeteroSpmmHh>) {
    return core::exhaustive_search_over(problem,
                                        problem.candidate_thresholds(192))
        .best_time_ns;
  } else {
    return core::exhaustive_search(problem, 1.0).best_time_ns;
  }
}

// ---- output checks ---------------------------------------------------------

/// True when two labelings put exactly the same vertices together.
bool same_partition(const std::vector<graph::Vertex>& ref,
                    const std::vector<graph::Vertex>& got) {
  if (ref.size() != got.size()) return false;
  constexpr graph::Vertex kUnset = std::numeric_limits<graph::Vertex>::max();
  std::vector<graph::Vertex> fwd(ref.size(), kUnset), bwd(ref.size(), kUnset);
  for (size_t v = 0; v < ref.size(); ++v) {
    if (ref[v] >= ref.size() || got[v] >= got.size()) return false;
    graph::Vertex& f = fwd[ref[v]];
    graph::Vertex& b = bwd[got[v]];
    if (f == kUnset && b == kUnset) {
      f = got[v];
      b = ref[v];
    } else if (f != got[v] || b != ref[v]) {
      return false;
    }
  }
  return true;
}

bool bitwise_equal(const sparse::CsrMatrix& a, const sparse::CsrMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         a.nnz() == b.nnz() && std::ranges::equal(a.row_ptr(), b.row_ptr()) &&
         std::ranges::equal(a.col_idx(), b.col_idx()) &&
         (a.nnz() == 0 ||
          std::memcmp(a.values().data(), b.values().data(),
                      a.nnz() * sizeof(double)) == 0);
}

/// Same pattern, and every value within the rounding error two
/// summation orders can differ by: 2 k eps sum_k |a_ik b_kj| for a row of
/// k terms (`abs_ref` holds the sums of absolute terms).
bool equal_to_rounding(const sparse::CsrMatrix& ref,
                       const sparse::CsrMatrix& abs_ref,
                       const sparse::CsrMatrix& a,
                       const sparse::CsrMatrix& got) {
  if (ref.rows() != got.rows() || ref.cols() != got.cols() ||
      !std::ranges::equal(ref.row_ptr(), got.row_ptr()) ||
      !std::ranges::equal(ref.col_idx(), got.col_idx()))
    return false;
  constexpr double kEps = std::numeric_limits<double>::epsilon();
  for (sparse::Index r = 0; r < ref.rows(); ++r) {
    const double terms = static_cast<double>(a.row_nnz(r));
    const auto want = ref.row_vals(r);
    const auto have = got.row_vals(r);
    const auto scale = abs_ref.row_vals(r);
    for (size_t j = 0; j < want.size(); ++j) {
      if (!(std::abs(want[j] - have[j]) <= 2 * (terms + 1) * kEps * scale[j]))
        return false;
    }
  }
  return true;
}

bool same_bits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

/// |T_cpu - T_gpu| / max of an overlapped phase (virtual time).
double imbalance(const hetsim::RunReport& report, const std::string& phase) {
  const double cpu = report.phase_ns(phase + ".cpu");
  const double gpu = report.phase_ns(phase + ".gpu");
  const double hi = std::max(cpu, gpu);
  return hi > 0 ? std::abs(cpu - gpu) / hi : 0.0;
}

// ---- result document -------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
  size_t samples = 0;
  std::string stat;  ///< how the value was formed, for the reader
};

struct Document {
  std::map<std::string, Metric> metrics;
  std::map<std::string, double> info;
  std::vector<std::string> failures;
  size_t attempted = 0;
  size_t failed = 0;

  void set(const std::string& name, double value, const char* unit,
           size_t samples, std::string stat) {
    metrics[name] = {value, unit, samples, std::move(stat)};
  }
  /// Record a failed operation (or a failed self-check).
  void fail(std::string why) {
    ++failed;
    if (failures.size() < 20) failures.push_back(std::move(why));
  }
};

// ---- jobs ------------------------------------------------------------------

/// What one closed-loop job produced.  Virtual quantities are in ns.
struct JobResult {
  double wall_ms = 0;
  int study = -1;  ///< index into kStudies; -1 for kway
  double threshold = 0;
  double estimation_ns = 0;
  double makespan_ns = 0;
  double imbalance = 0;
  int evaluations = 0;
  bool fallback = false;
  std::string failure;
};

struct ScalarSpec {
  Study study;
  const char* dataset;
  double scale;
};

/// Four Table II analogs per case study.
constexpr ScalarSpec kScalarCatalog[] = {
    {Study::kCc, "pwtk", 0.1},          {Study::kCc, "germany_osm", 0.02},
    {Study::kCc, "web-BerkStan", 0.05}, {Study::kCc, "delaunay_n22", 0.05},
    {Study::kSpmm, "cant", 0.1},        {Study::kSpmm, "rma10", 0.1},
    {Study::kSpmm, "webbase-1M", 0.05}, {Study::kSpmm, "shipsec1", 0.05},
    {Study::kHh, "web-BerkStan", 0.03}, {Study::kHh, "webbase-1M", 0.05},
    {Study::kHh, "cop20k_A", 0.1},      {Study::kHh, "consph", 0.1},
    {Study::kSpmv, "webbase-1M", 0.1},  {Study::kSpmv, "pwtk", 0.1},
    {Study::kSpmv, "qcd5_4", 0.2},      {Study::kSpmv, "italy_osm", 0.05},
};

struct ScalarEntry {
  Study study = Study::kCc;
  std::string name;
  graph::CsrGraph graph;     // cc input
  sparse::CsrMatrix matrix;  // spmm / hh / spmv input
  double optimum_ns = 0;
  // Reference outputs (solve only).
  std::vector<graph::Vertex> labels;  // serial union-find
  sparse::CsrMatrix product;          // serial sparse::spgemm(A, A)
  /// HH only, until the warm-up: |A| x |A|, the scale of each entry's
  /// sum.  HH adds the heavy- and light-row partial products, which
  /// re-associates every entry's sum, so its C matches the serial product
  /// only to rounding; the warm-up's C, checked against this bound,
  /// becomes the bitwise reference of every later job.
  sparse::CsrMatrix abs_product;
  double y_checksum = 0;              // serial A * x, x_i = 1 + i mod 7
  // The warm-up job's plan; every later job must reproduce it bitwise.
  JobResult plan;
};

struct Outputs {
  std::vector<graph::Vertex> labels;
  sparse::CsrMatrix product;
};

hetsim::RunReport execute(const hetalg::HeteroCc& p, double t, Outputs& o) {
  return p.run(t, &o.labels);
}
hetsim::RunReport execute(const hetalg::HeteroSpmm& p, double t,
                          Outputs& o) {
  return p.run(t, &o.product);
}
hetsim::RunReport execute(const hetalg::HeteroSpmmHh& p, double t,
                          Outputs& o) {
  return p.run(t, &o.product);
}
hetsim::RunReport execute(const hetalg::HeteroSpmv& p, double t, Outputs&) {
  return p.run(t);
}

std::string check_output(const ScalarEntry& e, const Outputs& o,
                         const hetsim::RunReport& report) {
  switch (e.study) {
    case Study::kCc:
      return same_partition(e.labels, o.labels)
                 ? ""
                 : "labels are not partition-equivalent to union-find";
    case Study::kSpmm:
    case Study::kHh:
      if (e.abs_product.rows() > 0) {
        return equal_to_rounding(e.product, e.abs_product, e.matrix,
                                 o.product)
                   ? ""
                   : "C differs from the serial spgemm reference beyond "
                     "rounding";
      }
      return bitwise_equal(e.product, o.product)
                 ? ""
                 : "C differs bitwise from its reference";
    case Study::kSpmv:
      // HeteroSpmv::run keeps y to itself and reports sum(y) instead.
      return same_bits(report.counter("y_checksum"), e.y_checksum)
                 ? ""
                 : "y checksum differs from the serial spmv reference";
  }
  return "unknown study";
}

/// One job.  The input is copied before the timer starts; the timer
/// covers the constructor (which takes ownership of the input), planning
/// and, when `execute`, run(t).  Checks run after the timer stops.
template <typename P, typename Input>
JobResult scalar_job(const ScalarEntry& e, const Input& master, bool execute,
                     const hetsim::Platform& platform, Outputs* keep) {
  const core::RobustConfig cfg = robust_config(e.study);
  Input input = master;
  JobResult r;
  r.study = static_cast<int>(e.study);
  std::optional<P> problem;
  core::RobustEstimate est;
  hetsim::RunReport report;
  Outputs out;
  const auto start = Clock::now();
  {
    obs::Span job("bench.job");
    {
      obs::Span span("bench.profile");
      problem.emplace(std::move(input), platform);
    }
    {
      obs::Span span("bench.estimate");
      est = estimate(*problem, cfg);
    }
    if (execute) {
      obs::Span span("bench.run");
      report = ::execute(*problem, est.threshold, out);
    }
  }
  r.wall_ms = ms_since(start);

  const double t = est.threshold;
  r.threshold = t;
  r.estimation_ns = est.estimation_cost_ns;
  r.evaluations = est.evaluations;
  r.fallback = est.stage != core::FallbackStage::kSampled;
  if (!std::isfinite(t) || t < problem->threshold_lo() ||
      t > problem->threshold_hi()) {
    r.failure = strfmt("%s: threshold %g outside [%g, %g]", e.name.c_str(),
                       t, problem->threshold_lo(), problem->threshold_hi());
    return r;
  }
  r.makespan_ns = problem->time_ns(t);
  if (!execute) return r;
  if (report.total_ns() != r.makespan_ns) {
    r.failure = e.name + ": run(t).total_ns() != time_ns(t)";
    return r;
  }
  const std::string bad = check_output(e, out, report);
  if (!bad.empty()) r.failure = e.name + ": " + bad;
  r.imbalance =
      imbalance(report, e.study == Study::kSpmv ? "spmv" : "phase2");
  if (keep) *keep = std::move(out);
  return r;
}

JobResult run_scalar_job(const ScalarEntry& e, bool execute,
                         const hetsim::Platform& platform,
                         Outputs* keep = nullptr) {
  switch (e.study) {
    case Study::kCc:
      return scalar_job<hetalg::HeteroCc>(e, e.graph, execute, platform,
                                          keep);
    case Study::kSpmm:
      return scalar_job<hetalg::HeteroSpmm>(e, e.matrix, execute, platform,
                                            keep);
    case Study::kHh:
      return scalar_job<hetalg::HeteroSpmmHh>(e, e.matrix, execute,
                                              platform, keep);
    case Study::kSpmv:
      return scalar_job<hetalg::HeteroSpmv>(e, e.matrix, execute, platform,
                                            keep);
  }
  throw Error("unknown study");
}

/// Generate one catalog entry with its optimum and, for solve, its
/// reference output.
ScalarEntry make_scalar_entry(const ScalarSpec& spec, uint64_t gen_seed,
                              bool references,
                              const hetsim::Platform& platform) {
  const datasets::DatasetSpec& ds = datasets::spec_by_name(spec.dataset);
  ScalarEntry e;
  e.study = spec.study;
  e.name = strfmt("%s:%s@%g", study_name(spec.study), spec.dataset,
                  spec.scale);
  if (spec.study == Study::kCc) {
    e.graph = datasets::make_graph(ds, spec.scale, gen_seed);
    e.optimum_ns = optimum_ns(hetalg::HeteroCc(e.graph, platform));
    if (references) e.labels = graph::cc_union_find(e.graph).labels;
    return e;
  }
  e.matrix = datasets::make_matrix(ds, spec.scale, gen_seed);
  if (spec.study == Study::kSpmm) {
    e.optimum_ns = optimum_ns(hetalg::HeteroSpmm(e.matrix, platform));
  } else if (spec.study == Study::kHh) {
    e.optimum_ns = optimum_ns(hetalg::HeteroSpmmHh(e.matrix, platform));
  } else {
    e.optimum_ns = optimum_ns(hetalg::HeteroSpmv(e.matrix, platform));
  }
  if (!references) return e;
  if (spec.study == Study::kSpmv) {
    std::vector<double> x(e.matrix.cols());
    for (size_t i = 0; i < x.size(); ++i)
      x[i] = 1.0 + static_cast<double>(i % 7);
    std::vector<double> y(e.matrix.rows(), 0.0);
    sparse::spmv_row_range(e.matrix, x, y, 0, e.matrix.rows());
    e.y_checksum = sum(y);
  } else {
    e.product = sparse::spgemm(e.matrix, e.matrix);
  }
  if (spec.study == Study::kHh) {
    std::vector<double> abs_values(e.matrix.values().begin(),
                                   e.matrix.values().end());
    for (double& v : abs_values) v = std::abs(v);
    const sparse::CsrMatrix abs_a = sparse::CsrMatrix::from_parts(
        e.matrix.rows(), e.matrix.cols(),
        {e.matrix.row_ptr().begin(), e.matrix.row_ptr().end()},
        {e.matrix.col_idx().begin(), e.matrix.col_idx().end()},
        std::move(abs_values));
    e.abs_product = sparse::spgemm(abs_a, abs_a);
  }
  return e;
}

struct ScalarState {
  std::vector<ScalarEntry> entries;
};

std::unique_ptr<ScalarState> setup_scalar(uint64_t seed, bool execute,
                                          const hetsim::Platform& platform) {
  auto state = std::make_unique<ScalarState>();
  for (size_t i = 0; i < std::size(kScalarCatalog); ++i) {
    ScalarEntry e = make_scalar_entry(kScalarCatalog[i],
                                      derive_seed(seed, 100 + i), execute,
                                      platform);
    // The untimed warm-up pass also records the plan each later job of
    // this entry must reproduce.
    Outputs warm;
    e.plan = run_scalar_job(e, execute, platform, &warm);
    if (!e.plan.failure.empty()) throw Error("warm-up: " + e.plan.failure);
    if (e.abs_product.rows() > 0) {
      e.product = std::move(warm.product);
      e.abs_product = sparse::CsrMatrix();
    }
    state->entries.push_back(std::move(e));
  }
  return state;
}

// ---- K-way -----------------------------------------------------------------

struct KwaySpec {
  const char* dataset;
  double scale;
};

/// Six SpMM inputs, scaled so one job takes 50-100 ms on a 4-core VM.
constexpr KwaySpec kKwayCatalog[] = {
    {"cant", 0.05},     {"rma10", 0.1},     {"pdb1HYS", 0.1},
    {"shipsec1", 0.03}, {"cop20k_A", 0.03}, {"webbase-1M", 0.02},
};
constexpr int kKwayDevices = 4;

/// The `nbwp_cli --devices 4` platform: the reference CPU and GPU plus
/// two copies of the GPU scaled to 0.5x and 0.25x throughput.
hetsim::Platform four_device_platform() {
  hetsim::Platform platform = hetsim::Platform::reference();
  for (const double scale : {0.5, 0.25}) {
    hetsim::GpuSpec gpu = hetsim::kTeslaK40c;
    gpu.sm_count *= scale;
    gpu.cores *= scale;
    gpu.bw_stream_bps *= scale;
    gpu.bw_random_bps *= scale;
    gpu.full_occupancy_items *= scale;
    platform.add_accel(gpu, hetsim::kPcie3x16);
  }
  return platform;
}

core::KwayConfig kway_config() {
  core::KwayConfig kcfg;
  kcfg.devices = kKwayDevices;
  kcfg.objective = core::CostObjective::kBalanced;
  kcfg.robust = robust_config(Study::kSpmm);
  return kcfg;
}

struct KwayEntry {
  std::string name;
  sparse::CsrMatrix matrix;
  sparse::CsrMatrix product;  // serial sparse::spgemm(A, A)
  double optimum_ns = 0;
  core::PartitionDescriptor descriptor;  // the warm-up plan
  JobResult plan;
};

/// Best K-way makespan over the grid `step` apart inside the given
/// ranges of the three interior boundaries (percent, clamped to
/// 0 <= a <= b <= c <= 100).
double kway_grid_ns(const hetalg::HeteroSpmm& problem, int step,
                    const int (&lo)[3], const int (&hi)[3], int (&arg)[3]) {
  double best = std::numeric_limits<double>::infinity();
  for (int a = std::max(0, lo[0]); a <= std::min(100, hi[0]); a += step) {
    for (int b = std::max(a, lo[1]); b <= std::min(100, hi[1]); b += step) {
      for (int c = std::max(b, lo[2]); c <= std::min(100, hi[2]);
           c += step) {
        const double ns = problem.kway_time_ns(
            core::PartitionDescriptor::from_cumulative_pct(
                {double(a), double(b), double(c)}));
        if (ns < best) {
          best = ns;
          arg[0] = a;
          arg[1] = b;
          arg[2] = c;
        }
      }
    }
  }
  return best;
}

/// The K-way optimum on the 1 % grid, searched as a 4 % grid followed by
/// the 1 % grid within 4 points of its best: 50x cheaper than the full
/// 177k-point grid, and equal to it on every catalog input of seeds 1-3.
double kway_optimum_ns(const hetalg::HeteroSpmm& problem) {
  int arg[3] = {0, 0, 0};
  kway_grid_ns(problem, 4, {0, 0, 0}, {100, 100, 100}, arg);
  int fine[3];
  return kway_grid_ns(problem, 1, {arg[0] - 4, arg[1] - 4, arg[2] - 4},
                      {arg[0] + 4, arg[1] + 4, arg[2] + 4}, fine);
}

JobResult kway_job(const KwayEntry& e, const hetsim::Platform& platform,
                   core::PartitionDescriptor* plan_out) {
  const core::KwayConfig kcfg = kway_config();
  sparse::CsrMatrix input = e.matrix;
  JobResult r;
  std::optional<hetalg::HeteroSpmm> problem;
  core::KwayEstimate est;
  hetsim::RunReport report;
  sparse::CsrMatrix product;
  const auto start = Clock::now();
  {
    obs::Span job("bench.job");
    {
      obs::Span span("bench.profile");
      problem.emplace(std::move(input), platform);
    }
    {
      obs::Span span("bench.estimate");
      est = core::robust_estimate_partition_kway(*problem, kcfg);
    }
    {
      obs::Span span("bench.run_kway");
      report = problem->run_kway(est.descriptor, &product);
    }
  }
  r.wall_ms = ms_since(start);
  r.estimation_ns = est.estimation_cost_ns;
  r.evaluations = est.evaluations;
  r.fallback = est.stage != core::FallbackStage::kSampled;
  if (plan_out) *plan_out = est.descriptor;

  const core::PartitionDescriptor& d = est.descriptor;
  bool shares_ok = d.devices() == kKwayDevices && d.valid();
  for (double s : d.shares)
    shares_ok = shares_ok && std::isfinite(s) && s >= 0 && s <= 1;
  if (!shares_ok) {
    r.failure = e.name + ": invalid descriptor " + d.to_string();
    return r;
  }
  r.makespan_ns = problem->kway_time_ns(d);
  if (report.total_ns() != r.makespan_ns) {
    r.failure = e.name + ": run_kway(d).total_ns() != kway_time_ns(d)";
  } else if (!bitwise_equal(e.product, product)) {
    r.failure = e.name + ": C differs bitwise from the serial reference";
  }
  r.imbalance = imbalance(report, "phase2");
  return r;
}

struct KwayState {
  std::vector<KwayEntry> entries;
};

std::unique_ptr<KwayState> setup_kway(uint64_t seed,
                                      const hetsim::Platform& platform) {
  auto state = std::make_unique<KwayState>();
  for (size_t i = 0; i < std::size(kKwayCatalog); ++i) {
    const KwaySpec& spec = kKwayCatalog[i];
    KwayEntry e;
    e.name = strfmt("kway:%s@%g", spec.dataset, spec.scale);
    e.matrix = datasets::make_matrix(datasets::spec_by_name(spec.dataset),
                                     spec.scale, derive_seed(seed, 200 + i));
    e.product = sparse::spgemm(e.matrix, e.matrix);
    e.optimum_ns = kway_optimum_ns(hetalg::HeteroSpmm(e.matrix, platform));
    e.plan = kway_job(e, platform, &e.descriptor);
    if (!e.plan.failure.empty()) throw Error("warm-up: " + e.plan.failure);
    state->entries.push_back(std::move(e));
  }
  return state;
}

// ---- closed-loop runner ----------------------------------------------------

/// What one closed-loop window measured.
struct ClosedLoop {
  std::vector<double> job_ms;
  std::vector<std::vector<double>> passes;  ///< job_ms split by pass
  std::map<uint32_t, std::vector<double>> by_entry;
  double evaluations = 0;
  size_t fallbacks = 0;
  // Traced windows only.
  bench::SelfTimes self;
  std::map<int, std::vector<double>> run_ms;  ///< bench.run per study
  obs::MetricsSnapshot before, after;
};

/// Runs whole passes over the catalog, each in a fresh seed-shuffled
/// order, until `seconds` have elapsed, so every entry weighs the same in
/// every run.  `job(i)` runs entry i; `check(i, result)` returns a
/// failure message or "".
template <typename Job, typename Check>
ClosedLoop closed_loop(size_t catalog, Rng& order_rng, double seconds,
                       bool traced, Document& doc, Job&& job,
                       Check&& check) {
  ClosedLoop out;
  if (traced) {
    obs::set_metrics_enabled(true);
    obs::set_trace_enabled(true);
    out.before = obs::Registry::global().snapshot();
  }
  const int tid = obs::current_thread_tid();
  const auto start = Clock::now();
  do {
    out.passes.emplace_back();
    for (const uint32_t i :
         random_permutation(static_cast<uint32_t>(catalog), order_rng)) {
      if (traced) obs::Tracer::global().clear();
      JobResult r = job(i);
      if (r.failure.empty()) r.failure = check(i, r);
      ++doc.attempted;
      if (!r.failure.empty()) doc.fail(r.failure);
      out.job_ms.push_back(r.wall_ms);
      out.passes.back().push_back(r.wall_ms);
      out.by_entry[i].push_back(r.wall_ms);
      out.evaluations += r.evaluations;
      out.fallbacks += r.fallback ? 1 : 0;
      if (!traced) continue;
      const std::vector<obs::TraceEvent> events =
          obs::Tracer::global().events();
      for (const obs::TraceEvent& ev : events) {
        if (ev.tid == tid && ev.name == "bench.run")
          out.run_ms[r.study].push_back(ev.dur_us / 1e3);
      }
      out.self.add(events, tid);
    }
  } while (ms_since(start) < seconds * 1e3);
  if (traced) {
    out.after = obs::Registry::global().snapshot();
    obs::set_trace_enabled(false);
    obs::set_metrics_enabled(false);
    obs::Tracer::global().clear();
  }
  return out;
}

double counter_delta(const obs::MetricsSnapshot& before,
                     const obs::MetricsSnapshot& after,
                     const std::string& name) {
  const auto a = after.counters.find(name);
  const auto b = before.counters.find(name);
  return (a == after.counters.end() ? 0.0 : a->second) -
         (b == before.counters.end() ? 0.0 : b->second);
}

/// Summed deltas of the counters named <prefix>...<suffix>.
double counter_delta_matching(const obs::MetricsSnapshot& before,
                              const obs::MetricsSnapshot& after,
                              const std::string& prefix,
                              const std::string& suffix) {
  double total = 0;
  for (const auto& [name, value] : after.counters) {
    if (name.starts_with(prefix) && name.ends_with(suffix))
      total += counter_delta(before, after, name);
  }
  return total;
}

/// Virtual-time quality of a catalog's plans (deterministic per seed).
struct PlanQuality {
  double regret = 0;        ///< geomean of makespan / optimum
  double overhead_pct = 0;  ///< mean of estimation / (estimation + makespan)
  double estimation_ms = 0, makespan_ms = 0, imbalance = 0;  ///< means
  size_t plans = 0;
};

PlanQuality plan_quality(const std::vector<std::pair<JobResult, double>>&
                             plans_and_optima) {
  std::vector<double> ratios, overheads;
  PlanQuality q;
  for (const auto& [plan, optimum] : plans_and_optima) {
    ratios.push_back(plan.makespan_ns / optimum);
    overheads.push_back(100.0 * plan.estimation_ns /
                        (plan.estimation_ns + plan.makespan_ns));
    q.estimation_ms += plan.estimation_ns / 1e6;
    q.makespan_ms += plan.makespan_ns / 1e6;
    q.imbalance += plan.imbalance;
  }
  q.plans = plans_and_optima.size();
  const double n = static_cast<double>(q.plans);
  q.regret = geomean(ratios);
  q.overhead_pct = mean(overheads);
  q.estimation_ms /= n;
  q.makespan_ms /= n;
  q.imbalance /= n;
  return q;
}

/// Job latency end-to-end metrics shared by every workload.  Each is
/// the median over sub-windows (a pass over the catalog, or a slice of
/// consecutive requests) of that sub-window's statistic: on a shared
/// virtual machine a burst of interference then moves one sub-window, not
/// the result.
void emit_job_latency(Document& doc,
                      const std::vector<std::vector<double>>& windows,
                      const std::string& what, const std::string& window) {
  std::vector<double> p50, p95, jps;
  for (const std::vector<double>& w : windows) {
    if (w.empty()) continue;
    p50.push_back(pct(w, 50));
    p95.push_back(pct(w, 95));
    jps.push_back(static_cast<double>(w.size()) / (sum(w) / 1e3));
  }
  const std::string per = " within each of the " + window + ", median";
  doc.set("job_p50_ms", pct(p50, 50), "ms", p50.size(),
          "p50 of " + what + per);
  doc.set("job_p95_ms", pct(p95, 50), "ms", p95.size(),
          "p95 of " + what + per);
  doc.set("throughput_jps", pct(jps, 50), "jobs/s", jps.size(),
          "jobs / summed " + what + per);
}

double median_pass_p50(const std::vector<std::vector<double>>& passes) {
  std::vector<double> p50;
  for (const std::vector<double>& pass : passes) p50.push_back(pct(pass, 50));
  return pct(p50, 50);
}

/// Every per-layer metric with its unit.  A workload that never reaches
/// a layer reports 0 for it.
const std::vector<std::pair<const char*, const char*>>& per_layer_units() {
  static const std::vector<std::pair<const char*, const char*>> units = {
      {"hetalg.profile_ms", "ms"},
      {"core.robust_self_ms", "ms"},
      {"core.sample_ms", "ms"},
      {"core.identify_ms", "ms"},
      {"core.identify_evals", "count"},
      {"core.identify_memo_share", "ratio"},
      {"core.extrapolate_ms", "ms"},
      {"core.fallback_share", "ratio"},
      {"core.kway_ms", "ms"},
      {"core.kway_evals", "count"},
      {"hetalg.run_ms.cc", "ms"},
      {"hetalg.run_ms.spmm", "ms"},
      {"hetalg.run_ms.hh", "ms"},
      {"hetalg.run_ms.spmv", "ms"},
      {"hetalg.run_self_ms", "ms"},
      {"hetalg.run_kway_ms", "ms"},
      {"hetalg.run_kway_self_ms", "ms"},
      {"graph.cc_kernel_ms", "ms"},
      {"sparse.spgemm_symbolic_ms", "ms"},
      {"sparse.spgemm_numeric_ms", "ms"},
      {"sparse.spgemm_masked_ms", "ms"},
      {"sparse.spgemm_rows_hash_share", "ratio"},
      {"parallel.pool_utilization", "ratio"},
      {"serve.cache_exact_share", "ratio"},
      {"serve.cache_near_share", "ratio"},
      {"serve.cache_miss_share", "ratio"},
      {"serve.cache_evictions_per_1k", "count"},
      {"serve.lookup_us", "us"},
      {"serve.solve_ms.miss", "ms"},
      {"serve.solve_ms.near", "ms"},
      {"serve.admission_wait_p50_ms", "ms"},
      {"serve.admission_wait_p99_ms", "ms"},
      {"serve.degraded_share", "ratio"},
      {"serve.shed_share", "ratio"},
      {"serve.fingerprint_ms", "ms"},
      {"serve.gen_lag_p99_ms", "ms"},
      {"serve.lat_low_p50_ms", "ms"},
      {"serve.lat_low_p99_ms", "ms"},
      {"serve.lat_high_p50_ms", "ms"},
      {"serve.lat_high_p99_ms", "ms"},
      {"serve.max_rate_rps", "req/s"},
      {"hetsim.phase2_imbalance", "ratio"},
      {"hetsim.estimation_ms", "ms"},
      {"hetsim.makespan_ms", "ms"},
      {"obs.trace_overhead_pct", "%"},
  };
  return units;
}

void zero_per_layer(Document& doc) {
  for (const auto& [name, unit] : per_layer_units())
    doc.set(name, 0.0, unit, 0, "layer not reached by this workload");
}

/// The layers of a closed-loop job.  Their spans' self times partition
/// the job (bench.job's own self time is the untraced remainder).
struct LayerGroup {
  const char* metric;
  std::vector<std::string> spans;
};

const std::vector<LayerGroup>& closed_loop_layers() {
  static const std::vector<LayerGroup> groups = {
      {"hetalg.profile_ms", {"bench.profile"}},
      {"core.robust_self_ms", {"bench.estimate", "estimate"}},
      {"core.sample_ms", {"estimate.sample"}},
      {"core.identify_ms", {"estimate.identify"}},
      {"core.extrapolate_ms", {"estimate.extrapolate"}},
      {"core.kway_ms", {"estimate.kway"}},
      {"hetalg.run_self_ms", {"bench.run"}},
      {"hetalg.run_kway_self_ms", {"bench.run_kway"}},
      {"graph.cc_kernel_ms",
       {"kernel.cc.adaptive", "kernel.cc.union_find",
        "kernel.cc.chunked_parallel", "kernel.cc.label_propagation",
        "kernel.cc.shiloach_vishkin", "kernel.cc.merge_cross_edges"}},
      {"sparse.spgemm_symbolic_ms",
       {"kernel.spgemm.symbolic", "kernel.spgemm.plan.build"}},
      {"sparse.spgemm_numeric_ms",
       {"kernel.spgemm.numeric", "kernel.spgemm.numeric_only",
        "kernel.spgemm.numeric_only.range"}},
      {"sparse.spgemm_masked_ms",
       {"kernel.spgemm.masked", "kernel.spgemm.masked.parallel"}},
  };
  return groups;
}

/// Per-layer metrics of a traced closed-loop window, and the self-check:
/// the layers' mean self times must add up to the mean job time within
/// 5 % (means add up; percentiles do not).
void emit_closed_loop_layers(Document& doc, const ClosedLoop& traced,
                             double untraced_p50_ms) {
  const size_t jobs = traced.job_ms.size();
  const double n = static_cast<double>(jobs);
  double layer_sum_ms = 0;
  for (const LayerGroup& g : closed_loop_layers()) {
    double self_ms = 0;
    for (const std::string& span : g.spans)
      self_ms += traced.self.self_ms(span);
    layer_sum_ms += self_ms;
    doc.set(g.metric, self_ms / n, "ms", jobs, "mean self time per job");
  }
  const double job_mean_ms = sum(traced.job_ms) / n;
  const double gap = std::abs(layer_sum_ms / n - job_mean_ms) / job_mean_ms;
  doc.info["self_check.layer_sum_ms"] = layer_sum_ms / n;
  doc.info["self_check.job_mean_ms"] = job_mean_ms;
  doc.info["self_check.gap_pct"] = 100 * gap;
  if (gap > 0.05) {
    doc.fail(strfmt("self-check: layer self times sum to %.3f ms per job "
                    "but jobs take %.3f ms (%.1f%% apart, limit 5%%)",
                    layer_sum_ms / n, job_mean_ms, 100 * gap));
  }
  // Name any span no layer claims, so time cannot hide from the ledger.
  for (const auto& [name, entry] : traced.self.entries()) {
    bool claimed = name == "bench.job";
    for (const LayerGroup& g : closed_loop_layers())
      claimed = claimed || std::ranges::count(g.spans, name) > 0;
    if (!claimed) doc.info["self_check.unclaimed_ms." + name] = entry.self_ms;
  }

  for (const auto& [study, runs] : traced.run_ms) {
    doc.set(std::string("hetalg.run_ms.") + study_name(kStudies[study]),
            mean(runs), "ms", runs.size(),
            "mean run() wall time per job of this case study");
  }
  if (const auto it = traced.self.entries().find("bench.run_kway");
      it != traced.self.entries().end()) {
    doc.set("hetalg.run_kway_ms", it->second.total_ms / it->second.count,
            "ms", it->second.count, "mean run_kway() wall time per job");
  }

  const auto& b = traced.before;
  const auto& a = traced.after;
  const double hits = counter_delta_matching(b, a, "identify.", ".cache_hits");
  const double evals =
      counter_delta_matching(b, a, "identify.", ".evaluations");
  if (hits + evals > 0) {
    doc.set("core.identify_memo_share", hits / (hits + evals), "ratio",
            static_cast<size_t>(hits + evals),
            "identify probes answered by the memo / probes");
  }
  doc.set("core.fallback_share", static_cast<double>(traced.fallbacks) / n,
          "ratio", jobs, "jobs planned by a fallback stage / jobs");
  const double rows_hash = counter_delta(b, a, "kernel.spgemm.rows_hash");
  const double rows_spa = counter_delta(b, a, "kernel.spgemm.rows_spa");
  if (rows_hash + rows_spa > 0) {
    doc.set("sparse.spgemm_rows_hash_share",
            rows_hash / (rows_hash + rows_spa), "ratio",
            static_cast<size_t>(rows_hash + rows_spa),
            "SpGEMM rows on the hash accumulator / rows");
  }
  const double run_wall_ms = traced.self.total_ms("bench.run") +
                             traced.self.total_ms("bench.run_kway");
  if (run_wall_ms > 0) {
    const double busy_ms = counter_delta(b, a, "pool.busy_ns") / 1e6;
    doc.set("parallel.pool_utilization",
            busy_ms / (ThreadPool::global().size() * run_wall_ms), "ratio",
            jobs, "pool busy time / (pool size x run wall time)");
  }
  const double traced_p50_ms = median_pass_p50(traced.passes);
  doc.set("obs.trace_overhead_pct",
          100.0 * (traced_p50_ms - untraced_p50_ms) / untraced_p50_ms, "%",
          traced.passes.size(), "traced vs untraced job_p50_ms");
}

void emit_virtual_layers(Document& doc, const PlanQuality& q) {
  doc.set("hetsim.phase2_imbalance", q.imbalance, "ratio", q.plans,
          "mean |T_cpu - T_gpu| / max of phase 2 over the catalog");
  doc.set("hetsim.estimation_ms", q.estimation_ms, "ms", q.plans,
          "mean virtual estimation cost per plan");
  doc.set("hetsim.makespan_ms", q.makespan_ms, "ms", q.plans,
          "mean virtual makespan per plan");
}

/// A closed-loop workload: the end-to-end window, or, traced, an
/// untraced half (the trace-overhead baseline) and a traced half.
template <typename Job, typename Check>
void closed_loop_workload(Document& doc,
                          const std::vector<std::string>& names,
                          uint64_t seed, double seconds, bool trace,
                          const PlanQuality& q, const char* evals_metric,
                          Job&& job, Check&& check) {
  const size_t catalog = names.size();
  Rng order(derive_seed(seed, 1));
  const ClosedLoop plain = closed_loop(
      catalog, order, trace ? seconds / 2 : seconds, false, doc, job, check);
  for (const auto& [i, ms] : plain.by_entry)
    doc.info["entry_p50_ms." + names[i]] = pct(ms, 50);
  if (!trace) {
    emit_job_latency(doc, plain.passes, "job wall time",
                     "passes over the catalog");
    doc.set("makespan_regret", q.regret, "ratio", q.plans,
            "geomean over the catalog of plan makespan / exhaustive optimum");
    doc.set("overhead_pct", q.overhead_pct, "%", q.plans,
            "mean over the catalog of estimation / (estimation + makespan)");
    return;
  }
  const ClosedLoop traced =
      closed_loop(catalog, order, seconds / 2, true, doc, job, check);
  zero_per_layer(doc);
  emit_closed_loop_layers(doc, traced, median_pass_p50(plain.passes));
  emit_virtual_layers(doc, q);
  doc.set(evals_metric,
          traced.evaluations / static_cast<double>(traced.job_ms.size()),
          "count", traced.job_ms.size(), "evaluations per plan");
}

void run_scalar(Document& doc, const ScalarState& state, bool execute,
                uint64_t seed, double seconds, bool trace,
                const hetsim::Platform& platform) {
  std::vector<std::pair<JobResult, double>> plans;
  std::vector<std::string> names;
  for (const ScalarEntry& e : state.entries) {
    plans.emplace_back(e.plan, e.optimum_ns);
    names.push_back(e.name);
  }
  const auto& entries = state.entries;
  closed_loop_workload(
      doc, names, seed, seconds, trace, plan_quality(plans),
      "core.identify_evals",
      [&](uint32_t i) { return run_scalar_job(entries[i], execute, platform); },
      [&](uint32_t i, const JobResult& r) -> std::string {
        return same_bits(r.threshold, entries[i].plan.threshold)
                   ? ""
                   : entries[i].name + ": plan differs from the warm-up plan";
      });
}

void run_kway(Document& doc, const KwayState& state, uint64_t seed,
              double seconds, bool trace, const hetsim::Platform& platform) {
  std::vector<std::pair<JobResult, double>> plans;
  std::vector<std::string> names;
  for (const KwayEntry& e : state.entries) {
    plans.emplace_back(e.plan, e.optimum_ns);
    names.push_back(e.name);
  }
  const auto& entries = state.entries;
  std::vector<core::PartitionDescriptor> got(entries.size());
  closed_loop_workload(
      doc, names, seed, seconds, trace, plan_quality(plans),
      "core.kway_evals",
      [&](uint32_t i) { return kway_job(entries[i], platform, &got[i]); },
      [&](uint32_t i, const JobResult&) -> std::string {
        return got[i] == entries[i].descriptor
                   ? ""
                   : entries[i].name + ": plan differs from the warm-up plan";
      });
}

// ---- serve-mix -------------------------------------------------------------

// Traffic constants, calibrated once at the seed commit and frozen: they
// are never derived at run time.  On the 4-core VM the benchmark was
// built on, the capacity ladder topped out near 10,000 req/s, so the
// high rate is about half of it.
constexpr double kLowRps = 2500;
constexpr double kHighRps = 5000;
constexpr double kLatencyLimitMs = 20;  ///< p99 limit of a passing rate
constexpr double kLadderFactor = 1.15;
constexpr int kLadderSteps = 8;
constexpr int kAdmissionWorkers = 2;
constexpr double kMaxGeneratorLagMs = 1.0;  ///< above it a rate is void
constexpr size_t kSliceRequests = 1000;  ///< sub-window of the latency stats

/// Eight Table II analogs per case study, kept small so the whole
/// catalog stays resident.  CC gets the denser FEM and lattice graphs:
/// the sqrt(n)-vertex sample of a graph with average degree d keeps about
/// d/2 edges, so sparse graphs would often plan from an empty sample.
/// The matrix studies get the sparse web, planar and road analogs.
constexpr const char* kServeGraphs[] = {
    "cant", "consph", "cop20k_A", "pdb1HYS",
    "pwtk", "qcd5_4", "rma10",    "shipsec1"};
constexpr const char* kServeMatrices[] = {
    "asia_osm",   "cop20k_A",     "delaunay_n22", "germany_osm",
    "italy_osm",  "netherlands_osm", "web-BerkStan", "webbase-1M"};
/// Rows per size class; a factor of two apart, so each class has its own
/// fingerprint size bucket.
constexpr double kServeRows[] = {2000, 4000};
constexpr int kSeedsPerFamily = 8;

struct ServeEntry {
  std::string name;
  serve::PlanRequest request;
  double lo = 0, hi = 0;
  double optimum_ns = 0;
};

struct ServeState {
  /// Entry index = family * kSeedsPerFamily + generation-seed index; a
  /// family is one (case study, dataset, size class).
  std::vector<ServeEntry> entries;
  /// Per case study: its families by popularity rank.  Each request
  /// picks a study uniformly, then a family by Zipf(1.0) over ranks, then
  /// one of its generation seeds uniformly.
  std::vector<std::vector<uint32_t>> family_by_rank;
  std::vector<double> rank_cdf;
  std::unique_ptr<serve::PlanService> service;
  std::unique_ptr<serve::AdmissionController> admission;  // after service
  /// Per entry: the thresholds its non-exact sampled plans left in the
  /// cache (what an exact hit may return), and its first cold plan.
  std::vector<std::vector<double>> inserted;
  std::vector<double> cold;
  double fingerprint_ms = 0;  ///< mean make_plan_request time
};

template <typename P, typename Input>
ServeEntry make_serve_entry(std::string name, Study study, Input input,
                            const hetsim::Platform& platform,
                            double* fingerprint_ms) {
  P problem(std::move(input), platform);
  ServeEntry e;
  e.name = std::move(name);
  e.lo = problem.threshold_lo();
  e.hi = problem.threshold_hi();
  e.optimum_ns = optimum_ns(problem);
  const auto start = Clock::now();
  if constexpr (std::is_same_v<P, hetalg::HeteroSpmmHh>) {
    e.request = serve::make_plan_request(e.name, study_name(study),
                                         std::move(problem),
                                         robust_config(study), hh_extrapolate);
  } else {
    e.request = serve::make_plan_request(e.name, study_name(study),
                                         std::move(problem),
                                         robust_config(study));
  }
  *fingerprint_ms += ms_since(start);
  return e;
}

/// Check one served plan and update what later exact hits may return.
std::string record_plan(ServeState& st, size_t i,
                        const serve::PlannedPartition& plan) {
  const ServeEntry& e = st.entries[i];
  const double t = plan.threshold;
  if (!std::isfinite(t) || t < e.lo || t > e.hi)
    return strfmt("%s: threshold %g outside [%g, %g]", e.name.c_str(), t,
                  e.lo, e.hi);
  std::vector<double>& inserted = st.inserted[i];
  auto seen = [&] {
    return std::ranges::any_of(inserted,
                               [t](double x) { return same_bits(x, t); });
  };
  if (plan.cache == serve::HitKind::kExact) {
    return seen() ? ""
                  : e.name + ": exact hit returned a threshold no plan of "
                             "this input produced";
  }
  if (plan.stage != core::FallbackStage::kSampled) return "";
  if (plan.cache == serve::HitKind::kMiss) {
    if (std::isnan(st.cold[i])) {
      st.cold[i] = t;
    } else if (!same_bits(st.cold[i], t)) {
      return e.name + ": cold plan differs from its first cold plan";
    }
  }
  if (!seen()) inserted.push_back(t);
  return "";
}

std::unique_ptr<ServeState> setup_serve(uint64_t seed,
                                        const hetsim::Platform& platform) {
  auto st = std::make_unique<ServeState>();
  for (const Study study : kStudies) {
    const auto& names =
        study == Study::kCc ? kServeGraphs : kServeMatrices;
    for (const char* dataset : names) {
      const datasets::DatasetSpec& ds = datasets::spec_by_name(dataset);
      for (const double rows : kServeRows) {
        const double scale = rows / static_cast<double>(ds.paper_n);
        for (int g = 0; g < kSeedsPerFamily; ++g) {
          const uint64_t gen = derive_seed(seed, 1000 + st->entries.size());
          std::string name = strfmt("%s:%s:n%.0f:%d", study_name(study),
                                    dataset, rows, g);
          double* fp = &st->fingerprint_ms;
          switch (study) {
            case Study::kCc:
              st->entries.push_back(make_serve_entry<hetalg::HeteroCc>(
                  std::move(name), study,
                  datasets::make_graph(ds, scale, gen), platform, fp));
              break;
            case Study::kSpmm:
              st->entries.push_back(make_serve_entry<hetalg::HeteroSpmm>(
                  std::move(name), study,
                  datasets::make_matrix(ds, scale, gen), platform, fp));
              break;
            case Study::kHh:
              st->entries.push_back(make_serve_entry<hetalg::HeteroSpmmHh>(
                  std::move(name), study,
                  datasets::make_matrix(ds, scale, gen), platform, fp));
              break;
            case Study::kSpmv:
              st->entries.push_back(make_serve_entry<hetalg::HeteroSpmv>(
                  std::move(name), study,
                  datasets::make_matrix(ds, scale, gen), platform, fp));
              break;
          }
        }
      }
    }
  }
  const size_t n = st->entries.size();
  st->fingerprint_ms /= static_cast<double>(n);
  const auto families = static_cast<uint32_t>(n / kSeedsPerFamily /
                                              std::size(kStudies));
  // Popularity follows catalog order, the same for every seed, so the
  // seed changes the inputs and the request sequence but not which kind
  // of input is hot.
  for (size_t study = 0; study < std::size(kStudies); ++study) {
    std::vector<uint32_t> ranked(families);
    for (uint32_t r = 0; r < families; ++r)
      ranked[r] = static_cast<uint32_t>(study) * families + r;
    st->family_by_rank.push_back(std::move(ranked));
  }
  double total = 0;
  for (uint32_t r = 0; r < families; ++r) {
    total += 1.0 / (r + 1.0);
    st->rank_cdf.push_back(total);
  }
  for (double& c : st->rank_cdf) c /= total;

  st->service = std::make_unique<serve::PlanService>();
  serve::AdmissionController::Options options;
  options.workers = kAdmissionWorkers;
  options.slo =
      strfmt("serve.e2e_ms{class=\"batch\"} p99 < %gms", kLatencyLimitMs);
  st->admission =
      std::make_unique<serve::AdmissionController>(*st->service, options);
  st->inserted.assign(n, {});
  st->cold.assign(n, std::numeric_limits<double>::quiet_NaN());
  // Warm-up: plan every input once through admission, least popular
  // first, so the cache starts the measurement holding the most popular
  // plans.
  for (uint32_t r = families; r-- > 0;) {
    for (const std::vector<uint32_t>& ranked : st->family_by_rank) {
      for (int g = 0; g < kSeedsPerFamily; ++g) {
        const size_t i = ranked[r] * kSeedsPerFamily + g;
        const serve::AdmitOutcome out = st->admission->plan(
            st->entries[i].request, serve::Priority::kBatch);
        const std::string bad = record_plan(*st, i, out.plan);
        if (!bad.empty()) throw Error("warm-up: " + bad);
      }
    }
  }
  return st;
}

size_t draw_entry(const ServeState& st, Rng& rng) {
  const auto& ranked = st.family_by_rank[rng.uniform(std::size(kStudies))];
  const auto rank = static_cast<size_t>(
      std::ranges::upper_bound(st.rank_cdf, rng.uniform_real()) -
      st.rank_cdf.begin());
  const uint32_t family = ranked[std::min(rank, ranked.size() - 1)];
  return family * kSeedsPerFamily + rng.uniform(kSeedsPerFamily);
}

struct Served {
  size_t entry = 0;
  double due_us = 0;     ///< tracer clock
  double submit_us = 0;  ///< tracer clock
  serve::AdmitOutcome out;
};

/// One fixed-rate open-loop phase: Poisson arrivals for `seconds`, each
/// submitted when due regardless of completions; then drained.
struct Phase {
  double rate = 0;
  std::vector<Served> served;
  size_t backlog_at_end = 0;  ///< unresolved when the generator stopped
};

Phase run_phase(const ServeState& st, serve::AdmissionController& ac,
                double rate, double seconds, Rng& rng,
                uint64_t& seq) {
  struct Sent {
    size_t entry;
    double due_us, submit_us;
    std::future<serve::AdmitOutcome> result;
  };
  std::vector<Sent> sent;
  const obs::Tracer& tracer = obs::Tracer::global();
  const auto clock0 = Clock::now();
  const double t0_us = tracer.now_us();
  double due_us = 0;
  for (;;) {
    due_us += -std::log(1.0 - rng.uniform_real()) / rate * 1e6;
    if (due_us >= seconds * 1e6) break;
    const size_t i = draw_entry(st, rng);
    // Spin rather than sleep: waking an idle virtual CPU from a sleep
    // takes milliseconds at the 99th percentile, which would read as
    // generator lag.  The generator is one of the busy threads budgeted
    // against nproc.
    const auto due = clock0 + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double, std::micro>(
                                      due_us));
    while (Clock::now() < due) std::this_thread::yield();
    serve::PlanRequest request = st.entries[i].request;
    request.id = strfmt("s%llu", static_cast<unsigned long long>(seq++));
    const double submit_us = tracer.now_us();
    sent.push_back({i, t0_us + due_us, submit_us,
                    ac.submit(std::move(request), serve::Priority::kBatch)});
  }
  Phase phase;
  phase.rate = rate;
  for (const Sent& s : sent) {
    if (s.result.wait_for(std::chrono::seconds(0)) !=
        std::future_status::ready)
      ++phase.backlog_at_end;
  }
  ac.drain();
  for (Sent& s : sent)
    phase.served.push_back({s.entry, s.due_us, s.submit_us, s.result.get()});
  return phase;
}

/// What the served requests of some phases add up to.
struct ServeStats {
  std::vector<double> latency_ms;  ///< from due time, served requests
  std::vector<double> lag_ms;      ///< generator lateness
  std::vector<double> regret;
  size_t requests = 0, shed = 0, degraded = 0, fallback = 0;
  size_t exact = 0, near = 0, miss = 0;
  double objective_ns = 0;
  double evaluations = 0;

  /// Meets the latency limit without shedding, degrading or a backlog
  /// beyond what the limit allows to drain, at an on-time generator.
  bool passes(double rate, size_t backlog) const {
    return requests > 0 && pct(latency_ms, 99) <= kLatencyLimitMs &&
           (shed + degraded) <= 0.01 * static_cast<double>(requests) &&
           static_cast<double>(backlog) <= rate * kLatencyLimitMs / 1e3 &&
           pct(lag_ms, 99) <= kMaxGeneratorLagMs;
  }
};

/// Check and tally phases in submission order.  Sheds count as failed
/// operations unless `sheds_fail` is false (the overload ladder).
ServeStats account(ServeState& st, const std::vector<const Phase*>& phases,
                   Document& doc, bool sheds_fail) {
  ServeStats s;
  for (const Phase* phase : phases) {
    for (const Served& r : phase->served) {
      ++s.requests;
      const double lag_ms = (r.submit_us - r.due_us) / 1e3;
      s.lag_ms.push_back(lag_ms);
      if (r.out.status == serve::AdmitStatus::kShed) {
        ++s.shed;
        if (sheds_fail)
          doc.fail(std::string("request shed: ") +
                   serve::shed_reason_name(r.out.shed_reason));
        continue;
      }
      s.latency_ms.push_back(lag_ms + r.out.e2e_ms);
      const serve::PlannedPartition& plan = r.out.plan;
      s.degraded += r.out.status == serve::AdmitStatus::kDegraded;
      s.fallback += plan.stage != core::FallbackStage::kSampled;
      s.exact += plan.cache == serve::HitKind::kExact;
      s.near += plan.cache == serve::HitKind::kNear;
      s.miss += plan.cache == serve::HitKind::kMiss;
      s.objective_ns += plan.objective_ns;
      s.evaluations += plan.evaluations;
      s.regret.push_back(plan.objective_ns / st.entries[r.entry].optimum_ns);
      const std::string bad = record_plan(st, r.entry, plan);
      if (!bad.empty()) doc.fail(bad);
    }
  }
  return s;
}

/// Per-layer serve metrics from the flight recorder's request traces of
/// the traced phases, and the serve self-check: admission wait plus the
/// serve.request span (lookup, solve and insert with their bookkeeping)
/// must match AdmitOutcome::e2e_ms within 5 %.
void emit_serve_traces(Document& doc, const std::vector<const Phase*>& traced,
                       uint64_t first_seq) {
  std::map<uint64_t, const Served*> by_seq;
  uint64_t seq = first_seq;
  for (const Phase* phase : traced)
    for (const Served& r : phase->served) by_seq[seq++] = &r;

  std::vector<double> wait_ms, lookup_us, solve_miss, solve_near;
  double sample = 0, identify = 0, extrapolate = 0;
  double accounted_ms = 0, e2e_ms = 0, request_ms = 0, stages_ms = 0;
  size_t matched = 0;
  for (const obs::RequestTrace& t : obs::FlightRecorder::global().recent()) {
    if (t.label.empty() || t.label[0] != 's') continue;
    const auto it = by_seq.find(std::stoull(t.label.substr(1)));
    if (it == by_seq.end()) continue;
    const Served& r = *it->second;
    ++matched;
    const double wait = t.start_ms - r.submit_us / 1e3;
    wait_ms.push_back(wait);
    for (const obs::StageTiming& stage : t.stages) {
      if (stage.stage == "serve.lookup")
        lookup_us.push_back(stage.dur_ms * 1e3);
      if (stage.stage == "serve.solve") {
        if (r.out.plan.cache == serve::HitKind::kMiss)
          solve_miss.push_back(stage.dur_ms);
        if (r.out.plan.cache == serve::HitKind::kNear)
          solve_near.push_back(stage.dur_ms);
      }
      if (stage.stage == "estimate.sample") sample += stage.dur_ms;
      if (stage.stage == "estimate.identify") identify += stage.dur_ms;
      if (stage.stage == "estimate.extrapolate") extrapolate += stage.dur_ms;
      if (stage.stage.starts_with("serve.")) stages_ms += stage.dur_ms;
    }
    request_ms += t.total_ms;
    accounted_ms += wait + t.total_ms;
    e2e_ms += r.out.e2e_ms;
  }
  const double n = static_cast<double>(std::max<size_t>(matched, 1));
  doc.set("serve.lookup_us", lookup_us.empty() ? 0.0 : mean(lookup_us), "us",
          lookup_us.size(), "mean serve.lookup span");
  doc.set("serve.solve_ms.miss", solve_miss.empty() ? 0.0 : mean(solve_miss),
          "ms", solve_miss.size(), "mean serve.solve span of misses");
  doc.set("serve.solve_ms.near", solve_near.empty() ? 0.0 : mean(solve_near),
          "ms", solve_near.size(), "mean serve.solve span of near hits");
  doc.set("serve.admission_wait_p50_ms", pct(wait_ms, 50), "ms",
          wait_ms.size(), "p50 of submit -> worker pickup");
  doc.set("serve.admission_wait_p99_ms", pct(wait_ms, 99), "ms",
          wait_ms.size(), "p99 of submit -> worker pickup");
  doc.set("core.sample_ms", sample / n, "ms", matched,
          "mean estimate.sample time per request");
  doc.set("core.identify_ms", identify / n, "ms", matched,
          "mean estimate.identify time per request");
  doc.set("core.extrapolate_ms", extrapolate / n, "ms", matched,
          "mean estimate.extrapolate time per request");
  const double gap = e2e_ms > 0 ? std::abs(accounted_ms - e2e_ms) / e2e_ms : 1;
  doc.info["self_check.requests_traced"] = static_cast<double>(matched);
  doc.info["self_check.requests_served"] = static_cast<double>(by_seq.size());
  doc.info["self_check.wait_plus_request_ms"] = accounted_ms / n;
  doc.info["self_check.stage_share_of_request"] = stages_ms / request_ms;
  doc.info["self_check.e2e_mean_ms"] = e2e_ms / n;
  doc.info["self_check.gap_pct"] = 100 * gap;
  if (gap > 0.05) {
    doc.fail(strfmt("self-check: admission wait + serve.request = %.4f ms "
                    "per request but e2e_ms = %.4f ms (%.1f%% apart, "
                    "limit 5%%)",
                    accounted_ms / n, e2e_ms / n, 100 * gap));
  }
}

void run_serve(Document& doc, ServeState& st, uint64_t seed, double seconds,
               bool trace, bool smoke) {
  serve::AdmissionController& ac = *st.admission;
  Rng traffic(derive_seed(seed, 3));
  uint64_t seq = 0;
  const double each = trace ? seconds / 4 : seconds / 2;
  auto phase = [&](double rate, double secs) {
    return run_phase(st, ac, rate, secs, traffic, seq);
  };
  auto counters = [] { return obs::Registry::global().snapshot(); };

  // End-to-end pass: the low rate, then the high rate.
  const obs::MetricsSnapshot c0 = counters();
  const Phase low = phase(kLowRps, each);
  const Phase high = phase(kHighRps, each);
  const obs::MetricsSnapshot c1 = counters();
  const ServeStats low_s = account(st, {&low}, doc, true);
  const ServeStats high_s = account(st, {&high}, doc, true);
  std::vector<double> latency = low_s.latency_ms;
  latency.insert(latency.end(), high_s.latency_ms.begin(),
                 high_s.latency_ms.end());
  std::vector<double> regret = low_s.regret;
  regret.insert(regret.end(), high_s.regret.begin(), high_s.regret.end());
  doc.attempted += low_s.requests + high_s.requests;
  const double est_ns =
      counter_delta(c0, c1, "estimate.virtual_cost_ns");
  const double objective_ns = low_s.objective_ns + high_s.objective_ns;
  const size_t served = latency.size();
  doc.info["serve.low_pass"] = low_s.passes(kLowRps, low.backlog_at_end);
  doc.info["serve.high_pass"] = high_s.passes(kHighRps, high.backlog_at_end);
  doc.info["serve.exact_share"] =
      static_cast<double>(low_s.exact + high_s.exact) / served;
  doc.info["serve.near_share"] =
      static_cast<double>(low_s.near + high_s.near) / served;
  doc.info["serve.miss_share"] =
      static_cast<double>(low_s.miss + high_s.miss) / served;
  doc.info["serve.gen_lag_p99_ms"] = std::max(pct(low_s.lag_ms, 99),
                                              pct(high_s.lag_ms, 99));
  if (!trace) {
    std::vector<std::vector<double>> slices;
    for (const ServeStats* stats : {&low_s, &high_s}) {
      const std::vector<double>& xs = stats->latency_ms;
      const size_t k = std::max<size_t>(1, xs.size() / kSliceRequests);
      for (size_t j = 0; j < k; ++j)
        slices.emplace_back(xs.begin() + j * xs.size() / k,
                            xs.begin() + (j + 1) * xs.size() / k);
    }
    emit_job_latency(doc, slices, "request latency from its due time",
                     "1000-request slices");
    doc.set("makespan_regret", geomean(regret), "ratio", served,
            "geomean of served plan makespan / exhaustive optimum");
    doc.set("overhead_pct", 100.0 * est_ns / (est_ns + objective_ns), "%",
            served,
            "virtual estimation / (estimation + makespan) over served plans");
    return;
  }

  // Traced pass: the same two rates with the tracer on and a flight
  // recorder large enough to keep every request.
  zero_per_layer(doc);
  doc.set("serve.lat_low_p50_ms", pct(low_s.latency_ms, 50), "ms",
          low_s.latency_ms.size(), "p50 latency at the low rate");
  doc.set("serve.lat_low_p99_ms", pct(low_s.latency_ms, 99), "ms",
          low_s.latency_ms.size(), "p99 latency at the low rate");
  doc.set("serve.lat_high_p50_ms", pct(high_s.latency_ms, 50), "ms",
          high_s.latency_ms.size(), "p50 latency at the high rate");
  doc.set("serve.lat_high_p99_ms", pct(high_s.latency_ms, 99), "ms",
          high_s.latency_ms.size(), "p99 latency at the high rate");
  obs::FlightRecorder::Options flight;
  flight.capacity =
      static_cast<size_t>((kLowRps + kHighRps) * each * 1.5) + 1024;
  obs::FlightRecorder::global().configure(flight);
  obs::set_trace_enabled(true);
  const uint64_t first_seq = seq;
  const obs::MetricsSnapshot c2 = counters();
  const Phase tlow = phase(kLowRps, each);
  const Phase thigh = phase(kHighRps, each);
  const obs::MetricsSnapshot c3 = counters();
  obs::set_trace_enabled(false);
  obs::Tracer::global().clear();
  const ServeStats ts = account(st, {&tlow, &thigh}, doc, true);
  doc.attempted += ts.requests;
  emit_serve_traces(doc, {&tlow, &thigh}, first_seq);
  obs::FlightRecorder::global().configure({});

  const double served_t = static_cast<double>(ts.latency_ms.size());
  doc.set("serve.cache_exact_share", ts.exact / served_t, "ratio",
          ts.latency_ms.size(), "exact hits / lookups");
  doc.set("serve.cache_near_share", ts.near / served_t, "ratio",
          ts.latency_ms.size(), "near hits / lookups");
  doc.set("serve.cache_miss_share", ts.miss / served_t, "ratio",
          ts.latency_ms.size(), "misses / lookups");
  const double lookups = counter_delta(c2, c3, "serve.cache.lookups");
  doc.set("serve.cache_evictions_per_1k",
          lookups > 0
              ? 1e3 * counter_delta(c2, c3, "serve.cache.evictions") / lookups
              : 0.0,
          "count", static_cast<size_t>(lookups), "evictions per 1000 lookups");
  doc.set("serve.degraded_share",
          static_cast<double>(ts.degraded) / ts.requests, "ratio",
          ts.requests, "admitted with a demotion floor / requests");
  doc.set("serve.shed_share", static_cast<double>(ts.shed) / ts.requests,
          "ratio", ts.requests, "shed / requests");
  doc.set("serve.fingerprint_ms", st.fingerprint_ms, "ms", st.entries.size(),
          "mean make_plan_request time at set-up");
  doc.set("serve.gen_lag_p99_ms", pct(ts.lag_ms, 99), "ms", ts.lag_ms.size(),
          "p99 generator lateness");
  doc.set("core.fallback_share", ts.fallback / served_t, "ratio",
          ts.latency_ms.size(), "plans from a fallback stage / plans");
  doc.set("core.identify_evals", ts.evaluations / served_t, "count",
          ts.latency_ms.size(), "identify evaluations per request");
  const double hits = counter_delta_matching(c2, c3, "identify.", ".cache_hits");
  const double evals =
      counter_delta_matching(c2, c3, "identify.", ".evaluations");
  if (hits + evals > 0) {
    doc.set("core.identify_memo_share", hits / (hits + evals), "ratio",
            static_cast<size_t>(hits + evals),
            "identify probes answered by the memo / probes");
  }
  doc.set("hetsim.estimation_ms",
          counter_delta(c2, c3, "estimate.virtual_cost_ns") / 1e6 / served_t,
          "ms", ts.latency_ms.size(), "virtual estimation cost per request");
  doc.set("hetsim.makespan_ms", ts.objective_ns / 1e6 / served_t, "ms",
          ts.latency_ms.size(), "mean virtual makespan of served plans");
  std::vector<double> traced_latency = ts.latency_ms;
  doc.set("obs.trace_overhead_pct",
          100.0 * (pct(traced_latency, 50) - pct(latency, 50)) /
              pct(latency, 50),
          "%", traced_latency.size(), "traced vs untraced job_p50_ms");

  // Capacity: the highest rate of a x1.15 ladder above the high rate that
  // still passes, each step from a drained queue.
  double max_rate = 0;
  if (low_s.passes(kLowRps, low.backlog_at_end)) max_rate = kLowRps;
  if (high_s.passes(kHighRps, high.backlog_at_end)) {
    max_rate = kHighRps;
    const double step_s = smoke ? 0.2 : 1.0;
    for (int k = 1; k <= kLadderSteps; ++k) {
      const double rate = kHighRps * std::pow(kLadderFactor, k);
      const Phase step = phase(rate, step_s);
      const ServeStats s = account(st, {&step}, doc, false);
      const std::string at = strfmt("ladder.%.0f.", rate);
      doc.info[at + "p99_ms"] = pct(s.latency_ms, 99);
      doc.info[at + "gen_lag_p99_ms"] = pct(s.lag_ms, 99);
      doc.info[at + "backlog"] = static_cast<double>(step.backlog_at_end);
      doc.info[at + "shed_or_degraded"] =
          static_cast<double>(s.shed + s.degraded);
      if (!s.passes(rate, step.backlog_at_end)) break;
      max_rate = rate;
    }
  }
  doc.set("serve.max_rate_rps", max_rate, "req/s", 1,
          "highest ladder rate meeting p99 <= 20 ms with <= 1 % shed or "
          "degraded and no backlog");
}

// ---- main ------------------------------------------------------------------

std::string json_number(double v) {
  return std::isfinite(v) ? strfmt("%.17g", v) : "null";
}

void print_document(const Document& doc, const std::string& head) {
  std::string out = "{" + head;
  out += strfmt(",\"attempted\":%zu,\"failed\":%zu,\"failures\":[",
                doc.attempted, doc.failed);
  for (size_t i = 0; i < doc.failures.size(); ++i) {
    if (i) out += ',';
    out += json_quote(doc.failures[i]);
  }
  out += "],\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : doc.metrics) {
    out += strfmt("%s%s:{\"value\":%s,\"unit\":%s,\"samples\":%zu,"
                  "\"stat\":%s}",
                  first ? "" : ",", json_quote(name).c_str(),
                  json_number(m.value).c_str(), json_quote(m.unit).c_str(),
                  m.samples, json_quote(m.stat).c_str());
    first = false;
  }
  out += "},\"info\":{";
  first = true;
  for (const auto& [name, v] : doc.info) {
    out += strfmt("%s%s:%s", first ? "" : ",", json_quote(name).c_str(),
                  json_number(v).c_str());
    first = false;
  }
  out += "}}\n";
  std::fputs(out.c_str(), stdout);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

unsigned online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0)
    return std::max(1u, std::thread::hardware_concurrency());
  return static_cast<unsigned>(CPU_COUNT(&set));
}

int run(int argc, char** argv) {
  Cli cli("nbwp_bench", "one workload of the repository benchmark");
  cli.add_option("workload", "plan-cold",
                 "plan-cold | solve | serve-mix | kway");
  cli.add_option("seed", "1", "workload seed (inputs and traffic order)");
  cli.add_option("seconds", "15", "measured window");
  cli.add_flag("trace", "per-layer run: untraced half + traced half");
  cli.add_flag("smoke", "1/20 of the window and a single set-up");
  if (!cli.parse(argc, argv)) return 0;
  const std::string workload = cli.str("workload");
  const auto seed = static_cast<uint64_t>(cli.integer("seed"));
  const bool trace = cli.flag("trace");
  const bool smoke = cli.flag("smoke");
  double seconds = cli.real("seconds");
  if (smoke) seconds = std::max(0.25, seconds / 20);
  const bool scalar = workload == "plan-cold" || workload == "solve";
  const bool serve_mix = workload == "serve-mix";
  if (!scalar && !serve_mix && workload != "kway")
    throw Error("unknown workload '" + workload + "'");
  if (!(seconds > 0)) throw Error("--seconds must be positive");
  set_log_level(LogLevel::kWarn);

  // Closed loops keep the whole pool busy during run(); serve-mix runs a
  // generator thread plus the admission workers (planning never enters
  // the pool).  Never ask for more busy threads than CPUs.
  const unsigned nproc = online_cpus();
  const unsigned pool = ThreadPool::global().size();
  const unsigned busy = serve_mix ? 1 + kAdmissionWorkers : pool;
  if (busy > nproc) {
    throw Error(strfmt("%s would keep %u threads busy on %u CPUs",
                       workload.c_str(), busy, nproc));
  }

  const hetsim::Platform reference = hetsim::Platform::reference();
  const hetsim::Platform four_device = four_device_platform();
  // Serving is measured the way it runs in production: with metrics
  // collection on, which the admission SLO monitor reads.
  if (serve_mix) obs::set_metrics_enabled(true);

  std::unique_ptr<ScalarState> scalar_state;
  std::unique_ptr<KwayState> kway_state;
  std::unique_ptr<ServeState> serve_state;
  std::vector<double> setup_s;
  // Memory is read once the workload is first loaded and warm.  Later
  // readings depend on the allocator: set-ups after the first reuse
  // memory freed by the one before, and the kernels' pooled workspaces
  // keep growing toward their high water for minutes of jobs, so a
  // reading at the end would depend on how many jobs the machine managed.
  double setup_rss_mb = 0;
  const int repeats = smoke ? 1 : 3;
  for (int rep = 0; rep < repeats; ++rep) {
    scalar_state.reset();
    kway_state.reset();
    serve_state.reset();
    const auto start = Clock::now();
    if (scalar) {
      scalar_state = setup_scalar(seed, workload == "solve", reference);
    } else if (serve_mix) {
      serve_state = setup_serve(seed, reference);
    } else {
      kway_state = setup_kway(seed, four_device);
    }
    setup_s.push_back(ms_since(start) / 1e3);
    if (rep == 0) setup_rss_mb = peak_rss_mb();
  }

  Document doc;
  if (scalar) {
    run_scalar(doc, *scalar_state, workload == "solve", seed, seconds, trace,
               reference);
  } else if (serve_mix) {
    run_serve(doc, *serve_state, seed, seconds, trace, smoke);
  } else {
    run_kway(doc, *kway_state, seed, seconds, trace, four_device);
  }
  if (!trace) {
    doc.set("setup_s", median(setup_s), "s", setup_s.size(),
            "median set-up time");
    doc.set("peak_rss_mb", setup_rss_mb, "MB", 1,
            "ru_maxrss of the workload process after its first set-up");
    doc.info["peak_rss_end_mb"] = peak_rss_mb();
  }
  std::string setup_list;
  for (double s : setup_s) {
    if (!setup_list.empty()) setup_list += ',';
    setup_list += json_number(s);
  }
  print_document(
      doc,
      strfmt("\"workload\":%s,\"seed\":%llu,\"seconds\":%s,\"trace\":%s,"
             "\"smoke\":%s,\"setup_runs_s\":[%s],\"manifest\":{\"nproc\":%u,"
             "\"pool_size\":%u,\"admission_workers\":%d,\"busy_threads\":%u,"
             "\"build_type\":%s,\"sampling_seed\":%llu,"
             "\"setup_repeats\":%d}",
             json_quote(workload).c_str(),
             static_cast<unsigned long long>(seed),
             json_number(seconds).c_str(), trace ? "true" : "false",
             smoke ? "true" : "false", setup_list.c_str(), nproc, pool,
             serve_mix ? kAdmissionWorkers : 0, busy,
             json_quote(NBWP_BENCH_BUILD_TYPE).c_str(),
             static_cast<unsigned long long>(kSamplingSeed), repeats));
  return doc.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nbwp_bench: error: %s\n", e.what());
    return 2;
  }
}
