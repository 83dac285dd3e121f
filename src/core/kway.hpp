// K-way identification: Sample -> Identify -> Extrapolate over
// PartitionDescriptors instead of scalar thresholds.
//
// Two entry points mirror the scalar pipeline:
//
//   estimate_partition_kway        the paper's pipeline over descriptors
//   robust_estimate_partition_kway the same under the fallback chain
//
// K = 2 is not reimplemented: it *delegates* to the scalar
// estimate_partition / robust_estimate_partition and embeds the resulting
// threshold as a two-way descriptor.  That makes the equivalence claim of
// docs/PARTITIONING.md structural — the K = 2 descriptor path runs the
// identical code, so thresholds, objective values and evaluation counts
// match the scalar path bitwise.  Each CostObjective maps to the scalar
// objective with the same K = 2 argmin: kBalanced and kGreedy reduce to
// |cpu - gpu| (Objective::kBalance; at two devices the greedy overload is
// exactly half the spread), kCriticalPath and kMinMaxWorkloads to the
// makespan (Objective::kMakespan).
//
// K > 2 needs the problem to expose the descriptor interface
// (KwayExecutableProblem below; hetalg::HeteroSpmm implements it).  The
// identify step is a coordinate-descent sweep over the K-1 interior
// boundaries in cumulative-share-percent space — the coarse-then-fine
// grid of Section III-A.2 lifted one dimension per extra device, with the
// scalar sampling.coarse_step / fine_step and at most kKwayMaxSweeps
// sweeps per step.  Its probes run on the scalar search's machinery: one
// IdentifyBudget checks the budgets and charges each probe's makespan,
// and observe_probe applies the probe hook and timing noise.
// Extrapolation is the identity in share space (shares survive sampling
// where raw cutoffs do not, the same reasoning as the serve warm-start
// path).
//
// The K > 2 fallback chain runs the scalar chain's guarded sampled stage
// (detail::guarded_sampled_stage: degenerate-input check, fault-injector
// probe hook, catch ladder), then naive-static (shares proportional to
// per-device effective throughput); the race stage is inherently
// two-device and is skipped.  A GPU known dead degrades to the all-CPU
// descriptor, as in the scalar chain.
#pragma once

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "core/partition_descriptor.hpp"
#include "core/robust_estimate.hpp"

namespace nbwp::core {

/// A problem that can price and execute an arbitrary descriptor (beyond
/// the scalar PartitionProblem interface).
template <typename P>
concept KwayExecutableProblem =
    requires(const P& p, const PartitionDescriptor& d) {
      { p.kway_marginal_work_ns(d) }
          -> std::convertible_to<std::vector<double>>;
      { p.kway_time_ns(d) } -> std::convertible_to<double>;
    };

struct KwayConfig {
  int devices = 2;
  CostObjective objective = CostObjective::kBalanced;
  /// The scalar pipeline's configuration: sampling, identify budgets,
  /// noise, probe hook, start stage.  At K = 2 it is forwarded verbatim
  /// (only `objective` above overrides sampling.objective).
  /// At K > 2 the boundary descent takes its grid steps (percent of
  /// cumulative share) from sampling.coarse_step and fine_step.
  RobustConfig robust{};
};

struct KwayEstimate {
  PartitionDescriptor descriptor;
  /// Scalar threshold when devices == 2 (the delegated estimate);
  /// unused for K > 2.
  double threshold = 0;
  FallbackStage stage = FallbackStage::kSampled;
  std::string reason;
  double estimation_cost_ns = 0;
  int evaluations = 0;
};

namespace detail {

inline Objective scalar_objective_for(CostObjective objective) {
  switch (objective) {
    case CostObjective::kBalanced:
    case CostObjective::kGreedy:
      return Objective::kBalance;
    case CostObjective::kCriticalPath:
    case CostObjective::kMinMaxWorkloads:
      return Objective::kMakespan;
  }
  return Objective::kBalance;
}

/// Cap on full coordinate-descent sweeps per grid resolution.
inline constexpr int kKwayMaxSweeps = 8;

/// Coordinate descent over the K-1 interior boundaries on `sample`.
/// Budgets, charging, noise and the probe hook are the scalar search's
/// own (IdentifyBudget, observe_probe); throws IdentifyDeadlineExceeded
/// when a budget runs out.
template <typename P>
IdentifyResult identify_kway_on(const P& sample, const KwayConfig& cfg,
                                PartitionDescriptor& best_out,
                                Rng& noise_rng) {
  const int k = cfg.devices;
  const SamplingConfig& scfg = cfg.robust.sampling;
  IdentifyBudget budget(scfg.identify_wall_deadline_ns,
                        scfg.identify_virtual_budget_ns,
                        scfg.identify_max_evaluations);
  IdentifyResult result;
  // Memoized on the quantized boundary vector: revisited corners during
  // later sweeps are free, like the scalar searches' threshold memo.
  std::map<std::vector<long long>, double> memo;

  auto objective_at = [&](const std::vector<double>& cum) {
    std::vector<long long> key(cum.size());
    for (size_t i = 0; i < cum.size(); ++i)
      key[i] = std::llround(cum[i] * 64.0);
    if (auto it = memo.find(key); it != memo.end()) {
      ++result.cache_hits;
      return it->second;
    }
    budget.check();
    const PartitionDescriptor d =
        PartitionDescriptor::from_cumulative_pct(cum);
    const double makespan = sample.kway_time_ns(d);
    const double observed = observe_probe(
        scfg,
        cfg.objective == CostObjective::kCriticalPath
            ? makespan
            : descriptor_cost(cfg.objective, sample.kway_marginal_work_ns(d)),
        noise_rng);
    // Each evaluation stands for one run of the heterogeneous algorithm
    // on the sample; charge its makespan.
    budget.charge(makespan);
    memo.emplace(std::move(key), observed);
    return observed;
  };

  // Start from the throughput-proportional boundaries so the first sweep
  // refines a sane split instead of crawling away from a corner.
  std::vector<double> cum =
      PartitionDescriptor::from_weights(
          platform_of(sample).device_ops_per_s(static_cast<size_t>(k)))
          .cumulative_pct();
  double best = objective_at(cum);
  for (double step : {scfg.coarse_step, scfg.fine_step}) {
    if (step <= 0) continue;
    bool improved = true;
    for (int sweep = 0; improved && sweep < kKwayMaxSweeps; ++sweep) {
      improved = false;
      for (int j = 0; j < k - 1; ++j) {
        const double lo = j == 0 ? 0.0 : cum[static_cast<size_t>(j - 1)];
        const double hi =
            j == k - 2 ? 100.0 : cum[static_cast<size_t>(j + 1)];
        for (double c = lo; c < hi + step; c += step) {
          std::vector<double> trial = cum;
          trial[static_cast<size_t>(j)] = std::min(c, hi);
          const double obj = objective_at(trial);
          if (obj < best) {
            best = obj;
            cum = std::move(trial);
            improved = true;
          }
        }
      }
    }
  }
  best_out = PartitionDescriptor::from_cumulative_pct(cum);
  result.best_objective = best;
  result.best_threshold = cum.empty() ? 0.0 : cum[0];
  result.cost_ns = budget.cost_ns();
  result.evaluations = budget.evaluations();
  return result;
}

/// Preconditions of both K-way entry points: two devices or more, and the
/// descriptor interface beyond two.
template <typename P>
void require_kway(const KwayConfig& cfg) {
  NBWP_REQUIRE(cfg.devices >= 2, "k-way estimation needs >= 2 devices");
  NBWP_REQUIRE(cfg.devices == 2 || KwayExecutableProblem<P>,
               "problem does not implement the k-way descriptor "
               "interface (kway_marginal_work_ns / kway_time_ns)");
}

}  // namespace detail

/// Sample -> Identify -> Extrapolate over descriptors.  K = 2 delegates
/// to the scalar estimate_partition; K > 2 requires the problem to model
/// KwayExecutableProblem and throws on budget exhaustion like the scalar
/// pipeline (wrap with robust_estimate_partition_kway for the fallback
/// chain).  Fires identify.kway.evals.
template <PartitionProblem P>
KwayEstimate estimate_partition_kway(const P& problem,
                                     const KwayConfig& cfg) {
  detail::require_kway<P>(cfg);
  KwayEstimate out;
  if (cfg.devices == 2) {
    SamplingConfig scfg = cfg.robust.sampling;
    scfg.objective = detail::scalar_objective_for(cfg.objective);
    const PartitionEstimate est = estimate_partition(problem, scfg);
    out.descriptor = PartitionDescriptor::two_way(
        detail::cpu_share_of_threshold(problem, est.threshold));
    out.threshold = est.threshold;
    out.estimation_cost_ns = est.estimation_cost_ns;
    out.evaluations = est.evaluations;
    return out;
  }
  if constexpr (KwayExecutableProblem<P>) {
    obs::Span estimate_span("estimate.kway");
    Rng rng(cfg.robust.sampling.seed);
    const P sample =
        problem.make_sample(cfg.robust.sampling.sample_factor, rng);
    out.estimation_cost_ns +=
        problem.sampling_cost_ns(cfg.robust.sampling.sample_factor);
    Rng noise_rng = rng.fork();
    const IdentifyResult found =
        detail::identify_kway_on(sample, cfg, out.descriptor, noise_rng);
    out.estimation_cost_ns += found.cost_ns;
    out.evaluations = found.evaluations;
    obs::count("identify.kway.evals", found.evaluations);
    log_debug(strfmt("k-way estimate: %s after %d evaluations",
                     out.descriptor.to_string().c_str(), found.evaluations));
  }
  return out;
}

/// estimate_partition_kway under guard rails.  K = 2 delegates to the
/// scalar robust_estimate_partition (identical chain, identical plans);
/// K > 2 runs the scalar chain's guarded sampled stage, then naive-static,
/// with the degraded all-CPU descriptor when the GPU is known dead.
/// Fires plan.devices.
template <PartitionProblem P>
KwayEstimate robust_estimate_partition_kway(const P& problem,
                                            const KwayConfig& cfg) {
  detail::require_kway<P>(cfg);
  obs::count("plan.devices", cfg.devices);
  if (cfg.devices == 2) {
    RobustConfig rcfg = cfg.robust;
    rcfg.sampling.objective = detail::scalar_objective_for(cfg.objective);
    const RobustEstimate est = robust_estimate_partition(problem, rcfg);
    KwayEstimate out;
    out.descriptor = PartitionDescriptor::two_way(
        detail::cpu_share_of_threshold(problem, est.threshold));
    out.threshold = est.threshold;
    out.stage = est.stage;
    out.reason = est.reason;
    out.estimation_cost_ns = est.estimation_cost_ns;
    out.evaluations = est.evaluations;
    return out;
  }
  KwayEstimate out;
  const hetsim::Platform& platform = detail::platform_of(problem);
  hetsim::FaultInjector* injector = platform.faults();
  if (injector && injector->gpu_dead()) {
    out.stage = FallbackStage::kDegraded;
    out.reason = "gpu_offline";
    out.descriptor = PartitionDescriptor::all_cpu(cfg.devices);
    detail::count_trigger(out.reason);
    detail::count_stage(out.stage);
    return out;
  }
  auto est = detail::guarded_sampled_stage(
      problem, cfg.robust, out, [&](const SamplingConfig& scfg) {
        KwayConfig kcfg = cfg;
        kcfg.robust.sampling = scfg;
        KwayEstimate e = estimate_partition_kway(problem, kcfg);
        if (!e.descriptor.valid())
          throw DegenerateSample("k-way descriptor is not valid");
        return e;
      });
  if (est) {
    detail::count_stage(est->stage);
    return *std::move(est);
  }
  // Naive static: shares proportional to each device's effective
  // throughput — spec sheets only, cannot fail.
  out.stage = FallbackStage::kNaiveStatic;
  if (injector && injector->gpu_dead()) {
    out.descriptor = PartitionDescriptor::all_cpu(cfg.devices);
  } else {
    out.descriptor = PartitionDescriptor::from_weights(
        platform.device_ops_per_s(static_cast<size_t>(cfg.devices)));
  }
  detail::count_stage(out.stage);
  return out;
}

}  // namespace nbwp::core
