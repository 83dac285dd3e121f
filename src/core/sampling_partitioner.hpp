// SamplingPartitioner — the paper's three-step framework (Section II):
//
//   1. Sample       draw a miniature input I_s from I with randomization,
//   2. Identify     search for the best threshold t' on I_s by running the
//                   heterogeneous algorithm itself,
//   3. Extrapolate  map t' to a threshold t for I.
//
// The framework is generic over the heterogeneous algorithm: any Problem
// type satisfying the PartitionProblem concept below plugs in (the three
// case studies HeteroCc / HeteroSpmm / HeteroSpmmHh all do, and
// examples/custom_algorithm.cpp shows a user-defined one).
//
// Identification minimizes the *work balance* |T_cpu_work - T_gpu_work| by
// default — the quantity the title promises to equalize.  Threshold-
// independent overheads (kernel launches, PCIe setup) are excluded from
// the objective because on sqrt(n)-sized samples they would drown the
// signal; makespan is available as an alternative objective and is always
// what the exhaustive oracle optimizes on the full input.
#pragma once

#include <algorithm>
#include <concepts>
#include <functional>

#include "core/identify.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/strfmt.hpp"

namespace nbwp::core {

/// Requirements on a heterogeneous algorithm bound to one input.
template <typename P>
concept PartitionProblem = requires(const P& p, double t, double f, Rng& rng) {
  { p.time_ns(t) } -> std::convertible_to<double>;     // makespan at t
  { p.balance_ns(t) } -> std::convertible_to<double>;  // |cpu-gpu| work
  { p.make_sample(f, rng) } -> std::convertible_to<P>;
  { p.sampling_cost_ns(f) } -> std::convertible_to<double>;
  { p.threshold_lo() } -> std::convertible_to<double>;
  { p.threshold_hi() } -> std::convertible_to<double>;
};

enum class IdentifyMethod {
  kCoarseToFine,     ///< CC: grid step 8 then step 1 (Section III-A.2)
  kRaceThenFine,     ///< spmm: device race + local grid (Section IV-A.b)
  kGradientDescent,  ///< scale-free spmm (Section V-A.2)
  kGoldenSection,    ///< ablation alternative
};

enum class Objective { kBalance, kMakespan };

struct SamplingConfig {
  double sample_factor = 1.0;  ///< problem-specific size knob: factor of
                               ///< sqrt(n) for CC/HH, fraction of n for spmm
  IdentifyMethod method = IdentifyMethod::kCoarseToFine;
  Objective objective = Objective::kBalance;
  /// Extrapolate step; identity unless the threshold scale changes under
  /// sampling (HH uses a relation fitted offline, see util/bestfit.hpp).
  std::function<double(double)> extrapolate;
  uint64_t seed = 0x5EED;
  int repeats = 1;  ///< independent samples; thresholds are averaged
  double coarse_step = 8, fine_step = 1;       // kCoarseToFine
  double race_fine_halfwidth = 7.5, race_fine_step = 3;  // kRaceThenFine
  GradientDescentOptions gradient{};           // kGradientDescent
  /// Simulated measurement jitter (sigma, ns) added to every observed
  /// sample-run objective.  Real systems time the sample runs with finite
  /// precision; on very small samples the signal sinks below this noise
  /// floor, which is what makes undersized samples misestimate (the left
  /// side of the Fig. 4/6/9 U-curves).  Deterministic per seed.
  double timing_noise_ns = 150.0;
  /// Identify budgets, forwarded to Evaluator (0 disables each; see
  /// identify.hpp).  On exhaustion the identify step throws
  /// IdentifyDeadlineExceeded — use robust_estimate_partition() to turn
  /// that into a fallback instead of a failure.
  double identify_wall_deadline_ns = 0.0;
  double identify_virtual_budget_ns = 0.0;
  int identify_max_evaluations = 0;
  /// Called once per objective evaluation on the sample; returns a sigma
  /// multiplier for that observation's timing noise and may throw (e.g.
  /// hetsim::DeviceFault from a fault injector) to abort identification.
  /// This is how injected platform adversity reaches the estimation
  /// pipeline's probes.
  std::function<double(double)> probe_hook;
  /// Warm start (serve/plan_cache.hpp): when in [0, 1], the cold identify
  /// search is replaced by warm_refine() around the sample threshold whose
  /// CPU work share equals this value — the cached threshold of a
  /// structurally similar input, re-expressed in the share space that
  /// survives sampling (identity for percent thresholds, work-share
  /// inversion for cutoffs).  Negative disables (cold search).
  double warm_start_cpu_share = -1.0;
  WarmRefineOptions warm{};  ///< bracket of the warm-started refinement
};

struct PartitionEstimate {
  double threshold = 0;         ///< extrapolated, for the full input
  double sample_threshold = 0;  ///< t' found on the sample (last repeat)
  double estimation_cost_ns = 0;
  int evaluations = 0;
};

namespace detail {

/// Map a CPU work-share fraction in [0,1] to a threshold for `p`.
/// Problems exposing work-share inversion (HH-style cutoffs) use it;
/// percent thresholds map linearly.  Shared by the robustness fallbacks
/// (core/robust_estimate.hpp) and the serve warm-start path.
template <typename P>
double threshold_for_cpu_share(const P& p, double share) {
  share = std::clamp(share, 0.0, 1.0);
  if constexpr (requires { p.threshold_for_work_share(share); }) {
    return p.threshold_for_work_share(share);
  } else {
    return p.threshold_lo() + share * (p.threshold_hi() - p.threshold_lo());
  }
}

/// Inverse of threshold_for_cpu_share: the CPU work share a threshold
/// routes to the CPU on `p` (heavy rows for cutoff problems).
template <typename P>
double cpu_share_of_threshold(const P& p, double t) {
  if constexpr (requires { p.work_share_above(t); }) {
    return p.work_share_above(t);
  } else {
    const double lo = p.threshold_lo(), hi = p.threshold_hi();
    return hi > lo ? std::clamp((t - lo) / (hi - lo), 0.0, 1.0) : 0.0;
  }
}

/// What one probe of the sampled algorithm reports for the objective
/// value `raw`: the probe hook sees it first (it may throw, e.g. a fault
/// injector's DeviceFault) and returns a sigma multiplier, then seeded
/// timing noise of that sigma is added, clamped at 0.  Every identify
/// search, scalar or K-way, observes its probes through this one step.
inline double observe_probe(const SamplingConfig& cfg, double raw,
                            Rng& noise_rng) {
  const double sigma_factor = cfg.probe_hook ? cfg.probe_hook(raw) : 1.0;
  if (cfg.timing_noise_ns <= 0) return raw;
  return std::max(
      0.0, raw + noise_rng.normal(0, cfg.timing_noise_ns * sigma_factor));
}

template <typename P>
IdentifyResult identify_on(const P& sample, const SamplingConfig& cfg,
                           Rng& noise_rng) {
  Evaluator eval;
  eval.lo = sample.threshold_lo();
  eval.hi = sample.threshold_hi();
  eval.wall_deadline_ns = cfg.identify_wall_deadline_ns;
  eval.virtual_budget_ns = cfg.identify_virtual_budget_ns;
  eval.max_evaluations = cfg.identify_max_evaluations;
  if (cfg.objective == Objective::kBalance) {
    eval.objective_ns = [&sample, &cfg, &noise_rng](double t) {
      return observe_probe(cfg, sample.balance_ns(t), noise_rng);
    };
  } else {
    eval.objective_ns = [&sample, &cfg, &noise_rng](double t) {
      return observe_probe(cfg, sample.time_ns(t), noise_rng);
    };
  }
  // Each candidate evaluation stands for one run of the heterogeneous
  // algorithm on the sample; charge its makespan.
  eval.cost_ns = [&sample](double t) { return sample.time_ns(t); };

  if (cfg.warm_start_cpu_share >= 0.0) {
    const double t0 =
        threshold_for_cpu_share(sample, cfg.warm_start_cpu_share);
    return warm_refine(eval, t0, cfg.warm);
  }

  switch (cfg.method) {
    case IdentifyMethod::kCoarseToFine:
      return coarse_to_fine(eval, cfg.coarse_step, cfg.fine_step);
    case IdentifyMethod::kRaceThenFine:
      if constexpr (requires { sample.device_times_all(); }) {
        const auto [cpu_ns, gpu_ns] = sample.device_times_all();
        return race_then_fine(eval, cpu_ns, gpu_ns,
                              cfg.race_fine_halfwidth, cfg.race_fine_step);
      } else {
        NBWP_REQUIRE(false,
                     "race identification needs device_times_all()");
      }
    case IdentifyMethod::kGradientDescent:
      return gradient_descent(eval, cfg.gradient);
    case IdentifyMethod::kGoldenSection:
      return golden_section(eval);
  }
  NBWP_REQUIRE(false, "unknown identification method");
}

}  // namespace detail

/// Run Sample -> Identify -> Extrapolate with a rich extrapolator that can
/// inspect both the full problem and the sample it was found on:
/// `extrapolate(full, sample, t_sample) -> t_full`.  This is the hook the
/// HH case study uses for work-share matching (the Section II framework
/// explicitly allows the Extrapolate step to "deploy tools from other
/// domains").
template <PartitionProblem P, typename ExtrapolateFn>
  requires std::invocable<ExtrapolateFn, const P&, const P&, double>
PartitionEstimate estimate_partition(const P& problem,
                                     const SamplingConfig& cfg,
                                     ExtrapolateFn&& extrapolate) {
  NBWP_REQUIRE(cfg.repeats >= 1, "repeats must be >= 1");
  obs::Span estimate_span("estimate");
  obs::count("estimate.calls");
  Rng rng(cfg.seed);
  PartitionEstimate est;
  double threshold_sum = 0;
  for (int rep = 0; rep < cfg.repeats; ++rep) {
    const P sample = [&] {
      obs::Span span("estimate.sample");
      return problem.make_sample(cfg.sample_factor, rng);
    }();
    est.estimation_cost_ns += problem.sampling_cost_ns(cfg.sample_factor);
    Rng noise_rng = rng.fork();
    const IdentifyResult found = [&] {
      obs::Span span("estimate.identify");
      return detail::identify_on(sample, cfg, noise_rng);
    }();
    est.estimation_cost_ns += found.cost_ns;
    est.evaluations += found.evaluations;
    est.sample_threshold = found.best_threshold;
    {
      obs::Span span("estimate.extrapolate");
      threshold_sum += extrapolate(problem, sample, found.best_threshold);
    }
    log_debug(strfmt("estimate repeat %d/%d: t'=%.2f after %d evaluations "
                     "(virtual cost %.3f ms)",
                     rep + 1, cfg.repeats, found.best_threshold,
                     found.evaluations, found.cost_ns / 1e6));
  }
  est.threshold = std::clamp(threshold_sum / cfg.repeats,
                             problem.threshold_lo(), problem.threshold_hi());
  obs::count("estimate.repeats", cfg.repeats);
  obs::count("estimate.evaluations", est.evaluations);
  obs::count("estimate.virtual_cost_ns", est.estimation_cost_ns);
  log_debug(strfmt("estimate: extrapolated threshold %.2f (%d evaluations, "
                   "virtual cost %.3f ms)",
                   est.threshold, est.evaluations,
                   est.estimation_cost_ns / 1e6));
  return est;
}

/// Run Sample -> Identify -> Extrapolate with the scalar extrapolation in
/// `cfg.extrapolate` (identity when unset).
template <PartitionProblem P>
PartitionEstimate estimate_partition(const P& problem,
                                     const SamplingConfig& cfg) {
  return estimate_partition(
      problem, cfg, [&cfg](const P&, const P&, double t_sample) {
        return cfg.extrapolate ? cfg.extrapolate(t_sample) : t_sample;
      });
}

}  // namespace nbwp::core
