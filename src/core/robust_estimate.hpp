// Guarded estimation: SamplingPartitioner wrapped in a fallback chain.
//
// The framework's Sample -> Identify -> Extrapolate pipeline assumes the
// platform and the input behave.  robust_estimate_partition() drops that
// assumption: it runs the sampled estimate under the configured identify
// budgets and, whenever the estimate cannot be trusted — identify deadline
// exhausted, a degenerate sample or input, an injected device fault, any
// estimation error — degrades through progressively cheaper strategies
// instead of propagating the failure:
//
//   kSampled       the paper's pipeline (estimate_partition)
//   kRace          race-based coarse estimate: time both devices on the
//                  whole input, split by the throughput ratio (the spmm
//                  Section IV-A.b idea applied as a recovery strategy)
//   kNaiveStatic   peak-FLOPS ratio of the devices (Section III-B.2);
//                  needs no input inspection at all, cannot fail
//   kDegraded      the GPU is known dead before estimation: all work goes
//                  to the CPU-most threshold, no search at all
//
// The sampled stage (detail::guarded_sampled_stage) is shared with the
// K-way chain of core/kway.hpp.  Every transition is counted
// (robustness.fallback.<stage>, robustness.trigger.<reason>) so run
// manifests show how a threshold was obtained.  The chain is deterministic per seed for virtual/seeded
// triggers; the identify *wall* deadline is the only machine-dependent
// trigger (docs/ROBUSTNESS.md).
#pragma once

#include <cmath>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>

#include "core/baselines.hpp"
#include "core/sampling_partitioner.hpp"
#include "hetsim/faults.hpp"
#include "hetsim/platform.hpp"

namespace nbwp::core {

enum class FallbackStage { kSampled, kRace, kNaiveStatic, kDegraded };

const char* fallback_stage_name(FallbackStage stage);

/// Thrown inside the sampled stage when the drawn sample carries no signal
/// (no vertices/rows, zero work volume): searching it would return an
/// arbitrary threshold.
class DegenerateSample : public Error {
 public:
  using Error::Error;
};

struct RobustConfig {
  SamplingConfig sampling;
  /// First stage to try; later stages remain reachable.  kRace and
  /// kNaiveStatic let callers skip sampling deliberately (nbwp_cli
  /// --fallback race|naive-static).
  FallbackStage start_stage = FallbackStage::kSampled;
};

struct RobustEstimate {
  double threshold = 0;
  FallbackStage stage = FallbackStage::kSampled;
  /// Why the preceding stage(s) were abandoned; empty when the start stage
  /// succeeded outright.
  std::string reason;
  double estimation_cost_ns = 0;
  int evaluations = 0;
  /// The sampled pipeline's full result; meaningful when stage == kSampled.
  PartitionEstimate sampled{};
};

namespace detail {

/// The threshold routing (nearly) all work to the CPU.  For percent-share
/// thresholds this is threshold_hi(); HH-style cutoff problems expose
/// threshold_for_work_share and get the cutoff whose heavy-row (CPU) work
/// share is total.
template <typename P>
double cpu_most_threshold(const P& p) {
  if constexpr (requires { p.threshold_for_work_share(1.0); }) {
    return p.threshold_for_work_share(1.0);
  } else {
    return p.threshold_hi();
  }
}

template <typename P>
double gpu_most_threshold(const P& p) {
  if constexpr (requires { p.threshold_for_work_share(0.0); }) {
    return p.threshold_for_work_share(0.0);
  } else {
    return p.threshold_lo();
  }
}

// threshold_for_cpu_share / cpu_share_of_threshold live in
// core/sampling_partitioner.hpp (shared with the serve warm-start path).

/// True when `p` carries no partitionable signal: estimating on it would
/// return an arbitrary threshold (and some kernels would divide by zero).
template <typename P>
bool is_degenerate(const P& p) {
  if (!(p.threshold_lo() <= p.threshold_hi())) return true;
  if constexpr (requires { p.input().num_vertices(); }) {
    if (p.input().num_vertices() == 0 || p.input().num_edges() == 0)
      return true;
  }
  if constexpr (requires { p.total_work(); }) {
    if (p.total_work() == 0) return true;
  }
  if constexpr (requires { p.a().nnz(); }) {
    if (p.a().nnz() == 0) return true;
  }
  const double t_lo = p.time_ns(p.threshold_lo());
  const double t_hi = p.time_ns(p.threshold_hi());
  if (!std::isfinite(t_lo) || !std::isfinite(t_hi)) return true;
  return false;
}

template <typename P>
const hetsim::Platform& platform_of(const P& p) {
  if constexpr (requires {
                  { p.platform() } -> std::convertible_to<const hetsim::Platform&>;
                }) {
    return p.platform();
  } else {
    return hetsim::Platform::reference();
  }
}

inline void count_stage(FallbackStage stage) {
  obs::count(std::string("robustness.fallback.") + fallback_stage_name(stage));
}

inline void count_trigger(const std::string& reason) {
  if (!reason.empty())
    obs::count("robustness.trigger." + reason);
}

/// Count why a stage was abandoned and append it to `out.reason`.
template <typename Out>
void note_trigger(Out& out, const std::string& reason) {
  count_trigger(reason);
  out.reason = out.reason.empty() ? reason : out.reason + "," + reason;
}

/// The sampled stage of both fallback chains, the scalar one below and
/// the K-way one (core/kway.hpp).  It runs only when cfg.start_stage is
/// kSampled, and a degenerate input skips it.  Otherwise
/// `estimate(sampling)` runs with the platform's fault injector as the
/// probe hook when the config sets none, and `estimate` throws
/// DegenerateSample when its result is no usable plan.  Returns that
/// result, or nothing after noting in `out` why the stage failed — an
/// identify deadline also carries the evaluations and virtual cost it
/// spent into `out` — so the caller falls back to its next stage.
template <typename P, typename Out, typename Estimate>
auto guarded_sampled_stage(const P& problem, const RobustConfig& cfg,
                           Out& out, Estimate&& estimate)
    -> std::optional<std::invoke_result_t<Estimate&, const SamplingConfig&>> {
  if (cfg.start_stage != FallbackStage::kSampled) return std::nullopt;
  if (is_degenerate(problem)) {
    note_trigger(out, "degenerate_input");
    return std::nullopt;
  }
  SamplingConfig scfg = cfg.sampling;
  hetsim::FaultInjector* injector = platform_of(problem).faults();
  if (injector && !scfg.probe_hook) {
    // Estimation probes share the run's device timeline: each probe is
    // one GPU kernel invocation (advancing the virtual clock by the
    // observed objective) and may draw a noise spike.
    scfg.probe_hook = [injector](double observed_ns) {
      injector->gpu_kernel("estimate.probe", observed_ns);
      return injector->noise_sigma_factor();
    };
  }
  auto fall_back = [&out](const char* reason, const Error& e) {
    note_trigger(out, reason);
    log_warn(std::string("robust estimate: ") + e.what() +
             "; falling back to the next stage");
  };
  try {
    return estimate(std::as_const(scfg));
  } catch (const IdentifyDeadlineExceeded& e) {
    obs::count("robustness.deadline.identify");
    out.estimation_cost_ns += e.virtual_spent_ns();
    out.evaluations += e.evaluations();
    fall_back("identify_deadline", e);
  } catch (const hetsim::DeviceFault& e) {
    fall_back("device_fault", e);
  } catch (const DegenerateSample& e) {
    fall_back("degenerate_sample", e);
  } catch (const Error& e) {
    fall_back("estimate_error", e);
  }
  return std::nullopt;
}

}  // namespace detail

/// Sample -> Identify -> Extrapolate under guard rails; see the file
/// comment for the chain.  `extrapolate` has the rich signature of
/// estimate_partition: (full, sample, t_sample) -> t_full.  Never throws
/// for platform faults, deadlines, or degenerate inputs — only for
/// genuine programming errors (e.g. a Problem whose naive-static mapping
/// itself throws).
template <PartitionProblem P, typename ExtrapolateFn>
  requires std::invocable<ExtrapolateFn, const P&, const P&, double>
RobustEstimate robust_estimate_partition(const P& problem,
                                         const RobustConfig& cfg,
                                         ExtrapolateFn&& extrapolate) {
  RobustEstimate out;
  hetsim::FaultInjector* injector = detail::platform_of(problem).faults();

  // A GPU already known dead makes any device-ratio estimate meaningless:
  // route everything to the CPU and skip estimation entirely.
  if (injector && injector->gpu_dead()) {
    out.stage = FallbackStage::kDegraded;
    out.reason = "gpu_offline";
    out.threshold = detail::cpu_most_threshold(problem);
    detail::count_trigger(out.reason);
    detail::count_stage(out.stage);
    log_warn("robust estimate: gpu offline, degraded CPU-only threshold " +
             strfmt("%.2f", out.threshold));
    return out;
  }

  const auto est = detail::guarded_sampled_stage(
      problem, cfg, out, [&](const SamplingConfig& scfg) {
        PartitionEstimate e = estimate_partition(
            problem, scfg,
            [&](const P& full, const P& sample, double t_sample) {
              if (detail::is_degenerate(sample)) {
                throw DegenerateSample(
                    "sampled sub-instance carries no signal");
              }
              return extrapolate(full, sample, t_sample);
            });
        if (!std::isfinite(e.threshold))
          throw DegenerateSample("sampled threshold is not finite");
        return e;
      });
  if (est) {
    out.stage = FallbackStage::kSampled;
    out.threshold = est->threshold;
    out.estimation_cost_ns = est->estimation_cost_ns;
    out.evaluations = est->evaluations;
    out.sampled = *est;
    detail::count_stage(out.stage);
    return out;
  }

  if (cfg.start_stage != FallbackStage::kNaiveStatic) {
    // Race-based coarse estimate: run the whole input on both devices (in
    // the cost model) and split by the throughput ratio.  A dead/dying GPU
    // is caught here too — the race "runs" a GPU kernel.
    try {
      double cpu_all = 0, gpu_all = 0;
      if constexpr (requires { problem.device_times_all(); }) {
        const auto [c, g] = problem.device_times_all();
        cpu_all = c;
        gpu_all = g;
      } else {
        cpu_all = problem.time_ns(detail::cpu_most_threshold(problem));
        gpu_all = problem.time_ns(detail::gpu_most_threshold(problem));
      }
      if (injector) injector->gpu_kernel("estimate.race", gpu_all);
      const double denom = cpu_all + gpu_all;
      if (denom > 0 && std::isfinite(denom)) {
        out.stage = FallbackStage::kRace;
        out.threshold =
            detail::threshold_for_cpu_share(problem, gpu_all / denom);
        out.estimation_cost_ns += std::min(cpu_all, gpu_all);
        out.evaluations += 1;
        detail::count_stage(out.stage);
        return out;
      }
      detail::note_trigger(out, "degenerate_input");
    } catch (const hetsim::DeviceFault& e) {
      detail::note_trigger(out, "device_fault");
      log_warn(std::string("robust estimate: race failed: ") + e.what() +
               "; falling back to naive static");
    } catch (const Error& e) {
      detail::note_trigger(out, "estimate_error");
      log_warn(std::string("robust estimate: race failed: ") + e.what() +
               "; falling back to naive static");
    }
  }

  // Peak-FLOPS ratio: device spec sheets only, cannot fail.  Under an
  // injected hard fault the injector reports the GPU dead by now and the
  // share collapses to CPU-only.
  out.stage = FallbackStage::kNaiveStatic;
  const hetsim::Platform& platform = detail::platform_of(problem);
  double cpu_share = naive_static_cpu_share_pct(platform) / 100.0;
  if (injector && injector->gpu_dead()) cpu_share = 1.0;
  out.threshold = detail::threshold_for_cpu_share(problem, cpu_share);
  detail::count_stage(out.stage);
  return out;
}

/// Scalar-extrapolation convenience overload (mirrors estimate_partition).
template <PartitionProblem P>
RobustEstimate robust_estimate_partition(const P& problem,
                                         const RobustConfig& cfg) {
  return robust_estimate_partition(
      problem, cfg, [&cfg](const P&, const P&, double t_sample) {
        return cfg.sampling.extrapolate ? cfg.sampling.extrapolate(t_sample)
                                        : t_sample;
      });
}

}  // namespace nbwp::core
