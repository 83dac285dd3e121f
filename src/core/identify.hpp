// Identification strategies for the framework's Identify step (Section II,
// Fig. 2 "identify the right value(s) of the threshold(s) for I_s").
//
// A strategy minimizes a scalar objective over a threshold interval using
// only evaluations of the (sampled) heterogeneous algorithm.  Each
// evaluation charges the virtual time of the run it stands for, so the
// framework's estimation overhead — the paper's "Overhead %" column — is
// accounted faithfully.
//
// The strategies in the paper are:
//  * coarse-to-fine grid (CC, Section III-A.2: steps of 8, then steps of 1),
//  * race-then-fine (spmm, Section IV-A.b: both devices multiply the whole
//    sample in parallel; the throughput ratio at first finish gives the
//    coarse split, then a fine local search),
//  * gradient descent (scale-free spmm, Section V-A.2).
// Golden-section search is provided as an ablation alternative.
#pragma once

#include <chrono>
#include <functional>
#include <string>

#include "util/error.hpp"

namespace nbwp::core {

/// One threshold evaluation: `objective_ns` is minimized; `cost_ns` is the
/// virtual time the evaluation takes (charged to the estimation overhead).
///
/// The three budget fields bound the search (0 disables each).  Limits are
/// checked before every *new* objective evaluation — memo hits are free —
/// so total wall time stays under `wall_deadline_ns` plus at most one
/// evaluation.  Virtual and evaluation-count budgets are deterministic;
/// the wall deadline is the only machine-dependent trigger (see
/// docs/ROBUSTNESS.md).  On exceeding any budget the search throws
/// IdentifyDeadlineExceeded for the caller's fallback chain
/// (core/robust_estimate.hpp).
struct Evaluator {
  std::function<double(double)> objective_ns;
  std::function<double(double)> cost_ns;
  double lo = 0.0;
  double hi = 100.0;
  double wall_deadline_ns = 0.0;    ///< wall-clock budget for the search
  double virtual_budget_ns = 0.0;   ///< cap on the charged estimation cost
  int max_evaluations = 0;          ///< cap on objective_ns runs
};

/// Thrown by the identify searches when an Evaluator budget is exhausted.
class IdentifyDeadlineExceeded : public Error {
 public:
  IdentifyDeadlineExceeded(const std::string& what, int evaluations,
                           double wall_elapsed_ns, double virtual_spent_ns)
      : Error(what),
        evaluations_(evaluations),
        wall_elapsed_ns_(wall_elapsed_ns),
        virtual_spent_ns_(virtual_spent_ns) {}

  int evaluations() const { return evaluations_; }
  double wall_elapsed_ns() const { return wall_elapsed_ns_; }
  double virtual_spent_ns() const { return virtual_spent_ns_; }

 private:
  int evaluations_;
  double wall_elapsed_ns_;
  double virtual_spent_ns_;
};

/// What one search has spent against its identify budgets.  Every search
/// owns one — the scalar threshold memo and the K-way boundary descent
/// alike — and calls check() before each new evaluation of the sampled
/// algorithm, then charge() with the virtual time that evaluation stands
/// for.  Memo hits call neither: they are free.
class IdentifyBudget {
 public:
  /// Budgets as in Evaluator (0 disables each); the wall clock starts now.
  IdentifyBudget(double wall_deadline_ns, double virtual_budget_ns,
                 int max_evaluations);

  /// Throws IdentifyDeadlineExceeded once the evaluation cap, the virtual
  /// budget or the wall deadline (tested in that order) is spent.
  void check() const;
  void charge(double cost_ns) {
    cost_ns_ += cost_ns;
    ++evaluations_;
  }

  int evaluations() const { return evaluations_; }
  double cost_ns() const { return cost_ns_; }

 private:
  double wall_deadline_ns_;
  double virtual_budget_ns_;
  int max_evaluations_;
  std::chrono::steady_clock::time_point start_;
  int evaluations_ = 0;
  double cost_ns_ = 0.0;
};

struct IdentifyResult {
  double best_threshold = 0.0;
  double best_objective = 0.0;
  double cost_ns = 0.0;
  int evaluations = 0;  ///< actual objective_ns runs (cache hits excluded)
  int cache_hits = 0;   ///< probes answered from the threshold memo
};

/// Grid at `coarse_step`, then a grid at `fine_step` inside the winning
/// coarse cell (the paper's CC procedure with steps 8 and 1).
IdentifyResult coarse_to_fine(const Evaluator& eval, double coarse_step = 8,
                              double fine_step = 1);

/// Flat grid at `step` over [lo, hi].
IdentifyResult flat_grid(const Evaluator& eval, double step = 1);

/// Race-based coarse estimate followed by a fine grid of half-width
/// `fine_halfwidth` at `fine_step`.  `cpu_all_ns` / `gpu_all_ns` are the
/// device times for the *whole* sampled input on each device; the race
/// costs min(cpu, gpu) because it stops when the first device finishes.
/// The coarse split is r0 = 100 * gpu/(cpu + gpu) (CPU work share).
IdentifyResult race_then_fine(const Evaluator& eval, double cpu_all_ns,
                              double gpu_all_ns, double fine_halfwidth = 8,
                              double fine_step = 1);

/// Hill-climbing gradient descent with a geometrically shrinking step,
/// optionally in log space (right for the HH row-density cutoff whose
/// useful range spans orders of magnitude).
struct GradientDescentOptions {
  double initial_step_fraction = 0.25;  ///< of the (log-)range
  double shrink = 0.5;
  int max_iterations = 24;
  bool log_space = false;
  int starts = 3;  ///< independent starting points (multi-start avoids the
                   ///< local minima of non-unimodal cutoff landscapes)
};
IdentifyResult gradient_descent(const Evaluator& eval,
                                GradientDescentOptions options = {});

/// Golden-section search (assumes a unimodal objective).
IdentifyResult golden_section(const Evaluator& eval, double tolerance = 0.5,
                              int max_iterations = 48);

/// Warm-started local refinement (serve/plan_cache.hpp): instead of a
/// cold search over the whole range, probe the cached threshold `t0`
/// itself plus a narrow symmetric bracket around it.  Linear brackets
/// probe t0 ± step, ± 2·step, … up to `halfwidth`; log-space brackets
/// (cutoff thresholds spanning orders of magnitude) probe
/// t0 · ratio^±i for i = 1..log_points.  Probes are clamped to
/// [lo, hi]; clamped duplicates cost nothing (per-search memo).
/// Because t0 is always probed, refining around a search's own optimum
/// can never return a worse objective than that search did.
struct WarmRefineOptions {
  double halfwidth = 4.0;  ///< linear bracket half-width
  double step = 1.0;       ///< linear probe spacing
  bool log_space = false;  ///< geometric bracket (needs lo > 0)
  double log_ratio = 1.5;  ///< geometric probe spacing
  int log_points = 3;      ///< probes per side of t0 in log space
};
IdentifyResult warm_refine(const Evaluator& eval, double t0,
                           WarmRefineOptions options = {});

}  // namespace nbwp::core
