#include "core/identify.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/strfmt.hpp"

namespace nbwp::core {

IdentifyBudget::IdentifyBudget(double wall_deadline_ns,
                               double virtual_budget_ns, int max_evaluations)
    : wall_deadline_ns_(wall_deadline_ns),
      virtual_budget_ns_(virtual_budget_ns),
      max_evaluations_(max_evaluations),
      start_(std::chrono::steady_clock::now()) {}

void IdentifyBudget::check() const {
  const double elapsed = std::chrono::duration<double, std::nano>(
                             std::chrono::steady_clock::now() - start_)
                             .count();
  const char* spent =
      max_evaluations_ > 0 && evaluations_ >= max_evaluations_ ? "evaluation"
      : virtual_budget_ns_ > 0 && cost_ns_ >= virtual_budget_ns_ ? "virtual"
      : wall_deadline_ns_ > 0 && elapsed >= wall_deadline_ns_    ? "wall-clock"
                                                                 : nullptr;
  if (spent) {
    throw IdentifyDeadlineExceeded(
        strfmt("identify: %s budget exhausted after %d evaluations (%.3g ms "
               "virtual, %.3g ms wall)",
               spent, evaluations_, cost_ns_ / 1e6, elapsed / 1e6),
        evaluations_, elapsed, cost_ns_);
  }
}

namespace {

/// Threshold→objective memo scoped to one search invocation.  Each
/// evaluation stands for a full run of the sampled algorithm, so
/// re-probing an already-visited threshold (a descent incumbent, the
/// coarse/fine grid overlap) answers from the cache: no second run, no
/// second virtual-cost charge.  Probes are keyed on the clamped threshold;
/// only exact revisits hit, which is what the searches produce.
class MemoEval {
 public:
  explicit MemoEval(const Evaluator& eval)
      : eval_(&eval),
        budget_(eval.wall_deadline_ns, eval.virtual_budget_ns,
                eval.max_evaluations) {}

  /// Evaluate (or recall) the clamped threshold, fold it into the running
  /// result, and return the objective.  Budget limits are enforced here,
  /// before each new evaluation: cache hits never trip a deadline.
  double consider(double t, IdentifyResult& r) {
    t = std::clamp(t, eval_->lo, eval_->hi);
    double obj;
    const auto it = cache_.find(t);
    if (it != cache_.end()) {
      obj = it->second;
      ++r.cache_hits;
    } else {
      budget_.check();
      obj = eval_->objective_ns(t);
      cache_.emplace(t, obj);
      const double cost = eval_->cost_ns ? eval_->cost_ns(t) : 0.0;
      budget_.charge(cost);
      r.cost_ns += cost;
      ++r.evaluations;
    }
    if (r.evaluations + r.cache_hits == 1 || obj < r.best_objective) {
      r.best_objective = obj;
      r.best_threshold = t;
    }
    return obj;
  }

 private:
  const Evaluator* eval_;
  IdentifyBudget budget_;
  std::unordered_map<double, double> cache_;
};

IdentifyResult grid(MemoEval& memo, double lo, double hi, double step) {
  NBWP_REQUIRE(step > 0, "grid step must be positive");
  IdentifyResult r;
  for (double t = lo; t <= hi + 1e-9; t += step) memo.consider(t, r);
  return r;
}

/// Merge a sub-search's accounting (cost, counts) into `into` while
/// keeping `into`'s incumbent unless `from` found a better one.
void fold(IdentifyResult& into, const IdentifyResult& from) {
  into.cost_ns += from.cost_ns;
  into.evaluations += from.evaluations;
  into.cache_hits += from.cache_hits;
  if (from.best_objective < into.best_objective) {
    into.best_objective = from.best_objective;
    into.best_threshold = from.best_threshold;
  }
}

/// Run `search` on `eval`, with per-method accounting when metrics
/// collection is on: objective evaluations, *distinct* thresholds
/// visited, memo hits, and the virtual cost charged to the estimation
/// overhead.
template <typename Search>
IdentifyResult instrumented(const char* method, const Evaluator& eval,
                            const Search& search) {
  // A deadline hit aborts the search; count it under the method so the
  // manifest shows which strategy ran out of budget, then let the caller's
  // fallback chain take over.
  auto counting_deadline = [&](const auto& run) {
    try {
      return run();
    } catch (const IdentifyDeadlineExceeded&) {
      obs::count(std::string("identify.") + method + ".deadline_hits");
      throw;
    }
  };
  if (!obs::metrics_enabled()) {
    const IdentifyResult r = counting_deadline([&] { return search(eval); });
    log_debug(strfmt("identify.%s: t'=%.2f after %d evaluations", method,
                     r.best_threshold, r.evaluations));
    return r;
  }
  std::vector<double> visited;
  Evaluator probe = eval;
  probe.objective_ns = [&eval, &visited](double t) {
    visited.push_back(t);
    return eval.objective_ns(t);
  };
  const IdentifyResult r = counting_deadline([&] { return search(probe); });
  std::sort(visited.begin(), visited.end());
  const auto distinct = static_cast<double>(
      std::unique(visited.begin(), visited.end()) - visited.begin());
  const std::string prefix = std::string("identify.") + method;
  obs::count(prefix + ".calls");
  obs::count(prefix + ".evaluations", r.evaluations);
  obs::count(prefix + ".thresholds_visited", distinct);
  obs::count(prefix + ".cache_hits", r.cache_hits);
  obs::count(prefix + ".virtual_cost_ns", r.cost_ns);
  log_debug(strfmt("identify.%s: t'=%.2f after %d evaluations "
                   "(%.0f distinct thresholds, %d memo hits, "
                   "virtual cost %.3f ms)",
                   method, r.best_threshold, r.evaluations, distinct,
                   r.cache_hits, r.cost_ns / 1e6));
  return r;
}

IdentifyResult coarse_to_fine_impl(const Evaluator& eval, double coarse_step,
                                   double fine_step) {
  MemoEval memo(eval);
  IdentifyResult coarse = grid(memo, eval.lo, eval.hi, coarse_step);
  const double lo = std::max(eval.lo, coarse.best_threshold - coarse_step);
  const double hi = std::min(eval.hi, coarse.best_threshold + coarse_step);
  // The fine grid's endpoints land on coarse points: the memo answers
  // those probes without re-running the sampled algorithm.
  IdentifyResult fine = grid(memo, lo, hi, fine_step);
  fold(fine, coarse);
  return fine;
}

IdentifyResult flat_grid_impl(const Evaluator& eval, double step) {
  MemoEval memo(eval);
  return grid(memo, eval.lo, eval.hi, step);
}

IdentifyResult race_then_fine_impl(const Evaluator& eval, double cpu_all_ns,
                                   double gpu_all_ns, double fine_halfwidth,
                                   double fine_step) {
  NBWP_REQUIRE(cpu_all_ns >= 0 && gpu_all_ns >= 0,
               "device times must be non-negative");
  const double denom = cpu_all_ns + gpu_all_ns;
  const double r0 =
      denom <= 0 ? 50.0
                 : eval.lo + (eval.hi - eval.lo) * gpu_all_ns / denom;
  MemoEval memo(eval);
  IdentifyResult r = grid(memo, std::max(eval.lo, r0 - fine_halfwidth),
                          std::min(eval.hi, r0 + fine_halfwidth), fine_step);
  // The race itself: both devices run in parallel on the whole sample and
  // stop at the first finish.
  r.cost_ns += std::min(cpu_all_ns, gpu_all_ns);
  ++r.evaluations;
  return r;
}

IdentifyResult gradient_descent_impl(const Evaluator& eval,
                                     GradientDescentOptions options) {
  const bool logs = options.log_space;
  NBWP_REQUIRE(!logs || eval.lo > 0, "log-space search needs lo > 0");
  NBWP_REQUIRE(options.starts >= 1, "need at least one start");
  auto fwd = [&](double t) { return logs ? std::log(t) : t; };
  auto back = [&](double x) { return logs ? std::exp(x) : x; };
  const double xlo = fwd(eval.lo), xhi = fwd(eval.hi);

  // One memo across all starts: later starts re-cross earlier basins.
  MemoEval memo(eval);
  IdentifyResult best;
  for (int s = 0; s < options.starts; ++s) {
    IdentifyResult r;
    const double f =
        options.starts == 1
            ? 0.5
            : (static_cast<double>(s) + 0.5) / options.starts;
    memo.consider(back(xlo + f * (xhi - xlo)), r);
    double step = options.initial_step_fraction * (xhi - xlo);
    for (int i = 0; i < options.max_iterations && step > 1e-6 * (xhi - xlo);
         ++i) {
      const double before = r.best_objective;
      const double bx = fwd(r.best_threshold);
      memo.consider(back(std::clamp(bx + step, xlo, xhi)), r);
      memo.consider(back(std::clamp(bx - step, xlo, xhi)), r);
      if (r.best_objective >= before) step *= options.shrink;
    }
    if (s == 0) {
      best = r;
    } else {
      fold(best, r);
    }
  }
  return best;
}

IdentifyResult warm_refine_impl(const Evaluator& eval, double t0,
                                WarmRefineOptions options) {
  MemoEval memo(eval);
  IdentifyResult r;
  // The cached threshold is probed first: the bracket can only improve
  // on it, never lose it.
  memo.consider(t0, r);
  if (options.log_space) {
    NBWP_REQUIRE(eval.lo > 0, "log-space refinement needs lo > 0");
    NBWP_REQUIRE(options.log_ratio > 1.0, "log ratio must exceed 1");
    t0 = std::clamp(t0, eval.lo, eval.hi);
    double factor = options.log_ratio;
    for (int i = 1; i <= options.log_points; ++i, factor *= options.log_ratio) {
      memo.consider(t0 * factor, r);
      memo.consider(t0 / factor, r);
    }
  } else {
    NBWP_REQUIRE(options.step > 0, "refinement step must be positive");
    for (double d = options.step; d <= options.halfwidth + 1e-9;
         d += options.step) {
      memo.consider(t0 + d, r);
      memo.consider(t0 - d, r);
    }
  }
  return r;
}

IdentifyResult golden_section_impl(const Evaluator& eval, double tolerance,
                                   int max_iterations) {
  constexpr double kPhi = 0.6180339887498949;
  MemoEval memo(eval);
  IdentifyResult r;
  double a = eval.lo, b = eval.hi;
  double c = b - kPhi * (b - a);
  double d = a + kPhi * (b - a);
  // consider() returns the objective it measured, so each probed
  // threshold costs exactly one objective_ns run.
  auto probe = [&](double t) { return memo.consider(t, r); };
  double fc = probe(c), fd = probe(d);
  for (int i = 0; i < max_iterations && (b - a) > tolerance; ++i) {
    if (fc < fd) {
      b = d;
      d = c;
      fd = fc;
      c = b - kPhi * (b - a);
      fc = probe(c);
    } else {
      a = c;
      c = d;
      fc = fd;
      d = a + kPhi * (b - a);
      fd = probe(d);
    }
  }
  return r;
}

}  // namespace

IdentifyResult coarse_to_fine(const Evaluator& eval, double coarse_step,
                              double fine_step) {
  return instrumented("coarse_to_fine", eval, [&](const Evaluator& e) {
    return coarse_to_fine_impl(e, coarse_step, fine_step);
  });
}

IdentifyResult flat_grid(const Evaluator& eval, double step) {
  return instrumented("flat_grid", eval, [&](const Evaluator& e) {
    return flat_grid_impl(e, step);
  });
}

IdentifyResult race_then_fine(const Evaluator& eval, double cpu_all_ns,
                              double gpu_all_ns, double fine_halfwidth,
                              double fine_step) {
  return instrumented("race_then_fine", eval, [&](const Evaluator& e) {
    return race_then_fine_impl(e, cpu_all_ns, gpu_all_ns, fine_halfwidth,
                               fine_step);
  });
}

IdentifyResult gradient_descent(const Evaluator& eval,
                                GradientDescentOptions options) {
  return instrumented("gradient_descent", eval, [&](const Evaluator& e) {
    return gradient_descent_impl(e, options);
  });
}

IdentifyResult golden_section(const Evaluator& eval, double tolerance,
                              int max_iterations) {
  return instrumented("golden_section", eval, [&](const Evaluator& e) {
    return golden_section_impl(e, tolerance, max_iterations);
  });
}

IdentifyResult warm_refine(const Evaluator& eval, double t0,
                           WarmRefineOptions options) {
  return instrumented("warm_refine", eval, [&](const Evaluator& e) {
    return warm_refine_impl(e, t0, options);
  });
}

}  // namespace nbwp::core
