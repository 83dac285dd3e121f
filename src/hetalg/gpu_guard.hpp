// Retry-then-reroute gating for the executors' GPU kernels.
//
// Every GPU piece of the three case studies funnels through gpu_gate(),
// directly or via run_gpu_or_reroute(): on a healthy platform (no fault
// injector) it is a zero-cost passthrough; under an injected fault the
// invocation is retried (FaultPlan::gpu_retry_limit times, default 1)
// with exponential backoff and deterministic seeded jitter between
// attempts, and if the device still fails, *rerouted* — the same kernel
// runs on the CPU instead.  A hard fault short-circuits the remaining
// retries: a dead device cannot come back, so waiting on it would only
// burn the deadline.  The kernel executes exactly once on every path, so
// the computed output is bitwise-identical to a healthy run; only the
// virtual-time accounting changes (the caller charges the rerouted piece
// at CPU cost, non-overlapped; backoff accrues on the injector's
// host-side backoff clock, not the GPU busy clock).  Counters:
// robustness.retry, robustness.retry.success, robustness.retry.backoff_ns,
// robustness.reroute(.<what>).
#pragma once

#include <string>

#include "hetsim/faults.hpp"
#include "hetsim/platform.hpp"
#include "obs/metrics.hpp"
#include "util/log.hpp"
#include "util/strfmt.hpp"

namespace nbwp::hetalg {

/// Gate one GPU kernel invocation through the platform's fault injector:
/// true when the GPU runs it, false when it must be rerouted to the CPU.
/// `what` names the kernel for counters/logs ("cc.sv", "spmm.kway.d1",
/// ...); `expected_ns` is the kernel's modeled GPU time, advanced on the
/// injector's virtual clock when the invocation succeeds.  Callers that
/// execute the kernel later (or on the pool) must gate in a fixed order
/// on one thread, so a seeded fault plan decides the same way every run.
inline bool gpu_gate(const hetsim::Platform& platform, const char* what,
                     double expected_ns) {
  hetsim::FaultInjector* injector = platform.faults();
  if (!injector) return true;
  const int retry_limit = injector->plan().gpu_retry_limit;
  const int max_attempts = 1 + (retry_limit > 0 ? retry_limit : 0);
  bool retried = false;
  for (int attempt = 1;; ++attempt) {
    try {
      injector->gpu_kernel(what, expected_ns);
      if (retried) obs::count("robustness.retry.success");
      return true;
    } catch (const hetsim::DeviceFault& fault) {
      if (attempt < max_attempts && !injector->gpu_dead()) {
        retried = true;
        const double backoff_ns = injector->retry_backoff_ns(attempt);
        injector->charge_backoff(backoff_ns);
        obs::count("robustness.retry");
        obs::count("robustness.retry.backoff_ns", backoff_ns);
        log_warn(strfmt("gpu kernel '%s' failed: %s; retry %d after "
                        "%.1f us backoff",
                        what, fault.what(), attempt, backoff_ns / 1e3));
        continue;
      }
      obs::count("robustness.reroute");
      obs::count(std::string("robustness.reroute.") + what);
      log_warn(std::string("gpu kernel '") + what +
               "' failed: " + fault.what() + "; rerouting to cpu");
      return false;
    }
  }
}

/// Gate, then run `kernel` (on the GPU or, rerouted, on the CPU — the
/// same lambda either way).  Returns gpu_gate's verdict.
template <typename Kernel>
bool run_gpu_or_reroute(const hetsim::Platform& platform, const char* what,
                        double expected_ns, Kernel&& kernel) {
  const bool on_gpu = gpu_gate(platform, what, expected_ns);
  kernel();
  return on_gpu;
}

}  // namespace nbwp::hetalg
