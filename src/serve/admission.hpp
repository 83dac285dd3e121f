// Overload-safe admission control in front of PlanService.
//
// A planning request admitted under overload must still return *some*
// valid partition before its deadline — that is the serving contract the
// rest of the stack (SLO monitor, fallback chain, deadline budgets) was
// built to support, and this layer is where the pieces act together:
//
//   * every request carries a priority class (interactive / batch /
//     best-effort) and an optional per-request deadline;
//   * a token bucket plus per-class bounded queues detect overload
//     locally; the live obs::SloMonitor verdict (burn rate over the
//     sliding latency window) detects it globally;
//   * under overload the controller *degrades instead of queueing*:
//     interactive and batch requests are admitted with a demotion floor
//     (race, or naive_static under severe burn) that routes them down the
//     sampled -> race -> naive_static chain via the PR-4 identify
//     deadline budgets (PlanConstraints, core/robust_estimate.hpp), while
//     best-effort requests are shed outright with a typed rejection;
//   * backpressure is structural: each class queue is bounded, the total
//     backlog is bounded, and when a higher class arrives into a full
//     total backlog the oldest queued best-effort request is evicted;
//     an interactive or batch request that still finds no room (its
//     class queue full, or a full backlog with no best-effort to evict)
//     is planned inline at the naive_static floor.  Short of shutdown,
//     only best-effort requests are ever shed;
//   * a request whose deadline expired while queued is shed (best-effort)
//     or finished at the naive_static floor (interactive / batch), so the
//     answer is late-but-valid rather than expensive-and-pointless.
//
// Metrics: serve.submitted / serve.admitted / serve.degraded /
// serve.shed{class=...} counters, serve.queue.depth{class=...} and
// serve.queue.depth.high_water{class=...} gauges (reset at phase
// boundaries via reset_queue_gauges(), mirroring
// spgemm_workspace_reset_high_water()), and per-class end-to-end latency
// histograms serve.e2e_ms{class=...} — the series the overload drill
// (tests/serve/admission_test.cpp) and its SLO evaluate.  See
// docs/ROBUSTNESS.md ("Overload & admission") and docs/SERVING.md.
#pragma once

#include <array>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/slo.hpp"
#include "obs/span.hpp"
#include "serve/plan_service.hpp"

namespace nbwp::serve {

enum class Priority { kInteractive = 0, kBatch = 1, kBestEffort = 2 };
inline constexpr int kPriorityCount = 3;

const char* priority_name(Priority priority);

/// How the controller disposed of a submission.
enum class AdmitStatus {
  kPlanned,   ///< admitted cleanly, planned at full quality
  kDegraded,  ///< admitted with a demotion floor; plan is valid but cheap
  kShed,      ///< rejected: no plan was produced
};

const char* admit_status_name(AdmitStatus status);

/// Why a shed request was rejected (the typed rejection).
enum class ShedReason {
  kNone,
  kOverload,   ///< overload verdict: best-effort is not served under load
  kQueueFull,  ///< its class queue was at capacity
  kEvicted,    ///< evicted from the queue by a higher class (backpressure)
  kDeadline,   ///< deadline expired while queued
  kShutdown,   ///< controller destroyed with the request still queued
};

const char* shed_reason_name(ShedReason reason);

struct AdmitOutcome {
  AdmitStatus status = AdmitStatus::kShed;
  Priority priority = Priority::kBestEffort;
  ShedReason shed_reason = ShedReason::kNone;
  /// Overload trail, e.g. "tokens", "burn_rate", "queue_pressure",
  /// "deadline"; empty for clean admissions.
  std::string detail;
  /// The demotion floor that was applied (kSampled = none).
  core::FallbackStage floor = core::FallbackStage::kSampled;
  /// Valid unless status == kShed; `plan.stage` records which chain stage
  /// actually produced the threshold.
  PlannedPartition plan;
  double e2e_ms = 0;  ///< submit-to-resolution wall time
};

class AdmissionController {
 public:
  struct Options {
    /// Per-class queue bounds and the shared backlog bound.  The total is
    /// deliberately below the sum of the class caps so that a saturated
    /// backlog still admits interactive/batch work by evicting the oldest
    /// queued best-effort request.
    size_t interactive_queue = 64;
    size_t batch_queue = 256;
    size_t best_effort_queue = 64;
    size_t total_queue = 320;

    int workers = 2;

    /// Token bucket: sustained admission rate and burst headroom.  0
    /// tokens_per_sec disables the bucket (admission rate unbounded).
    /// Because tokens drain machine-independently, this is what makes an
    /// overload phase reproducible in CI: arrival rate > tokens_per_sec
    /// *is* overload, regardless of how fast the runner plans.
    double tokens_per_sec = 0;
    double bucket_capacity = 32;

    /// SLO spec consulted for the global overload verdict ("" = skip).
    /// Re-evaluated every slo_refresh_interval admissions; burn rates at
    /// or above degrade_burn_rate demote, at or above severe_burn_rate
    /// demote to the naive_static floor and shed best-effort.
    std::string slo;
    double degrade_burn_rate = 1.0;
    double severe_burn_rate = 2.0;
    int slo_refresh_interval = 64;

    /// Queue-depth fraction (of any class cap or the total) at which the
    /// controller starts treating arrivals as overload.
    double queue_pressure = 0.75;

    /// Deadline applied when submit() passes none (0 = unbounded).
    double default_deadline_ms = 0;
  };

  /// Per-class disposition counts (mirrors the serve.* counters without
  /// requiring metrics collection to be on).
  struct ClassCounts {
    uint64_t submitted = 0;
    uint64_t admitted = 0;
    uint64_t degraded = 0;
    uint64_t shed = 0;
  };

  AdmissionController(PlanService& service, Options options);
  ~AdmissionController();

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// Admit, degrade, or shed `request`.  Never blocks on planning: the
  /// returned future resolves when a worker finishes the job (or
  /// immediately, for shed requests and for interactive or batch
  /// requests that degrade inline because their queue is full).
  /// `deadline_ms` is relative to now; 0 uses
  /// options().default_deadline_ms.
  std::future<AdmitOutcome> submit(PlanRequest request, Priority priority,
                                   double deadline_ms = 0);

  /// Blocking convenience: submit() and wait.
  AdmitOutcome plan(PlanRequest request, Priority priority,
                    double deadline_ms = 0);

  /// Block until every queued request has been resolved.
  void drain();

  /// Phase-boundary gauge hygiene: reset the high-water queue-depth
  /// gauges to the current depths so the next phase reports its own
  /// peaks, not this one's (the spgemm_workspace_reset_high_water()
  /// pattern).
  void reset_queue_gauges();

  ClassCounts counts(Priority priority) const;
  const Options& options() const { return options_; }

 private:
  struct Job {
    PlanRequest request;
    Priority priority = Priority::kBestEffort;
    core::FallbackStage floor = core::FallbackStage::kSampled;
    std::string detail;
    double deadline_abs_ms = 0;  ///< steady-clock ms; 0 = none
    double submit_ms = 0;
    std::promise<AdmitOutcome> promise;
  };

  enum class Overload { kHealthy, kOverloaded, kSevere };

  /// Token refill + SLO burn consult + queue pressure, under mutex_.
  Overload overload_verdict(Priority priority, std::string* detail);

  void worker_loop();
  /// Run one dequeued job to completion and fulfil its promise.
  void resolve(Job job);
  void finish(Job& job, AdmitOutcome outcome);
  void shed(Job& job, ShedReason reason, std::string detail);
  void update_depth_gauges_locked();

  PlanService& service_;
  Options options_;
  std::optional<obs::SloMonitor> monitor_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable drain_cv_;
  std::array<std::deque<Job>, kPriorityCount> queues_;
  std::array<size_t, kPriorityCount> high_water_{};
  std::array<ClassCounts, kPriorityCount> counts_{};
  double tokens_ = 0;
  double token_refill_ms_ = 0;  ///< last refill, steady-clock ms
  double cached_burn_ = 0;
  int admissions_since_slo_ = 0;
  size_t in_flight_ = 0;
  bool stop_ = false;
  std::vector<std::thread> workers_;

  obs::HistogramHandle e2e_interactive_{"serve.e2e_ms",
                                        {{"class", "interactive"}}};
  obs::HistogramHandle e2e_batch_{"serve.e2e_ms", {{"class", "batch"}}};
  obs::HistogramHandle e2e_best_effort_{"serve.e2e_ms",
                                        {{"class", "best_effort"}}};
  obs::HistogramHandle& e2e_series(Priority priority);
};

}  // namespace nbwp::serve
