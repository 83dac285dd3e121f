#include "serve/admission.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/strfmt.hpp"

namespace nbwp::serve {

namespace {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string append_detail(std::string detail, const char* why) {
  if (detail.find(why) != std::string::npos) return detail;
  if (detail.empty()) return why;
  return detail + "," + why;
}

void set_labeled_gauge(const char* name, const char* cls, double value) {
  if (obs::metrics_enabled())
    obs::Registry::global().gauge(name, {{"class", cls}}).set(value);
}

/// Identify gets this fraction of the remaining deadline; the rest is
/// headroom for extrapolation, cache bookkeeping, and promise delivery.
constexpr double kIdentifyDeadlineFraction = 0.8;

}  // namespace

const char* priority_name(Priority priority) {
  switch (priority) {
    case Priority::kInteractive:
      return "interactive";
    case Priority::kBatch:
      return "batch";
    case Priority::kBestEffort:
      return "best_effort";
  }
  return "unknown";
}

const char* admit_status_name(AdmitStatus status) {
  switch (status) {
    case AdmitStatus::kPlanned:
      return "planned";
    case AdmitStatus::kDegraded:
      return "degraded";
    case AdmitStatus::kShed:
      return "shed";
  }
  return "unknown";
}

const char* shed_reason_name(ShedReason reason) {
  switch (reason) {
    case ShedReason::kNone:
      return "none";
    case ShedReason::kOverload:
      return "overload";
    case ShedReason::kQueueFull:
      return "queue_full";
    case ShedReason::kEvicted:
      return "evicted";
    case ShedReason::kDeadline:
      return "deadline";
    case ShedReason::kShutdown:
      return "shutdown";
  }
  return "unknown";
}

AdmissionController::AdmissionController(PlanService& service,
                                         Options options)
    : service_(service), options_(options) {
  options_.interactive_queue = std::max<size_t>(1, options_.interactive_queue);
  options_.batch_queue = std::max<size_t>(1, options_.batch_queue);
  options_.best_effort_queue =
      std::max<size_t>(1, options_.best_effort_queue);
  if (options_.total_queue == 0) {
    options_.total_queue = options_.interactive_queue +
                           options_.batch_queue + options_.best_effort_queue;
  }
  options_.workers = std::max(1, options_.workers);
  options_.slo_refresh_interval = std::max(1, options_.slo_refresh_interval);
  if (!options_.slo.empty()) monitor_ = obs::SloMonitor::parse(options_.slo);
  tokens_ = options_.bucket_capacity;
  token_refill_ms_ = now_ms();
  // Force an SLO consult on the first admission.
  admissions_since_slo_ = options_.slo_refresh_interval;
  workers_.reserve(static_cast<size_t>(options_.workers));
  for (int i = 0; i < options_.workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

AdmissionController::~AdmissionController() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  // Whatever the workers left queued is shed with a typed reason rather
  // than silently dropping the promises (a broken_promise would surface
  // as an opaque std::future_error at the caller).
  for (auto& queue : queues_) {
    while (!queue.empty()) {
      Job job = std::move(queue.front());
      queue.pop_front();
      shed(job, ShedReason::kShutdown, "shutdown");
    }
  }
}

obs::HistogramHandle& AdmissionController::e2e_series(Priority priority) {
  switch (priority) {
    case Priority::kInteractive:
      return e2e_interactive_;
    case Priority::kBatch:
      return e2e_batch_;
    case Priority::kBestEffort:
      return e2e_best_effort_;
  }
  return e2e_best_effort_;
}

AdmissionController::Overload AdmissionController::overload_verdict(
    Priority priority, std::string* detail) {
  Overload verdict = Overload::kHealthy;
  auto raise = [&](Overload level, const char* why) {
    verdict = std::max(verdict, level);
    *detail = append_detail(std::move(*detail), why);
  };

  if (options_.tokens_per_sec > 0) {
    const double now = now_ms();
    tokens_ = std::min(options_.bucket_capacity,
                       tokens_ + (now - token_refill_ms_) * 1e-3 *
                                     options_.tokens_per_sec);
    token_refill_ms_ = now;
    if (tokens_ >= 1.0)
      tokens_ -= 1.0;
    else
      raise(Overload::kOverloaded, "tokens");
  }

  const std::array<size_t, kPriorityCount> caps = {
      options_.interactive_queue, options_.batch_queue,
      options_.best_effort_queue};
  const size_t depth = queues_[static_cast<size_t>(priority)].size();
  const size_t cap = caps[static_cast<size_t>(priority)];
  size_t total = 0;
  for (const auto& queue : queues_) total += queue.size();
  if (static_cast<double>(depth) >=
          options_.queue_pressure * static_cast<double>(cap) ||
      static_cast<double>(total) >=
          options_.queue_pressure * static_cast<double>(options_.total_queue))
    raise(Overload::kOverloaded, "queue_pressure");

  if (monitor_) {
    if (++admissions_since_slo_ >= options_.slo_refresh_interval) {
      admissions_since_slo_ = 0;
      cached_burn_ =
          monitor_->evaluate(obs::Registry::global()).max_burn_rate();
    }
    if (cached_burn_ >= options_.severe_burn_rate)
      raise(Overload::kSevere, "burn_rate");
    else if (cached_burn_ >= options_.degrade_burn_rate)
      raise(Overload::kOverloaded, "burn_rate");
  }
  return verdict;
}

void AdmissionController::update_depth_gauges_locked() {
  static const char* const kNames[kPriorityCount] = {"interactive", "batch",
                                                     "best_effort"};
  for (int p = 0; p < kPriorityCount; ++p) {
    const size_t depth = queues_[static_cast<size_t>(p)].size();
    high_water_[static_cast<size_t>(p)] =
        std::max(high_water_[static_cast<size_t>(p)], depth);
    set_labeled_gauge("serve.queue.depth", kNames[p],
                      static_cast<double>(depth));
    set_labeled_gauge(
        "serve.queue.depth.high_water", kNames[p],
        static_cast<double>(high_water_[static_cast<size_t>(p)]));
  }
}

void AdmissionController::reset_queue_gauges() {
  std::lock_guard lock(mutex_);
  for (int p = 0; p < kPriorityCount; ++p)
    high_water_[static_cast<size_t>(p)] =
        queues_[static_cast<size_t>(p)].size();
  update_depth_gauges_locked();
}

AdmissionController::ClassCounts AdmissionController::counts(
    Priority priority) const {
  std::lock_guard lock(mutex_);
  return counts_[static_cast<size_t>(priority)];
}

void AdmissionController::shed(Job& job, ShedReason reason,
                               std::string detail) {
  {
    std::lock_guard lock(mutex_);
    counts_[static_cast<size_t>(job.priority)].shed++;
  }
  obs::count("serve.shed", {{"class", priority_name(job.priority)}});
  AdmitOutcome out;
  out.status = AdmitStatus::kShed;
  out.priority = job.priority;
  out.shed_reason = reason;
  out.detail = std::move(detail);
  out.plan.id = job.request.id;
  out.e2e_ms = now_ms() - job.submit_ms;
  job.promise.set_value(std::move(out));
}

void AdmissionController::finish(Job& job, AdmitOutcome outcome) {
  outcome.e2e_ms = now_ms() - job.submit_ms;
  {
    std::lock_guard lock(mutex_);
    auto& counts = counts_[static_cast<size_t>(job.priority)];
    if (outcome.status == AdmitStatus::kDegraded)
      counts.degraded++;
    else
      counts.admitted++;
  }
  obs::count(outcome.status == AdmitStatus::kDegraded ? "serve.degraded"
                                                      : "serve.admitted",
             {{"class", priority_name(job.priority)}});
  e2e_series(job.priority).observe(outcome.e2e_ms);
  job.promise.set_value(std::move(outcome));
}

void AdmissionController::resolve(Job job) {
  PlanConstraints constraints;
  constraints.start_stage = job.floor;
  if (job.deadline_abs_ms > 0) {
    const double remaining_ms = job.deadline_abs_ms - now_ms();
    if (remaining_ms <= 0) {
      // The deadline died in the queue.  Best-effort is shed; the higher
      // classes still get a valid plan, just the cheapest one — late and
      // cheap beats late and expensive.
      if (job.priority == Priority::kBestEffort) {
        shed(job, ShedReason::kDeadline,
             append_detail(std::move(job.detail), "deadline"));
        return;
      }
      obs::count("serve.deadline_missed",
                 {{"class", priority_name(job.priority)}});
      constraints.start_stage = core::FallbackStage::kNaiveStatic;
      job.detail = append_detail(std::move(job.detail), "deadline");
    } else if (constraints.start_stage == core::FallbackStage::kSampled) {
      // PR-4 deadline budget: bound the identify search by what is left
      // of the request's deadline, so an expensive search degrades to the
      // race estimate mid-flight instead of blowing through it.
      constraints.identify_deadline_ns =
          remaining_ms * kIdentifyDeadlineFraction * 1e6;
    }
  }
  AdmitOutcome out;
  out.priority = job.priority;
  out.floor = constraints.start_stage;
  out.detail = job.detail;
  out.status = constraints.demoted() ? AdmitStatus::kDegraded
                                     : AdmitStatus::kPlanned;
  out.plan = service_.plan_one(job.request, constraints);
  finish(job, std::move(out));
}

void AdmissionController::worker_loop() {
  for (;;) {
    std::unique_lock lock(mutex_);
    work_cv_.wait(lock, [&] {
      if (stop_) return true;
      for (const auto& queue : queues_)
        if (!queue.empty()) return true;
      return false;
    });
    if (stop_) return;
    Job job;
    for (auto& queue : queues_) {  // strict priority order
      if (!queue.empty()) {
        job = std::move(queue.front());
        queue.pop_front();
        break;
      }
    }
    ++in_flight_;
    update_depth_gauges_locked();
    lock.unlock();
    resolve(std::move(job));
    lock.lock();
    --in_flight_;
    bool idle = in_flight_ == 0;
    for (const auto& queue : queues_) idle = idle && queue.empty();
    lock.unlock();
    if (idle) drain_cv_.notify_all();
  }
}

std::future<AdmitOutcome> AdmissionController::submit(PlanRequest request,
                                                      Priority priority,
                                                      double deadline_ms) {
  const double now = now_ms();
  Job job;
  job.request = std::move(request);
  job.priority = priority;
  job.submit_ms = now;
  const double deadline =
      deadline_ms > 0 ? deadline_ms : options_.default_deadline_ms;
  job.deadline_abs_ms = deadline > 0 ? now + deadline : 0;
  std::future<AdmitOutcome> result = job.promise.get_future();

  std::unique_lock lock(mutex_);
  counts_[static_cast<size_t>(priority)].submitted++;
  obs::count("serve.submitted", {{"class", priority_name(priority)}});

  std::string detail;
  const Overload verdict = overload_verdict(priority, &detail);
  if (verdict != Overload::kHealthy) {
    if (priority == Priority::kBestEffort) {
      lock.unlock();
      shed(job, ShedReason::kOverload, std::move(detail));
      return result;
    }
    // Degrade instead of queueing: under overload the request is still
    // admitted, but the chain starts at a cheap stage.
    job.floor = verdict == Overload::kSevere
                    ? core::FallbackStage::kNaiveStatic
                    : core::FallbackStage::kRace;
    job.detail = detail;
  }

  const std::array<size_t, kPriorityCount> caps = {
      options_.interactive_queue, options_.batch_queue,
      options_.best_effort_queue};
  auto& queue = queues_[static_cast<size_t>(priority)];

  auto degrade_inline = [&](const char* why) {
    // Interactive and batch never wait on (or bounce off) a full queue:
    // plan right here on the submitting thread at the cheapest floor.
    // naive_static reads the spec sheets only, so "inline" is
    // microseconds, not a search.
    job.floor = core::FallbackStage::kNaiveStatic;
    job.detail = append_detail(std::move(job.detail), why);
    lock.unlock();
    resolve(std::move(job));
  };

  if (queue.size() >= caps[static_cast<size_t>(priority)]) {
    if (priority != Priority::kBestEffort) {
      degrade_inline("queue_full");
      return result;
    }
    lock.unlock();
    shed(job, ShedReason::kQueueFull, std::move(detail));
    return result;
  }

  size_t total = 0;
  for (const auto& q : queues_) total += q.size();
  std::optional<Job> victim;
  if (total >= options_.total_queue) {
    auto& best_effort = queues_[static_cast<size_t>(Priority::kBestEffort)];
    if (priority != Priority::kBestEffort && !best_effort.empty()) {
      // Backpressure lands on the lowest class first: the oldest queued
      // best-effort request is evicted to make room.
      victim = std::move(best_effort.front());
      best_effort.pop_front();
    } else if (priority != Priority::kBestEffort) {
      degrade_inline("total_backlog");
      return result;
    } else {
      lock.unlock();
      shed(job, ShedReason::kQueueFull,
           append_detail(std::move(detail), "total_backlog"));
      return result;
    }
  }

  queue.push_back(std::move(job));
  update_depth_gauges_locked();
  lock.unlock();
  if (victim) shed(*victim, ShedReason::kEvicted, "total_backlog");
  work_cv_.notify_one();
  return result;
}

AdmitOutcome AdmissionController::plan(PlanRequest request,
                                       Priority priority,
                                       double deadline_ms) {
  return submit(std::move(request), priority, deadline_ms).get();
}

void AdmissionController::drain() {
  std::unique_lock lock(mutex_);
  drain_cv_.wait(lock, [&] {
    if (in_flight_ != 0) return false;
    for (const auto& queue : queues_)
      if (!queue.empty()) return false;
    return true;
  });
}

}  // namespace nbwp::serve
