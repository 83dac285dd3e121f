// AdmissionController semantics: healthy requests plan at full quality;
// overload (token exhaustion, queue pressure, SLO burn) degrades
// interactive/batch to a cheaper fallback floor and sheds best-effort
// with a typed rejection; backpressure evicts the oldest best-effort
// request rather than blocking a higher class, and a higher class that
// still finds no room plans inline at the naive-static floor; deadlines
// that die in the queue produce a late-but-valid naive-static plan (or a
// typed shed); queue-depth gauges reset at phase boundaries; an overload
// drill on a faulted platform sheds only best-effort and keeps the
// interactive end-to-end p99 within its SLO.
#include "serve/admission.hpp"

#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cmath>
#include <future>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/identify.hpp"
#include "hetalg/hetero_spmm.hpp"
#include "hetsim/faults.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "sparse/generators.hpp"
#include "util/rng.hpp"

namespace nbwp::serve {
namespace {

hetalg::HeteroSpmm spmm_problem(const hetsim::Platform& platform,
                                uint64_t seed = 1) {
  Rng rng(seed);
  return hetalg::HeteroSpmm(sparse::random_uniform(1500, 1500, 12000, rng),
                            platform);
}

core::RobustConfig spmm_config() {
  core::RobustConfig cfg;
  cfg.sampling.sample_factor = 0.25;
  cfg.sampling.method = core::IdentifyMethod::kRaceThenFine;
  cfg.sampling.warm.halfwidth = 3;
  cfg.sampling.warm.step = 3;
  return cfg;
}

PlanRequest request(const std::string& id, uint64_t seed = 1,
                    const hetsim::Platform& platform =
                        hetsim::Platform::reference()) {
  return make_plan_request(id, "spmm", spmm_problem(platform, seed),
                           spmm_config());
}

/// A request whose solve blocks on `gate` — pins a worker so queue-full,
/// eviction and deadline paths can be exercised deterministically.
/// `started` (optional) fires once the worker has entered the solve.
PlanRequest blocking_request(const std::string& id, uint64_t seed,
                             std::shared_future<void> gate,
                             std::promise<void>* started = nullptr) {
  PlanRequest req = request(id, seed);
  auto inner = req.solve;
  req.solve = [gate = std::move(gate), started,
               inner = std::move(inner)](const SolveOptions& opts) {
    if (started) started->set_value();
    gate.wait();
    return inner(opts);
  };
  return req;
}

PlanService::Options cache_off() {
  PlanService::Options options;
  options.cache_enabled = false;
  return options;
}

TEST(Admission, HealthyRequestPlansAtFullQuality) {
  PlanService service;
  AdmissionController controller(service, {});
  const AdmitOutcome out =
      controller.plan(request("a"), Priority::kInteractive);
  EXPECT_EQ(out.status, AdmitStatus::kPlanned);
  EXPECT_EQ(out.priority, Priority::kInteractive);
  EXPECT_EQ(out.shed_reason, ShedReason::kNone);
  EXPECT_EQ(out.floor, core::FallbackStage::kSampled);
  EXPECT_TRUE(out.detail.empty()) << out.detail;
  EXPECT_EQ(out.plan.id, "a");
  EXPECT_EQ(out.plan.stage, core::FallbackStage::kSampled);
  EXPECT_TRUE(std::isfinite(out.plan.threshold));
  EXPECT_GE(out.e2e_ms, 0.0);

  // A generous deadline changes nothing: still full quality.
  const AdmitOutcome bounded =
      controller.plan(request("b", 2), Priority::kBatch, 60'000.0);
  EXPECT_EQ(bounded.status, AdmitStatus::kPlanned);
  EXPECT_EQ(bounded.floor, core::FallbackStage::kSampled);

  const auto counts = controller.counts(Priority::kInteractive);
  EXPECT_EQ(counts.submitted, 1u);
  EXPECT_EQ(counts.admitted, 1u);
  EXPECT_EQ(counts.degraded, 0u);
  EXPECT_EQ(counts.shed, 0u);
}

TEST(Admission, TokenExhaustionDegradesClassesAndShedsBestEffort) {
  PlanService service(cache_off());
  AdmissionController::Options options;
  options.tokens_per_sec = 1e-9;  // effectively no refill
  options.bucket_capacity = 1;
  AdmissionController controller(service, options);

  // The single token admits the first request cleanly.
  EXPECT_EQ(controller.plan(request("warm", 1), Priority::kInteractive).status,
            AdmitStatus::kPlanned);

  const AdmitOutcome interactive =
      controller.plan(request("i", 2), Priority::kInteractive);
  EXPECT_EQ(interactive.status, AdmitStatus::kDegraded);
  EXPECT_EQ(interactive.floor, core::FallbackStage::kRace);
  EXPECT_NE(interactive.detail.find("tokens"), std::string::npos)
      << interactive.detail;
  EXPECT_EQ(interactive.plan.stage, core::FallbackStage::kRace);
  EXPECT_TRUE(std::isfinite(interactive.plan.threshold));

  const AdmitOutcome batch = controller.plan(request("b", 3), Priority::kBatch);
  EXPECT_EQ(batch.status, AdmitStatus::kDegraded);
  EXPECT_EQ(batch.floor, core::FallbackStage::kRace);

  const AdmitOutcome best =
      controller.plan(request("be", 4), Priority::kBestEffort);
  EXPECT_EQ(best.status, AdmitStatus::kShed);
  EXPECT_EQ(best.shed_reason, ShedReason::kOverload);
  EXPECT_NE(best.detail.find("tokens"), std::string::npos) << best.detail;
  EXPECT_EQ(best.plan.id, "be");  // typed rejection still names the request

  EXPECT_EQ(controller.counts(Priority::kInteractive).degraded, 1u);
  EXPECT_EQ(controller.counts(Priority::kBatch).degraded, 1u);
  EXPECT_EQ(controller.counts(Priority::kBestEffort).shed, 1u);
}

TEST(Admission, SevereBurnRateDemotesToNaiveStaticFloor) {
  obs::Registry::global().clear();
  obs::set_metrics_enabled(true);
  // A latency series far over its objective: burn rate 100x.
  for (int i = 0; i < 64; ++i) obs::observe("serve.request_ms", 100.0);

  PlanService service(cache_off());
  AdmissionController::Options options;
  options.slo = "serve.request_ms p99 < 1ms";
  options.slo_refresh_interval = 1;
  AdmissionController controller(service, options);

  const AdmitOutcome interactive =
      controller.plan(request("i", 1), Priority::kInteractive);
  EXPECT_EQ(interactive.status, AdmitStatus::kDegraded);
  EXPECT_EQ(interactive.floor, core::FallbackStage::kNaiveStatic);
  EXPECT_NE(interactive.detail.find("burn_rate"), std::string::npos)
      << interactive.detail;
  EXPECT_EQ(interactive.plan.stage, core::FallbackStage::kNaiveStatic);
  EXPECT_TRUE(std::isfinite(interactive.plan.threshold));

  const AdmitOutcome best =
      controller.plan(request("be", 2), Priority::kBestEffort);
  EXPECT_EQ(best.status, AdmitStatus::kShed);
  EXPECT_EQ(best.shed_reason, ShedReason::kOverload);
  obs::set_metrics_enabled(false);
  obs::Registry::global().clear();
}

TEST(Admission, QueueFullDegradesBatchAndInteractiveInlineShedsBestEffort) {
  PlanService service(cache_off());
  AdmissionController::Options options;
  options.workers = 1;
  options.interactive_queue = 1;
  options.batch_queue = 1;
  options.best_effort_queue = 1;
  options.total_queue = 8;
  options.queue_pressure = 2.0;  // isolate the queue-full rule
  AdmissionController controller(service, options);

  std::promise<void> gate;
  std::promise<void> started;
  auto b0 = controller.submit(
      blocking_request("b0", 10, gate.get_future().share(), &started),
      Priority::kBatch);
  started.get_future().wait();  // the lone worker is pinned on b0

  // Interactive and batch never bounce off a full queue: the overflow
  // degrades inline on the submitting thread, so its future is already
  // resolved when submit() returns.
  std::vector<std::future<AdmitOutcome>> queued;
  for (const Priority priority : {Priority::kBatch, Priority::kInteractive}) {
    SCOPED_TRACE(priority_name(priority));
    const std::string name = priority_name(priority);
    queued.push_back(controller.submit(request(name + "1", 11), priority));
    auto overflow = controller.submit(request(name + "2", 12), priority);
    ASSERT_EQ(overflow.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    const AdmitOutcome out = overflow.get();
    EXPECT_EQ(out.status, AdmitStatus::kDegraded);
    EXPECT_EQ(out.floor, core::FallbackStage::kNaiveStatic);
    EXPECT_NE(out.detail.find("queue_full"), std::string::npos) << out.detail;
    EXPECT_TRUE(std::isfinite(out.plan.threshold));
  }

  // Best-effort is the only class that is shed.
  queued.push_back(
      controller.submit(request("be1", 13), Priority::kBestEffort));
  const AdmitOutcome shed =
      controller.submit(request("be2", 14), Priority::kBestEffort).get();
  EXPECT_EQ(shed.status, AdmitStatus::kShed);
  EXPECT_EQ(shed.shed_reason, ShedReason::kQueueFull);

  gate.set_value();
  controller.drain();
  EXPECT_EQ(b0.get().status, AdmitStatus::kPlanned);
  for (auto& f : queued) EXPECT_EQ(f.get().status, AdmitStatus::kPlanned);
  EXPECT_EQ(controller.counts(Priority::kBatch).shed, 0u);
  EXPECT_EQ(controller.counts(Priority::kBatch).degraded, 1u);
}

TEST(Admission, FullBacklogWithNothingToEvictDegradesBatchInline) {
  PlanService service(cache_off());
  AdmissionController::Options options;
  options.workers = 1;
  options.total_queue = 2;
  options.queue_pressure = 2.0;
  AdmissionController controller(service, options);

  std::promise<void> gate;
  std::promise<void> started;
  auto b0 = controller.submit(
      blocking_request("b0", 15, gate.get_future().share(), &started),
      Priority::kBatch);
  started.get_future().wait();
  auto b1 = controller.submit(request("b1", 16), Priority::kBatch);
  auto i1 = controller.submit(request("i1", 17), Priority::kInteractive);

  // The backlog is full and holds no best-effort request to evict.
  auto b2 = controller.submit(request("b2", 18), Priority::kBatch);
  ASSERT_EQ(b2.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  const AdmitOutcome degraded = b2.get();
  EXPECT_EQ(degraded.status, AdmitStatus::kDegraded);
  EXPECT_EQ(degraded.floor, core::FallbackStage::kNaiveStatic);
  EXPECT_NE(degraded.detail.find("total_backlog"), std::string::npos)
      << degraded.detail;
  EXPECT_TRUE(std::isfinite(degraded.plan.threshold));

  const AdmitOutcome shed =
      controller.submit(request("be1", 19), Priority::kBestEffort).get();
  EXPECT_EQ(shed.status, AdmitStatus::kShed);
  EXPECT_EQ(shed.shed_reason, ShedReason::kQueueFull);

  gate.set_value();
  controller.drain();
  EXPECT_EQ(b0.get().status, AdmitStatus::kPlanned);
  EXPECT_EQ(b1.get().status, AdmitStatus::kPlanned);
  EXPECT_EQ(i1.get().status, AdmitStatus::kPlanned);
}

TEST(Admission, FullBacklogEvictsOldestBestEffortForHigherClass) {
  PlanService service(cache_off());
  AdmissionController::Options options;
  options.workers = 1;
  options.interactive_queue = 4;
  options.batch_queue = 4;
  options.best_effort_queue = 4;
  options.total_queue = 2;
  options.queue_pressure = 1.0;
  AdmissionController controller(service, options);

  std::promise<void> gate;
  std::promise<void> started;
  auto b0 = controller.submit(
      blocking_request("b0", 20, gate.get_future().share(), &started),
      Priority::kBatch);
  started.get_future().wait();

  auto be1 = controller.submit(request("be1", 21), Priority::kBestEffort);
  auto be2 = controller.submit(request("be2", 22), Priority::kBestEffort);
  // Backlog is now at total_queue; the interactive arrival evicts the
  // oldest queued best-effort request instead of waiting or shedding.
  auto i1 = controller.submit(request("i1", 23), Priority::kInteractive);
  const AdmitOutcome evicted = be1.get();
  EXPECT_EQ(evicted.status, AdmitStatus::kShed);
  EXPECT_EQ(evicted.shed_reason, ShedReason::kEvicted);
  EXPECT_NE(evicted.detail.find("total_backlog"), std::string::npos)
      << evicted.detail;

  // Best-effort into a saturated backlog is shed outright.
  const AdmitOutcome rejected =
      controller.submit(request("be3", 24), Priority::kBestEffort).get();
  EXPECT_EQ(rejected.status, AdmitStatus::kShed);
  EXPECT_EQ(rejected.shed_reason, ShedReason::kOverload);

  gate.set_value();
  controller.drain();
  EXPECT_EQ(b0.get().status, AdmitStatus::kPlanned);
  const AdmitOutcome admitted = i1.get();
  EXPECT_NE(admitted.status, AdmitStatus::kShed);
  EXPECT_TRUE(std::isfinite(admitted.plan.threshold));
  EXPECT_EQ(be2.get().status, AdmitStatus::kPlanned);

  const auto counts = controller.counts(Priority::kBestEffort);
  EXPECT_EQ(counts.submitted, 3u);
  EXPECT_EQ(counts.admitted, 1u);
  EXPECT_EQ(counts.shed, 2u);
}

TEST(Admission, DeadlineExpiredInQueueFloorsOrShedsByClass) {
  PlanService service(cache_off());
  AdmissionController::Options options;
  options.workers = 1;
  AdmissionController controller(service, options);

  std::promise<void> gate;
  std::promise<void> started;
  auto b0 = controller.submit(
      blocking_request("b0", 30, gate.get_future().share(), &started),
      Priority::kBatch);
  started.get_future().wait();

  auto i1 =
      controller.submit(request("i1", 31), Priority::kInteractive, 1.0);
  auto be1 =
      controller.submit(request("be1", 32), Priority::kBestEffort, 1.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gate.set_value();
  controller.drain();

  // Interactive gets a late-but-valid plan at the cheapest floor...
  const AdmitOutcome late = i1.get();
  EXPECT_EQ(late.status, AdmitStatus::kDegraded);
  EXPECT_EQ(late.floor, core::FallbackStage::kNaiveStatic);
  EXPECT_NE(late.detail.find("deadline"), std::string::npos) << late.detail;
  EXPECT_EQ(late.plan.stage, core::FallbackStage::kNaiveStatic);
  EXPECT_TRUE(std::isfinite(late.plan.threshold));

  // ...while best-effort is shed with the typed deadline rejection.
  const AdmitOutcome dropped = be1.get();
  EXPECT_EQ(dropped.status, AdmitStatus::kShed);
  EXPECT_EQ(dropped.shed_reason, ShedReason::kDeadline);

  EXPECT_EQ(b0.get().status, AdmitStatus::kPlanned);
}

TEST(Admission, ShutdownShedsStillQueuedRequestsWithTypedReason) {
  PlanService service(cache_off());
  AdmissionController::Options options;
  options.workers = 1;
  std::optional<AdmissionController> controller;
  controller.emplace(service, options);

  std::promise<void> gate;
  std::promise<void> started;
  auto b0 = controller->submit(
      blocking_request("b0", 40, gate.get_future().share(), &started),
      Priority::kBatch);
  started.get_future().wait();
  auto b1 = controller->submit(request("b1", 41), Priority::kBatch);
  auto be1 = controller->submit(request("be1", 42), Priority::kBestEffort);

  // The destructor raises stop_ before the worker can dequeue b1/be1;
  // release the gate only after destruction has begun so the in-flight
  // job finishes but the queued ones are shed, not silently dropped.
  std::thread releaser([&gate] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    gate.set_value();
  });
  controller.reset();
  releaser.join();

  EXPECT_EQ(b0.get().status, AdmitStatus::kPlanned);
  const AdmitOutcome s1 = b1.get();
  EXPECT_EQ(s1.status, AdmitStatus::kShed);
  EXPECT_EQ(s1.shed_reason, ShedReason::kShutdown);
  const AdmitOutcome s2 = be1.get();
  EXPECT_EQ(s2.status, AdmitStatus::kShed);
  EXPECT_EQ(s2.shed_reason, ShedReason::kShutdown);
}

TEST(Admission, QueueDepthHighWaterGaugesResetAtPhaseBoundary) {
  obs::Registry::global().clear();
  obs::set_metrics_enabled(true);
  PlanService service(cache_off());
  AdmissionController::Options options;
  options.workers = 1;
  {
    AdmissionController controller(service, options);
    std::promise<void> gate;
    std::promise<void> started;
    auto b0 = controller.submit(
        blocking_request("b0", 50, gate.get_future().share(), &started),
        Priority::kBatch);
    started.get_future().wait();
    std::vector<std::future<AdmitOutcome>> queued;
    for (int i = 0; i < 3; ++i)
      queued.push_back(controller.submit(request("b" + std::to_string(i), 51),
                                         Priority::kBatch));

    auto& depth = obs::Registry::global().gauge("serve.queue.depth",
                                                {{"class", "batch"}});
    auto& high_water = obs::Registry::global().gauge(
        "serve.queue.depth.high_water", {{"class", "batch"}});
    EXPECT_EQ(high_water.value(), 3.0);

    gate.set_value();
    controller.drain();
    EXPECT_EQ(depth.value(), 0.0);
    // The peak survives the drain (that is the point of a high-water
    // mark) until the phase boundary resets it.
    EXPECT_EQ(high_water.value(), 3.0);
    controller.reset_queue_gauges();
    EXPECT_EQ(high_water.value(), 0.0);
    (void)b0.get();
    for (auto& f : queued) (void)f.get();
  }
  obs::set_metrics_enabled(false);
  obs::Registry::global().clear();
}

TEST(Admission, OverloadDrillShedsOnlyBestEffortAndHoldsInteractiveSlo) {
  // Back-to-back submission against a token bucket far below the submit
  // rate, on a platform with transient GPU faults: overload is
  // structural, not a timing accident.
  obs::Registry::global().clear();
  obs::set_metrics_enabled(true);
  hetsim::Platform platform = hetsim::Platform::reference();
  platform.set_fault_plan(
      hetsim::FaultPlan::parse("gpu-transient-rate=0.05,retries=2"));
  std::vector<PlanRequest> pool;
  for (uint64_t seed = 60; seed < 66; ++seed)
    pool.push_back(request("p" + std::to_string(seed), seed, platform));

  PlanService service;
  AdmissionController::Options options;
  options.interactive_queue = 32;
  options.batch_queue = 64;
  options.best_effort_queue = 16;
  options.total_queue = 48;  // below the cap sum: forces eviction
  options.workers = 2;
  options.tokens_per_sec = 200;
  options.bucket_capacity = 16;
  options.slo = "serve.request_ms p99 < 250ms";
  constexpr size_t kRequests = 600;
  const std::array<double, kPriorityCount> deadline_ms = {50, 200, 25};
  std::array<AdmissionController::ClassCounts, kPriorityCount> counts{};
  {
    AdmissionController controller(service, options);
    // A drained warm-up burst, then the measured segment.
    std::vector<std::future<AdmitOutcome>> warm;
    for (size_t i = 0; i < 24; ++i)
      warm.push_back(controller.submit(
          pool[i % pool.size()], static_cast<Priority>(i % kPriorityCount)));
    for (auto& f : warm) (void)f.get();
    controller.drain();

    std::vector<std::future<AdmitOutcome>> futures;
    for (size_t i = 0; i < kRequests; ++i) {
      const auto priority = static_cast<Priority>(i % kPriorityCount);
      futures.push_back(controller.submit(
          pool[i % pool.size()], priority,
          deadline_ms[static_cast<size_t>(priority)]));
    }
    for (auto& f : futures) {
      const AdmitOutcome out = f.get();
      auto& c = counts[static_cast<size_t>(out.priority)];
      c.submitted++;
      switch (out.status) {
        case AdmitStatus::kPlanned:
          c.admitted++;
          break;
        case AdmitStatus::kDegraded:
          c.degraded++;
          break;
        case AdmitStatus::kShed: {
          c.shed++;
          const std::string reason = shed_reason_name(out.shed_reason);
          EXPECT_TRUE(reason == "overload" || reason == "queue_full" ||
                      reason == "evicted" || reason == "deadline" ||
                      reason == "shutdown")
              << reason;
          break;
        }
      }
      if (out.status != AdmitStatus::kShed) {
        EXPECT_TRUE(std::isfinite(out.plan.threshold)) << out.plan.id;
      }
    }
  }
  obs::set_metrics_enabled(false);

  const auto& interactive = counts[static_cast<size_t>(Priority::kInteractive)];
  const auto& batch = counts[static_cast<size_t>(Priority::kBatch)];
  const auto& best_effort = counts[static_cast<size_t>(Priority::kBestEffort)];
  EXPECT_EQ(interactive.submitted, kRequests / kPriorityCount);
  EXPECT_EQ(interactive.shed, 0u);
  EXPECT_EQ(interactive.admitted + interactive.degraded,
            interactive.submitted);
  EXPECT_EQ(batch.shed, 0u);
  EXPECT_GT(best_effort.shed, 0u);
  EXPECT_GT(interactive.degraded + batch.degraded, 0u);

  const obs::SloReport slo =
      obs::SloMonitor::parse("serve.e2e_ms{class=\"interactive\"} p99 < 250ms")
          .evaluate(obs::Registry::global());
  EXPECT_TRUE(slo.ok()) << "interactive e2e p99 "
                        << slo.results.at(0).observed << " ms";
  obs::Registry::global().clear();
}

TEST(Admission, NamesAreStableForLogsAndMetrics) {
  EXPECT_STREQ(priority_name(Priority::kInteractive), "interactive");
  EXPECT_STREQ(priority_name(Priority::kBatch), "batch");
  EXPECT_STREQ(priority_name(Priority::kBestEffort), "best_effort");
  EXPECT_STREQ(admit_status_name(AdmitStatus::kPlanned), "planned");
  EXPECT_STREQ(admit_status_name(AdmitStatus::kDegraded), "degraded");
  EXPECT_STREQ(admit_status_name(AdmitStatus::kShed), "shed");
  EXPECT_STREQ(shed_reason_name(ShedReason::kOverload), "overload");
  EXPECT_STREQ(shed_reason_name(ShedReason::kQueueFull), "queue_full");
  EXPECT_STREQ(shed_reason_name(ShedReason::kEvicted), "evicted");
  EXPECT_STREQ(shed_reason_name(ShedReason::kDeadline), "deadline");
  EXPECT_STREQ(shed_reason_name(ShedReason::kShutdown), "shutdown");
}

}  // namespace
}  // namespace nbwp::serve
