// Declarative service-level objectives over the metric registry.
//
// An SLO spec is a ';'-separated list of objectives in one of two forms:
//
//   latency     <histogram> <p50|p95|p99|mean|max> < <value>[ns|us|ms|s]
//               e.g.  serve.request_ms p99 < 5ms
//   error rate  <bad-counter> / <total-counter> rate < <bound>
//               e.g.  serve.requests{class="degraded"} / serve.requests
//                     rate < 0.01
//
// A unit suffix on the latency bound is converted into the metric's own
// unit, inferred from its name: `*_ms` milliseconds, `*_us` microseconds,
// `*_ns` and `span.*` nanoseconds.  A bare number is compared raw.
// Labeled series are addressed by their encoded labeled_name().
//
// Latency objectives evaluate on the histogram's sliding window
// (StreamingHistogram window_summary(); cumulative fallback when the
// window is empty), error rates on the
// cumulative counters.  Each result reports a burn rate —
// observed/bound — so a dashboard or admission controller can see *how
// hard* an objective is burning, not just that it tripped: burn > 1
// is out of budget, ~0.5 means half the budget is consumed.
//
// serve::AdmissionController consumes the burn rate to demote work under
// overload; `nbwp_cli --slo` surfaces the report.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace nbwp::obs {

class Registry;

struct SloObjective {
  enum class Kind { kLatency, kErrorRate };
  Kind kind = Kind::kLatency;
  std::string spec;    ///< original objective text (trimmed)
  std::string metric;  ///< histogram (latency) or bad-counter (error rate)
  std::string total;   ///< total-counter (error rate only)
  std::string stat;    ///< p50|p95|p99|mean|max (latency only)
  double bound = 0;    ///< in the metric's unit / as a rate
};

struct SloResult {
  SloObjective objective;
  double observed = 0;
  double burn_rate = 0;  ///< observed / bound; > 1 means out of budget
  bool ok = false;
  bool missing = false;  ///< metric absent from the registry
};

struct SloReport {
  std::vector<SloResult> results;
  bool ok() const;
  /// Worst burn rate across objectives (0 when empty).
  double max_burn_rate() const;
};

class SloMonitor {
 public:
  /// Parse a ';'-separated spec; throws nbwp::Error on bad grammar.
  static SloMonitor parse(const std::string& spec);

  void add(SloObjective objective);
  size_t size() const { return objectives_.size(); }
  const std::vector<SloObjective>& objectives() const { return objectives_; }

  SloReport evaluate(const Registry& registry) const;

 private:
  std::vector<SloObjective> objectives_;
};

/// {"ok":bool,"max_burn_rate":...,"objectives":[{...}]} — consumed by
/// the CI serve-SLO smoke job.
void write_slo_report_json(std::ostream& os, const SloReport& report);

}  // namespace nbwp::obs
