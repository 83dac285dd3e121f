// Real-time (wall-clock) observability: a process-wide metrics registry.
//
// The hetsim layer accounts *virtual* time — what the simulated platform
// would take.  This module answers the complementary question: where does
// the reproduction itself spend wall-clock time and work?  Counters count
// events (threshold evaluations, pool jobs), gauges hold last-written
// values (utilization), histograms summarize samples as p50/p95/p99
// (span durations, request latencies).
//
// Histograms are backed by the fixed-memory streaming histogram
// (obs/streaming_histogram.hpp): million-request serving runs keep O(1)
// memory per metric and additionally expose a sliding-window summary for
// SLO evaluation.
//
// Metrics can carry labels (e.g. `serve.requests{class="exact"}`): a
// label set is folded into the metric key with
// labeled_name(), so every exporter splits series by label without new
// storage machinery, and the Prometheus exporter re-emits them as real
// labels.
//
// Collection is off by default and guarded by one relaxed atomic load, so
// instrumented hot paths cost nothing measurable until someone opts in
// with --metrics / --trace-real (or set_metrics_enabled in code).  All
// types are safe to use concurrently from ThreadPool workers; metric
// handles returned by the registry stay valid until the registry is
// clear()ed (obs/span.hpp HistogramHandle re-resolves across clears).
#pragma once

#include <atomic>
#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/streaming_histogram.hpp"

namespace nbwp::obs {

namespace detail {
inline std::atomic<bool> g_metrics_enabled{false};
}  // namespace detail

/// Global collection switch.  Instrumentation sites check this before
/// touching the registry; when false they reduce to one relaxed load.
inline bool metrics_enabled() {
  return detail::g_metrics_enabled.load(std::memory_order_relaxed);
}
inline void set_metrics_enabled(bool on) {
  detail::g_metrics_enabled.store(on, std::memory_order_relaxed);
}

/// Monotonically increasing sum (C++20 atomic<double> fetch_add).
class Counter {
 public:
  void add(double delta = 1.0) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Last-written value.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

struct HistogramSummary {
  size_t count = 0;
  double sum = 0, min = 0, max = 0, mean = 0;
  double p50 = 0, p95 = 0, p99 = 0;
};

/// Latency/size distribution over a bounded-memory streaming backend
/// that additionally answers window_summary() over the recent sliding
/// window.
class Histogram {
 public:
  void record(double sample) { stream_.record(sample); }
  size_t count() const { return stream_.count(); }
  HistogramSummary summary() const { return stream_.summary(); }
  /// Summary over the sliding window (cumulative fallback when the
  /// window is empty).
  HistogramSummary window_summary() const { return stream_.window_summary(); }
  /// Fixed footprint, independent of the number of samples.
  size_t memory_bytes() const { return stream_.memory_bytes(); }
  /// The streaming backend, for tests that drive slice rotation with a
  /// fake clock (StreamingHistogram::set_clock_for_test).
  StreamingHistogram* stream_for_test() { return &stream_; }

 private:
  StreamingHistogram stream_;
};

/// One metric label.  Keys are sanitized to [A-Za-z0-9_]; values are
/// escaped (backslash, quote, newline) when folded into the metric key,
/// which makes the encoded form directly reusable by the Prometheus
/// exporter.
struct Label {
  std::string key;
  std::string value;
};
using Labels = std::vector<Label>;

/// `name{k1="v1",k2="v2"}` with labels sorted by key; empty labels
/// return `name` unchanged.  This is the registry key for a labeled
/// series.
std::string labeled_name(const std::string& name, const Labels& labels);

/// Everything the exporters need, decoupled from live metric objects.
/// Labeled series appear under their encoded labeled_name().
struct MetricsSnapshot {
  std::map<std::string, double> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSummary> histograms;
  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
};

/// Name -> metric map.  Lookup takes a mutex; hold the returned reference
/// (or an obs/span.hpp HistogramHandle) when instrumenting a hot loop.
class Registry {
 public:
  static Registry& global();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  Counter& counter(const std::string& name, const Labels& labels) {
    return counter(labeled_name(name, labels));
  }
  Gauge& gauge(const std::string& name, const Labels& labels) {
    return gauge(labeled_name(name, labels));
  }
  Histogram& histogram(const std::string& name, const Labels& labels) {
    return histogram(labeled_name(name, labels));
  }

  /// Read-only lookups (SLO evaluation): nullptr when the metric was
  /// never recorded.  Pass the encoded labeled_name() for labeled
  /// series.
  const Counter* find_counter(const std::string& name) const;
  const Histogram* find_histogram(const std::string& name) const;

  MetricsSnapshot snapshot() const;

  /// Drop every registered metric (tests; between CLI subcommands).
  /// Bumps generation() so cached handles re-resolve instead of
  /// dangling.
  void clear();

  /// Incremented by clear(); obs/span.hpp HistogramHandle compares this
  /// to decide whether its cached pointer is still valid.
  uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

 private:
  mutable std::mutex mutex_;
  std::atomic<uint64_t> generation_{0};
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// One-shot helpers for call sites that fire at most a few times per
/// phase: no-ops (single relaxed load) while collection is disabled.
inline void count(const std::string& name, double delta = 1.0) {
  if (metrics_enabled()) Registry::global().counter(name).add(delta);
}
inline void count(const std::string& name, const Labels& labels,
                  double delta = 1.0) {
  if (metrics_enabled())
    Registry::global().counter(name, labels).add(delta);
}
inline void set_gauge(const std::string& name, double value) {
  if (metrics_enabled()) Registry::global().gauge(name).set(value);
}
inline void observe(const std::string& name, double sample) {
  if (metrics_enabled()) Registry::global().histogram(name).record(sample);
}
inline void observe(const std::string& name, const Labels& labels,
                    double sample) {
  if (metrics_enabled())
    Registry::global().histogram(name, labels).record(sample);
}

}  // namespace nbwp::obs
