#include "obs/metrics.hpp"

#include <algorithm>

namespace nbwp::obs {

std::string labeled_name(const std::string& name, const Labels& labels) {
  if (labels.empty()) return name;
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end(),
            [](const Label& a, const Label& b) { return a.key < b.key; });
  std::string out = name;
  out += '{';
  bool first = true;
  for (const Label& label : sorted) {
    if (!first) out += ',';
    first = false;
    for (char c : label.key) {
      const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_';
      out += ok ? c : '_';
    }
    out += "=\"";
    for (char c : label.value) {
      if (c == '\\') {
        out += "\\\\";
      } else if (c == '"') {
        out += "\\\"";
      } else if (c == '\n') {
        out += "\\n";
      } else {
        out += c;
      }
    }
    out += '"';
  }
  out += '}';
  return out;
}

Registry& Registry::global() {
  static Registry registry;
  return registry;
}

Counter& Registry::counter(const std::string& name) {
  std::scoped_lock lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  std::scoped_lock lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name) {
  std::scoped_lock lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

const Counter* Registry::find_counter(const std::string& name) const {
  std::scoped_lock lock(mutex_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

const Histogram* Registry::find_histogram(const std::string& name) const {
  std::scoped_lock lock(mutex_);
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

MetricsSnapshot Registry::snapshot() const {
  MetricsSnapshot snap;
  std::scoped_lock lock(mutex_);
  for (const auto& [name, c] : counters_) snap.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) snap.gauges[name] = g->value();
  for (const auto& [name, h] : histograms_)
    snap.histograms[name] = h->summary();
  return snap;
}

void Registry::clear() {
  std::scoped_lock lock(mutex_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
  generation_.fetch_add(1, std::memory_order_release);
}

}  // namespace nbwp::obs
