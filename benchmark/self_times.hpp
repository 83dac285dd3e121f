// Per-span self times from the obs tracer's events.
//
// The library emits wall-clock spans (estimate.*, kernel.*, serve.*) and
// the benchmark wraps its own calls into each layer in further spans
// (bench.*).  A span's self time is its duration minus the durations of
// the spans nested directly inside it on the same thread, so the self
// times of every span inside a job add up to the job's duration.
#pragma once

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace nbwp::bench {

class SelfTimes {
 public:
  struct Entry {
    double self_ms = 0;
    double total_ms = 0;
    size_t count = 0;
  };

  /// Fold in the spans thread `tid` recorded.  Spans on one thread nest
  /// (they are RAII scopes), so sorting by start time and keeping a stack
  /// of open spans recovers each span's direct parent.
  void add(std::vector<obs::TraceEvent> events, int tid) {
    std::erase_if(events, [tid](const obs::TraceEvent& e) {
      return e.tid != tid;
    });
    std::sort(events.begin(), events.end(),
              [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
                return a.ts_us != b.ts_us ? a.ts_us < b.ts_us
                                          : a.dur_us > b.dur_us;
              });
    std::vector<size_t> open;
    std::vector<double> child_us(events.size(), 0.0);
    for (size_t i = 0; i < events.size(); ++i) {
      while (!open.empty()) {
        const obs::TraceEvent& top = events[open.back()];
        if (events[i].ts_us < top.ts_us + top.dur_us) break;
        open.pop_back();
      }
      if (!open.empty()) child_us[open.back()] += events[i].dur_us;
      open.push_back(i);
    }
    for (size_t i = 0; i < events.size(); ++i) {
      Entry& entry = by_name_[events[i].name];
      entry.self_ms += (events[i].dur_us - child_us[i]) / 1e3;
      entry.total_ms += events[i].dur_us / 1e3;
      ++entry.count;
    }
  }

  double self_ms(const std::string& name) const {
    const auto it = by_name_.find(name);
    return it == by_name_.end() ? 0.0 : it->second.self_ms;
  }

  double total_ms(const std::string& name) const {
    const auto it = by_name_.find(name);
    return it == by_name_.end() ? 0.0 : it->second.total_ms;
  }

  const std::map<std::string, Entry>& entries() const { return by_name_; }

 private:
  std::map<std::string, Entry> by_name_;
};

}  // namespace nbwp::bench
