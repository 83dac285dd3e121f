// Request-scoped tracing: TraceContext + the FlightRecorder ring.
//
// A TraceContext follows one plan-service request through its lifetime:
// it gets a process-unique id, collects per-stage wall-clock timings
// (every obs::Span that closes while the context is installed via
// TraceContext::Scope appends a stage — so the existing estimate.* /
// serve.* spans attribute identify, warm refinement and cache work to
// the request without new plumbing), and on finish() hands the completed
// RequestTrace to the global FlightRecorder and, when tracing is on, a
// "serve.request" event to the Perfetto tracer.
//
// The FlightRecorder is a bounded in-memory ring of the last N finished
// requests — the thing you dump when production latency goes sideways
// and the histograms only tell you *that* p99 moved, not *which*
// requests moved it.  Dumps happen on demand (nbwp_cli
// --flight-recorder), and
// automatically when a request finishes degraded (fault) or over the
// configured latency threshold (breach) and a dump path is configured.
//
// Everything is inert — no allocation, no locks — unless metrics or
// tracing is enabled when the TraceContext is constructed.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

namespace nbwp::obs {

struct StageTiming {
  std::string stage;   ///< span name, e.g. "serve.lookup"
  double start_ms = 0;  ///< ms since the tracer epoch
  double dur_ms = 0;
};

/// One finished request, as kept by the FlightRecorder.
struct RequestTrace {
  uint64_t id = 0;
  std::string label;          ///< caller request id, e.g. "cc:pwtk:0"
  std::string request_class;  ///< exact | near | miss | degraded | coalesced
  double start_ms = 0;        ///< ms since the tracer epoch
  double total_ms = 0;
  bool fault = false;   ///< finished on a fallback/degraded path
  bool breach = false;  ///< total_ms exceeded the recorder's threshold
  std::vector<StageTiming> stages;
};

class TraceContext {
 public:
  /// Active only when metrics or tracing is enabled at construction;
  /// inactive contexts cost a branch per call.
  explicit TraceContext(std::string label);
  ~TraceContext();

  TraceContext(const TraceContext&) = delete;
  TraceContext& operator=(const TraceContext&) = delete;

  bool active() const { return active_; }
  void set_class(std::string request_class);
  void set_fault(bool fault);
  void add_stage(const char* stage, double start_us, double dur_us);
  double elapsed_ms() const;

  /// Seal the trace: stamp the total, emit the Perfetto event, hand the
  /// record to FlightRecorder::global().  Idempotent; the destructor
  /// calls it.
  void finish();

  /// The context installed on this thread (nullptr outside any Scope).
  /// obs::Span reports closed spans here.
  static TraceContext* current();

  /// Installs a context as the thread's current for the scope's
  /// lifetime; nests (restores the previous context on destruction).
  class Scope {
   public:
    explicit Scope(TraceContext& context);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    TraceContext* previous_;
    bool installed_ = false;
  };

 private:
  bool active_ = false;
  bool finished_ = false;
  double start_us_ = 0;
  std::mutex mutex_;
  RequestTrace trace_;
};

/// Bounded ring of the last N finished requests.
class FlightRecorder {
 public:
  struct Options {
    size_t capacity = 256;
    /// Requests slower than this are flagged `breach` (0 = never).
    double latency_threshold_ms = 0;
    /// When set, a fault or breach dumps the ring here immediately
    /// (overwritten per dump — the file always holds the freshest
    /// evidence).
    std::string dump_path;
  };

  static FlightRecorder& global();

  /// Replaces the options and clears the ring.
  void configure(Options options);
  Options options() const;

  void add(RequestTrace trace);

  std::vector<RequestTrace> recent() const;  ///< oldest first
  uint64_t recorded() const;  ///< total adds over the recorder lifetime
  uint64_t dropped() const;   ///< adds that fell off the ring
  void clear();

  /// {"capacity":..,"recorded":..,"dropped":..,"requests":[...]} — the
  /// dump format documented in docs/OBSERVABILITY.md.
  void write_json(std::ostream& os) const;
  void write_json_file(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  Options options_;
  std::vector<RequestTrace> ring_;
  size_t next_ = 0;  ///< overwrite position once the ring is full
  uint64_t recorded_ = 0;
};

}  // namespace nbwp::obs
