// Measurement helpers of the repository benchmark: an in-memory
// span recorder with Chrome trace-event export, per-layer self time,
// nearest-rank percentiles and the SLO attainment rule.
//
// Spans are recorded by the benchmark around the public calls it makes
// into the plumber library; nothing inside the library is
// instrumented. Each span names the layer (src/ module) it enters, so
// subtracting the time covered by child spans gives each layer's self
// time.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

// Nearest-rank percentile: the smallest sample such that at least
// `pct` percent of the samples are <= it. `pct` is in (0, 100]; an
// empty input yields 0.
double NearestRank(std::vector<double> values, double pct);

// Median as the nearest-rank 50th percentile.
inline double Median(std::vector<double> values) {
  return NearestRank(std::move(values), 50);
}

// Tail percentile robust to a passing stall: the samples are cut into
// consecutive groups just large enough to hold 10 samples beyond `pct`,
// and the median of the groups' nearest-rank percentiles is returned.
// With fewer than 3 such groups it is NearestRank(values, pct).
double GroupedPercentile(const std::vector<double>& values, double pct);

// One request's outcome in an open-loop run.
struct JobOutcome {
  bool ok = false;        // finished OK with the right output
  double latency_s = 0;   // completion time measured from when it was due
};

// Share of jobs that finished OK within `slo_s` of their due time. A
// failed, refused or wrong-output job counts as a miss. Empty input
// yields 0.
double SloAttainment(const std::vector<JobOutcome>& jobs, double slo_s);

struct Span {
  const char* name = "";   // the public call, e.g. "Pipeline::Create"
  const char* layer = "";  // the module it enters, e.g. "pipeline"
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t id = 0;
  int64_t parent = 0;      // 0 = root
  int run_id = 0;          // the workload run this span belongs to
  int tid = 0;             // recording thread, for the trace viewer
};

// Self time per layer: each span's duration minus the part of its
// interval covered by its children (overlapping children counted once,
// clipped to the parent), summed by layer, in seconds.
std::map<std::string, double> SelfSecondsByLayer(
    const std::vector<Span>& spans);

// Thread-safe span recorder. When disabled every call is a no-op, so
// the untraced run pays one branch per call site.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  // Turns recording on or off (for interleaved traced/untraced windows
  // inside one run). Spans already open still close normally.
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  // Opens a span as a child of the calling thread's innermost open
  // span. `run_id` tags the workload run (or request) it belongs to.
  // Returns the span id, 0 when disabled.
  int64_t Begin(const char* name, const char* layer, int run_id = 0);
  void End(int64_t id);

  std::vector<Span> spans() const;
  // Writes the spans as Chrome trace-event JSON ("X" complete events,
  // microsecond timestamps). Returns false when the file cannot be
  // written.
  bool WriteChromeTrace(const std::string& path) const;

  // RAII span.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, const char* layer,
          int run_id = 0)
        : tracer_(tracer), id_(tracer.Begin(name, layer, run_id)) {}
    ~Scope() { tracer_.End(id_); }
    int64_t id() const { return id_; }

    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    const int64_t id_;
  };

 private:
  std::atomic<bool> enabled_;
  mutable std::mutex mu_;
  // Closed and open spans in Begin order; a span's id is its index + 1.
  std::vector<Span> spans_;
};

// Monotonic nanoseconds (steady clock).
int64_t NowNs();

}  // namespace perfbench
