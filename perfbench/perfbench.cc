// Repository benchmark: runs one workload against the plumber
// library's public API, checks the program's outputs, and prints every
// metric by name with its unit. The last line of stdout is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench --workload <name> --seed N --seconds S --trace 0|1
//             [--trace-out FILE]
//   perfbench --list-metrics
//
// Workloads (see perfbench/NOTES.md for why each exists):
//   tune_resnet18     Flow::Optimize on resnet18, then an uncapped
//                     consumer drains the optimized pipeline.
//   engine_cheap_udf  a fixed cheap-UDF program, no optimizer.
//   serve_mixed_slo   open-loop Poisson arrivals of tiny interactive
//                     and batch jobs into a 4-host FleetSession.
//
// --trace 0 measures the end-to-end metrics with span recording off.
// --trace 1 records spans around every public call perfbench makes,
// writes them as Chrome trace-event JSON, prints per-layer self times
// and reports the per-layer metrics.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/trace.h"
#include "src/api/fleet_session.h"
#include "src/api/session.h"
#include "src/core/planner.h"
#include "src/pipeline/pipeline.h"
#include "src/util/rng.h"
#include "src/workloads/datagen.h"
#include "src/workloads/workloads.h"

namespace perfbench {
namespace {

using plumber::Element;
using plumber::GraphDef;
using plumber::IteratorBase;
using plumber::IteratorStatsSnapshot;
using plumber::Pipeline;
using plumber::PipelineOptions;
using plumber::Session;
using plumber::Status;
using plumber::StatusOr;

// Layer names: the src/ module a span enters ("bench" is perfbench itself).
constexpr char kBench[] = "bench";
constexpr char kApi[] = "api";
constexpr char kCore[] = "core";
constexpr char kPipeline[] = "pipeline";
constexpr char kIo[] = "io";
constexpr char kRuntime[] = "runtime";
constexpr char kFleet[] = "fleet";

struct MetricDef {
  const char* name;
  const char* unit;
};

// Printed with --trace 0. Every workload reports every metric.
constexpr MetricDef kEndToEnd[] = {
    {"throughput_eps", "el/s"},     {"batch_p50_ms", "ms"},
    {"batch_p99_ms", "ms"},         {"setup_s", "s"},
    {"cpu_s_per_melem", "s/Melem"}, {"peak_rss_mb", "MB"},
    {"ok_frac", "ratio"},           {"interactive_p50_s", "s"},
    {"interactive_p95_s", "s"},     {"batch_job_p50_s", "s"},
    {"slo_attainment", "ratio"},
};

// Printed with --trace 1. A layer a workload does not exercise reads 0.
constexpr MetricDef kPerLayer[] = {
    {"core.optimize_s", "s"},
    {"core.trace_s", "s"},
    {"core.plan_ms", "ms"},
    {"core.lp_pred_rel", "ratio"},
    {"core.granted_workers_count", "count"},
    {"core.cache_placed_count", "count"},
    {"io.bytes_per_elem", "B/el"},
    {"io.device_util", "ratio"},
    {"pipeline.create_ms", "ms"},
    {"pipeline.first_batch_ms", "ms"},
    {"pipeline.root.queue_empty_frac", "ratio"},
    {"pipeline.root.cpu_ns_per_elem", "ns/el"},
    {"pipeline.map.cpu_ns_per_elem", "ns/el"},
    {"ledger.source_ns", "ns/el"},
    {"ledger.map_hop_ns", "ns/el"},
    {"ledger.udf_ns", "ns/el"},
    {"ledger.accounting_ns", "ns/el"},
    {"ledger.closure_rel", "ratio"},
    {"api.submit_us", "us"},
    {"fleet.queue_ms.p50", "ms"},
    {"fleet.queue_ms.p95", "ms"},
    {"runtime.exec_queue_ms.p50", "ms"},
    {"runtime.exec_queue_ms.p95", "ms"},
    {"runtime.run_overhead_ms", "ms"},
    {"runtime.granted_cores", "cores"},
    {"fleet.steal_count", "count"},
    {"fleet.transfer_bytes", "B"},
    {"fleet.host_skew_rel", "ratio"},
    {"bench.gen_late_ms", "ms"},
    {"bench.trace_overhead_rel", "ratio"},
    {"selftime.bench_s", "s"},
    {"selftime.api_s", "s"},
    {"selftime.core_s", "s"},
    {"selftime.pipeline_s", "s"},
    {"selftime.io_s", "s"},
    {"selftime.runtime_s", "s"},
    {"selftime.fleet_s", "s"},
};

// Sizes of the serve workload's two job classes. The training workloads
// report the same latency metrics for requests of these sizes, cut from
// their consumer stream, so every workload has every metric.
constexpr int64_t kInteractiveElems = 60;
constexpr int64_t kBatchJobElems = 400;
// Interactive SLO: done within this long of the due time.
constexpr double kSloSeconds = 0.1;
// Open-loop validity: the generator's p99 lateness must stay below this.
constexpr double kMaxGenLateP99Ms = 10.0;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

struct Result {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, double> values;

  void Set(const std::string& name, double value) { values[name] = value; }
  void Problem(const std::string& what) {
    correct = false;
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
  }
};

// Set-up failures are not measurements: abort the run without a result.
template <typename T>
T Must(StatusOr<T> value_or, const char* what) {
  if (!value_or.ok()) {
    throw std::runtime_error(std::string(what) + ": " +
                             value_or.status().ToString());
  }
  return std::move(value_or).value();
}

void MustOk(const Status& status, const char* what) {
  if (!status.ok()) {
    throw std::runtime_error(std::string(what) + ": " + status.ToString());
  }
}

double ProcessCpuSeconds() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return ts.tv_sec + ts.tv_nsec * 1e-9;
}

double PeakRssMb() {
  rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

double Seconds(int64_t ns) { return ns * 1e-9; }

// ------------------------------------------------------------ consumer
// Running totals of one consumer over one pipeline iterator.
struct Drained {
  int64_t batches = 0;
  int64_t elements = 0;
  int64_t bad_batches = 0;  // GetNext error, end of data or check failure
  int64_t wall_ns = 0;
  double cpu_s = 0;
  // Start and end of every GetNext call, for batch and request latency.
  std::vector<int64_t> call_start_ns;
  std::vector<int64_t> call_end_ns;
  // Rate and process CPU per element of each one-second slice: their
  // medians keep a passing stall on a shared host out of the result.
  std::vector<double> slice_eps;
  std::vector<double> slice_cpu_s_per_elem;
};

constexpr int64_t kSliceNs = 1'000'000'000;

// Pulls batches for `seconds`, timing every GetNext. `check` sees every
// batch and returns false for a wrong one.
Drained Drain(IteratorBase* it, double seconds, Tracer& tracer,
              const std::function<bool(const Element&)>& check,
              bool record_calls) {
  Drained d;
  const double cpu0 = ProcessCpuSeconds();
  const int64_t t0 = NowNs();
  const int64_t deadline = t0 + static_cast<int64_t>(seconds * 1e9);
  int64_t slice_start = t0, slice_elems = 0;
  double slice_cpu0 = cpu0;
  Element batch;
  for (;;) {
    const int64_t start = NowNs();
    if (start - slice_start >= kSliceNs && slice_elems > 0) {
      const double cpu = ProcessCpuSeconds();
      d.slice_eps.push_back(slice_elems / Seconds(start - slice_start));
      d.slice_cpu_s_per_elem.push_back((cpu - slice_cpu0) / slice_elems);
      slice_start = start;
      slice_cpu0 = cpu;
      slice_elems = 0;
    }
    if (start >= deadline) break;
    bool end = false;
    Status status;
    {
      Tracer::Scope span(tracer, "IteratorBase::GetNext", kPipeline);
      status = it->GetNext(&batch, &end);
    }
    const int64_t stop = NowNs();
    ++d.batches;
    if (record_calls) {
      d.call_start_ns.push_back(start);
      d.call_end_ns.push_back(stop);
    }
    if (!status.ok() || end) {
      ++d.bad_batches;
      std::fprintf(stderr, "perfbench: GetNext %s\n",
                   status.ok() ? "reached end of data" :
                                 status.ToString().c_str());
      break;
    }
    d.elements += static_cast<int64_t>(batch.components.size());
    slice_elems += static_cast<int64_t>(batch.components.size());
    if (!check(batch)) ++d.bad_batches;
  }
  d.wall_ns = NowNs() - t0;
  d.cpu_s = ProcessCpuSeconds() - cpu0;
  return d;
}

void Append(Drained* into, Drained&& from) {
  into->batches += from.batches;
  into->elements += from.elements;
  into->bad_batches += from.bad_batches;
  into->wall_ns += from.wall_ns;
  into->cpu_s += from.cpu_s;
  into->call_start_ns.insert(into->call_start_ns.end(),
                             from.call_start_ns.begin(),
                             from.call_start_ns.end());
  into->call_end_ns.insert(into->call_end_ns.end(), from.call_end_ns.begin(),
                           from.call_end_ns.end());
  into->slice_eps.insert(into->slice_eps.end(), from.slice_eps.begin(),
                         from.slice_eps.end());
  into->slice_cpu_s_per_elem.insert(into->slice_cpu_s_per_elem.end(),
                                    from.slice_cpu_s_per_elem.begin(),
                                    from.slice_cpu_s_per_elem.end());
}

// Latency of consecutive requests of `elems` elements cut from the
// consumer stream: first call start to last call end of each request.
std::vector<double> RequestLatencies(const Drained& d, int64_t batch_elems,
                                     int64_t elems) {
  const size_t per = static_cast<size_t>(
      std::max<int64_t>(1, (elems + batch_elems - 1) / batch_elems));
  std::vector<double> out;
  for (size_t i = 0; i + per <= d.call_start_ns.size(); i += per) {
    out.push_back(Seconds(d.call_end_ns[i + per - 1] - d.call_start_ns[i]));
  }
  return out;
}

// End-to-end metrics common to the two training-style workloads.
void ReportConsumer(const Drained& d, int64_t batch_elems, Result* r) {
  std::vector<double> wait_ms;
  wait_ms.reserve(d.call_start_ns.size());
  for (size_t i = 0; i < d.call_start_ns.size(); ++i) {
    wait_ms.push_back((d.call_end_ns[i] - d.call_start_ns[i]) * 1e-6);
  }
  const std::vector<double> interactive =
      RequestLatencies(d, batch_elems, kInteractiveElems);
  std::vector<JobOutcome> outcomes;
  for (double s : interactive) outcomes.push_back({true, s});
  // Windows shorter than a slice fall back to the whole-window figures.
  const bool sliced = !d.slice_eps.empty();
  r->Set("throughput_eps",
         sliced ? Median(d.slice_eps) : d.elements / Seconds(d.wall_ns));
  r->Set("batch_p50_ms", NearestRank(wait_ms, 50));
  r->Set("batch_p99_ms", GroupedPercentile(wait_ms, 99));
  r->Set("cpu_s_per_melem",
         (sliced ? Median(d.slice_cpu_s_per_elem) : d.cpu_s / d.elements) *
             1e6);
  r->Set("interactive_p50_s", NearestRank(interactive, 50));
  r->Set("interactive_p95_s", GroupedPercentile(interactive, 95));
  r->Set("batch_job_p50_s",
         Median(RequestLatencies(d, batch_elems, kBatchJobElems)));
  r->Set("slo_attainment", SloAttainment(outcomes, kSloSeconds));
  r->attempted += d.batches;
  r->failed += d.bad_batches;
  std::printf("  %lld batches, %lld elements, %.0f interactive-size "
              "requests, %lld failed\n",
              static_cast<long long>(d.batches),
              static_cast<long long>(d.elements),
              static_cast<double>(interactive.size()),
              static_cast<long long>(d.bad_batches));
}

const IteratorStatsSnapshot* FindNode(
    const std::vector<IteratorStatsSnapshot>& stats, const std::string& name) {
  for (const auto& s : stats) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

// CPU ns a node spent between two snapshots.
double CpuDelta(const std::vector<IteratorStatsSnapshot>& before,
                const std::vector<IteratorStatsSnapshot>& after,
                const std::string& name) {
  const IteratorStatsSnapshot* a = FindNode(after, name);
  const IteratorStatsSnapshot* b = FindNode(before, name);
  if (a == nullptr) return 0;
  return static_cast<double>(a->cpu_ns - (b != nullptr ? b->cpu_ns : 0));
}

// CPU ns per element a node produced between two snapshots.
double CpuNsPerElem(const std::vector<IteratorStatsSnapshot>& before,
                    const std::vector<IteratorStatsSnapshot>& after,
                    const std::string& name) {
  const IteratorStatsSnapshot* a = FindNode(after, name);
  const IteratorStatsSnapshot* b = FindNode(before, name);
  if (a == nullptr) return 0;
  const uint64_t produced =
      a->elements_produced - (b != nullptr ? b->elements_produced : 0);
  return produced > 0 ? CpuDelta(before, after, name) / produced : 0;
}

// Root and busiest map node (most CPU in the window) of one pipeline.
void ReportNodes(const GraphDef& graph,
                 const std::vector<IteratorStatsSnapshot>& before,
                 const std::vector<IteratorStatsSnapshot>& after, Result* r) {
  std::string map;
  double map_cpu = -1;
  for (const auto& node : graph.nodes()) {
    const double cpu = CpuDelta(before, after, node.name);
    if (node.op == "map" && cpu > map_cpu) {
      map_cpu = cpu;
      map = node.name;
    }
  }
  const IteratorStatsSnapshot* root = FindNode(after, graph.output());
  r->Set("pipeline.root.queue_empty_frac",
         root != nullptr ? root->queue_empty_fraction : 0);
  r->Set("pipeline.root.cpu_ns_per_elem",
         CpuNsPerElem(before, after, graph.output()));
  r->Set("pipeline.map.cpu_ns_per_elem", CpuNsPerElem(before, after, map));
}

// One instantiated program: the session it reads from, the pipeline
// and its root iterator (destroyed in reverse order).
struct Instance {
  std::unique_ptr<Session> session;
  GraphDef graph;
  std::unique_ptr<Pipeline> pipeline;
  std::unique_ptr<IteratorBase> iterator;
  double create_ms = 0;       // Pipeline::Create + MakeIterator
  double first_batch_ms = 0;  // first GetNext

  ~Instance() {
    if (pipeline != nullptr) pipeline->Cancel();
    iterator.reset();
    pipeline.reset();
  }
};

// Pipeline::Create + MakeIterator + the first GetNext, each in a span.
void Instantiate(Instance* inst, const PipelineOptions& options,
                 Tracer& tracer, Element* first) {
  const int64_t t0 = NowNs();
  {
    Tracer::Scope span(tracer, "Pipeline::Create", kPipeline);
    inst->pipeline = Must(Pipeline::Create(inst->graph, options),
                          "Pipeline::Create");
  }
  {
    Tracer::Scope span(tracer, "Pipeline::MakeIterator", kPipeline);
    inst->iterator = Must(inst->pipeline->MakeIterator(), "MakeIterator");
  }
  const int64_t t1 = NowNs();
  bool end = false;
  {
    Tracer::Scope span(tracer, "IteratorBase::GetNext", kPipeline);
    MustOk(inst->iterator->GetNext(first, &end), "first GetNext");
  }
  if (end) throw std::runtime_error("pipeline produced no data");
  inst->create_ms = (t1 - t0) * 1e-6;
  inst->first_batch_ms = (NowNs() - t1) * 1e-6;
}

// --------------------------------------------------------- tune_resnet18
constexpr int kResnetSetups = 3;
constexpr double kResnetWarmupSeconds = 1.0;

std::unique_ptr<Session> MakeResnetSession(const plumber::Workload& w,
                                           uint64_t seed, Tracer& tracer) {
  Tracer::Scope span(tracer, "Session+datasets", kIo);
  plumber::SessionOptions options;
  options.machine = plumber::MachineSpec::SetupA(plumber::kMemoryScale);
  options.machine.num_cores = 8;
  options.seed = seed;
  auto session = std::make_unique<Session>(options);
  MustOk(plumber::RegisterStandardDatasets(&session->fs(), seed),
         "RegisterStandardDatasets");
  MustOk(plumber::RegisterWorkloadUdfs(&session->udfs()),
         "RegisterWorkloadUdfs");
  session->AttachStorage(w.storage);
  return session;
}

Result RunTuneResnet18(const Args& args, Tracer& tracer) {
  Result r;
  const plumber::Workload w =
      Must(plumber::MakeWorkload("resnet18"), "MakeWorkload");

  // Reference: the naive program's batch shape and element size.
  size_t ref_components = 0;
  double ref_bytes_per_elem = 0;
  {
    Instance naive;
    naive.session = MakeResnetSession(w, args.seed, tracer);
    naive.graph = w.graph;
    Element batch;
    Instantiate(&naive, naive.session->MakePipelineOptions(), tracer, &batch);
    ref_components = batch.components.size();
    uint64_t bytes = 0;
    int64_t elems = 0;
    for (int i = 0; i < 16; ++i) {
      bool end = false;
      MustOk(naive.iterator->GetNext(&batch, &end), "naive GetNext");
      if (end || batch.components.size() != ref_components) {
        throw std::runtime_error("naive program yields irregular batches");
      }
      bytes += batch.TotalBytes();
      elems += static_cast<int64_t>(batch.components.size());
    }
    ref_bytes_per_elem = static_cast<double>(bytes) / elems;
  }

  // Set-up, repeated: session + Optimize + instantiate + first batch.
  std::vector<double> setup_s, optimize_s, create_ms, first_ms;
  std::unique_ptr<Instance> inst;
  plumber::OptimizedFlow optimized;
  for (int k = 0; k < kResnetSetups; ++k) {
    Tracer::Scope setup_span(tracer, "setup", kBench, k + 1);
    inst.reset();
    const int64_t t0 = NowNs();
    auto next = std::make_unique<Instance>();
    next->session = MakeResnetSession(w, args.seed, tracer);
    plumber::Flow flow;
    {
      Tracer::Scope span(tracer, "Session::FromGraph", kApi);
      flow = next->session->FromGraph(w.graph);
    }
    const int64_t t_opt = NowNs();
    {
      Tracer::Scope span(tracer, "Flow::Optimize", kCore);
      optimized = Must(flow.Optimize(), "Flow::Optimize");
    }
    optimize_s.push_back(Seconds(NowNs() - t_opt));
    {
      Tracer::Scope span(tracer, "OptimizedFlow::Graph", kApi);
      next->graph = Must(optimized.Graph(), "OptimizedFlow::Graph");
    }
    Element first;
    Instantiate(next.get(), next->session->MakePipelineOptions(), tracer,
                &first);
    setup_s.push_back(Seconds(NowNs() - t0));
    create_ms.push_back(next->create_ms);
    first_ms.push_back(next->first_batch_ms);
    inst = std::move(next);
  }

  uint64_t window_bytes = 0;
  int64_t window_elems = 0;
  auto check = [&](const Element& batch) {
    window_bytes += batch.TotalBytes();
    window_elems += static_cast<int64_t>(batch.components.size());
    return batch.components.size() == ref_components;
  };

  if (args.trace) {
    // Layer probes on the naive program: trace, model, LP.
    plumber::Flow naive_flow = inst->session->FromGraph(w.graph);
    const int64_t t0 = NowNs();
    {
      Tracer::Scope span(tracer, "Flow::Trace", kCore);
      Must(naive_flow.Trace(0.3), "Flow::Trace");
    }
    r.Set("core.trace_s", Seconds(NowNs() - t0));
    plumber::PipelineModel model = [&] {
      Tracer::Scope span(tracer, "Flow::Diagnose", kCore);
      return Must(naive_flow.Diagnose(0.3), "Flow::Diagnose");
    }();
    std::vector<double> plan_ms;
    for (int i = 0; i < 50; ++i) {
      const int64_t p0 = NowNs();
      Tracer::Scope span(tracer, "PlanAllocation", kCore);
      const plumber::LpPlan plan = plumber::PlanAllocation(model);
      if (plan.predicted_rate <= 0) r.Problem("PlanAllocation predicts 0");
      plan_ms.push_back((NowNs() - p0) * 1e-6);
    }
    r.Set("core.plan_ms", Median(plan_ms));
  }

  // Warm-up: worker pools and prefetch buffers fill.
  {
    tracer.set_enabled(false);
    Drain(inst->iterator.get(), kResnetWarmupSeconds, tracer, check, false);
    tracer.set_enabled(args.trace);
  }
  window_bytes = 0;
  window_elems = 0;

  const plumber::StorageDevice* device = inst->session->storage();
  const uint64_t dev0 = device->total_bytes_read();
  const auto nodes0 = inst->pipeline->stats().Snapshot();
  Drained total;
  double traced_eps = 0, untraced_eps = 0;
  if (!args.trace) {
    total = Drain(inst->iterator.get(), args.seconds, tracer, check, true);
  } else {
    // Alternate span recording off/on to measure its overhead.
    Drained on, off;
    for (int i = 0; i < 4; ++i) {
      const bool traced = i % 2 == 1;
      tracer.set_enabled(traced);
      Drained d = Drain(inst->iterator.get(), args.seconds / 4, tracer,
                        check, true);
      Append(traced ? &on : &off, std::move(d));
    }
    tracer.set_enabled(true);
    traced_eps = on.elements / Seconds(on.wall_ns);
    untraced_eps = off.elements / Seconds(off.wall_ns);
    total = std::move(off);
    Append(&total, std::move(on));
  }
  const auto nodes1 = inst->pipeline->stats().Snapshot();
  const uint64_t dev_bytes = device->total_bytes_read() - dev0;

  ReportConsumer(total, static_cast<int64_t>(ref_components), &r);
  r.Set("setup_s", Median(setup_s));
  const double mean_bytes =
      window_elems > 0 ? static_cast<double>(window_bytes) / window_elems : 0;
  std::printf("  element size %.1f B (naive program %.1f B), batch of %zu\n",
              mean_bytes, ref_bytes_per_elem, ref_components);
  if (std::fabs(mean_bytes / ref_bytes_per_elem - 1) > 0.05) {
    r.Problem("optimized element size differs from the naive program's");
  }

  if (args.trace) {
    int workers = 0, caches = 0;
    for (const auto& node : inst->graph.nodes()) {
      if (node.op == "cache") ++caches;
      if (node.op == "map" || node.op == "interleave") {
        workers += static_cast<int>(node.GetInt("parallelism", 1));
      }
    }
    const double batches_per_s = total.batches / Seconds(total.wall_ns);
    r.Set("core.optimize_s", Median(optimize_s));
    r.Set("core.lp_pred_rel", optimized.plan.predicted_rate / batches_per_s);
    r.Set("core.granted_workers_count", workers);
    r.Set("core.cache_placed_count", caches);
    r.Set("io.bytes_per_elem",
          static_cast<double>(dev_bytes) / total.elements);
    r.Set("io.device_util",
          dev_bytes / (Seconds(total.wall_ns) * w.storage.max_bandwidth));
    r.Set("pipeline.create_ms", Median(create_ms));
    r.Set("pipeline.first_batch_ms", Median(first_ms));
    r.Set("bench.trace_overhead_rel", traced_eps / untraced_eps);
    ReportNodes(inst->graph, nodes0, nodes1, &r);
  }
  return r;
}

// ------------------------------------------------------ engine_cheap_udf
constexpr int kCheapFiles = 4;
constexpr int kCheapRecordsPerFile = 512;
constexpr uint64_t kCheapRecordBytes = 128;
constexpr int kCheapBatch = 64;
constexpr int kCheapEngineBatch = 64;
constexpr int kCheapSetups = 25;
constexpr double kCheapWarmupSeconds = 1.0;
constexpr int64_t kCheapEpochElems =
    static_cast<int64_t>(kCheapFiles) * kCheapRecordsPerFile;

std::unique_ptr<Session> MakeCheapSession(uint64_t seed, Tracer& tracer) {
  Tracer::Scope span(tracer, "Session+records", kIo);
  plumber::SessionOptions options;
  options.seed = seed;
  options.work_model = plumber::CpuWorkModel::kPhysical;
  options.engine_batch_size = kCheapEngineBatch;
  auto session = std::make_unique<Session>(options);
  MustOk(session->CreateRecordFiles("cheap/part-", kCheapFiles,
                                    kCheapRecordsPerFile, kCheapRecordBytes),
         "CreateRecordFiles");
  plumber::UdfSpec cheap;
  cheap.name = "cheap";
  cheap.cost_ns_per_element = 2000;
  MustOk(session->RegisterUdf(cheap), "RegisterUdf");
  plumber::UdfSpec noop;
  noop.name = "noop";
  MustOk(session->RegisterUdf(noop), "RegisterUdf");
  return session;
}

// The measured program; the ledger variants change one piece of it.
enum class CheapVariant {
  kProgram,     // files -> interleave(2) -> map(cheap, 2) -> repeat -> batch
  kSourceOnly,  // files -> interleave(2) -> repeat -> batch
  kNoopMap,     // files -> interleave(2) -> map(noop, 2) -> repeat -> batch
  kRangeCheap,  // range -> map(cheap, 2) -> batch
  kRangeNoop,   // range -> map(noop, 2) -> batch
  kReference,   // files -> interleave(2) -> map(cheap, 1) -> batch
};

GraphDef CheapGraph(Session& session, CheapVariant v, Tracer& tracer) {
  Tracer::Scope span(tracer, "Flow::Graph", kApi);
  plumber::Flow flow;
  switch (v) {
    case CheapVariant::kRangeCheap:
    case CheapVariant::kRangeNoop:
      flow = session.Range(-1).Map(
          v == CheapVariant::kRangeCheap ? "cheap" : "noop", 2);
      break;
    default:
      flow = session.Files("cheap/part-").Interleave(2);
      if (v == CheapVariant::kProgram) flow = flow.Map("cheap", 2);
      if (v == CheapVariant::kNoopMap) flow = flow.Map("noop", 2);
      if (v == CheapVariant::kReference) flow = flow.Map("cheap", 1);
      if (v != CheapVariant::kReference) flow = flow.Repeat();
  }
  return Must(flow.Batch(kCheapBatch).Graph(), "Flow::Graph");
}

uint64_t ComponentKey(const plumber::Buffer& c) {
  uint64_t k = 0;
  std::memcpy(&k, c.data(), std::min(sizeof(k), c.size()));
  return plumber::SplitMix64(k);
}

// Checks every batch's shape and, per epoch of the repeated input, the
// sum of its elements' content keys against the reference epoch.
struct EpochChecker {
  uint64_t expected = 0;
  uint64_t running = 0;
  int64_t seen = 0;
  int64_t bad_epochs = 0;

  bool Check(const Element& batch) {
    bool ok = batch.components.size() == static_cast<size_t>(kCheapBatch);
    for (const plumber::Buffer& c : batch.components) {
      ok = ok && c.size() == kCheapRecordBytes;
      running += ComponentKey(c);
      if (++seen % kCheapEpochElems == 0) {
        if (running != expected) {
          ++bad_epochs;
          ok = false;
        }
        running = 0;
      }
    }
    return ok;
  }
};

Result RunEngineCheapUdf(const Args& args, Tracer& tracer) {
  Result r;
  // Reference epoch: one pass, element at a time, map parallelism 1.
  EpochChecker checker;
  {
    Instance ref;
    ref.session = MakeCheapSession(args.seed, tracer);
    ref.graph = CheapGraph(*ref.session, CheapVariant::kReference, tracer);
    PipelineOptions options = ref.session->MakePipelineOptions();
    options.engine_batch_size = 1;
    Element batch;
    Instantiate(&ref, options, tracer, &batch);
    int64_t elems = 0;
    for (;;) {
      for (const auto& c : batch.components) checker.expected += ComponentKey(c);
      elems += static_cast<int64_t>(batch.components.size());
      bool end = false;
      MustOk(ref.iterator->GetNext(&batch, &end), "reference GetNext");
      if (end) break;
    }
    if (elems != kCheapEpochElems) {
      throw std::runtime_error("reference epoch has the wrong size");
    }
  }

  std::vector<double> setup_s, create_ms, first_ms;
  std::unique_ptr<Instance> inst;
  for (int k = 0; k < kCheapSetups; ++k) {
    Tracer::Scope setup_span(tracer, "setup", kBench, k + 1);
    inst.reset();
    checker.running = 0;
    checker.seen = 0;
    const int64_t t0 = NowNs();
    auto next = std::make_unique<Instance>();
    next->session = MakeCheapSession(args.seed, tracer);
    next->graph = CheapGraph(*next->session, CheapVariant::kProgram, tracer);
    Element first;
    Instantiate(next.get(), next->session->MakePipelineOptions(), tracer,
                &first);
    setup_s.push_back(Seconds(NowNs() - t0));
    create_ms.push_back(next->create_ms);
    first_ms.push_back(next->first_batch_ms);
    if (!checker.Check(first)) r.Problem("first batch is malformed");
    inst = std::move(next);
  }
  auto check = [&](const Element& batch) { return checker.Check(batch); };

  tracer.set_enabled(false);
  Drain(inst->iterator.get(), kCheapWarmupSeconds, tracer, check, false);
  tracer.set_enabled(args.trace);
  const int64_t bad_epochs0 = checker.bad_epochs;

  const auto nodes0 = inst->pipeline->stats().Snapshot();
  Drained total;
  if (!args.trace) {
    total = Drain(inst->iterator.get(), args.seconds, tracer, check, true);
  } else {
    // Ledger: each variant differs from its neighbour in one piece, all
    // measured in interleaved rounds as process CPU ns per element.
    struct Arm {
      CheapVariant variant;
      bool program_tracing;  // the engine's own stats/CPU accounting
      bool spans;            // perfbench's own span recording
      std::unique_ptr<Instance> inst;
      double cpu_s = 0;
      int64_t elems = 0, wall_ns = 0;
    };
    std::vector<Arm> arms;
    arms.push_back({CheapVariant::kProgram, true, false, nullptr});
    arms.push_back({CheapVariant::kProgram, true, true, nullptr});
    arms.push_back({CheapVariant::kProgram, false, false, nullptr});
    arms.push_back({CheapVariant::kSourceOnly, false, false, nullptr});
    arms.push_back({CheapVariant::kNoopMap, false, false, nullptr});
    arms.push_back({CheapVariant::kRangeCheap, false, false, nullptr});
    arms.push_back({CheapVariant::kRangeNoop, false, false, nullptr});
    auto accept = [](const Element&) { return true; };
    for (size_t a = 2; a < arms.size(); ++a) {
      Arm& arm = arms[a];
      arm.inst = std::make_unique<Instance>();
      arm.inst->session = MakeCheapSession(args.seed, tracer);
      arm.inst->graph = CheapGraph(*arm.inst->session, arm.variant, tracer);
      PipelineOptions options = arm.inst->session->MakePipelineOptions();
      options.tracing_enabled = arm.program_tracing;
      Element first;
      Instantiate(arm.inst.get(), options, tracer, &first);
      tracer.set_enabled(false);
      Drain(arm.inst->iterator.get(), 0.2, tracer, accept, false);
      tracer.set_enabled(true);
    }
    constexpr int kRounds = 3;
    const double window = args.seconds / (kRounds * arms.size());
    for (int round = 0; round < kRounds; ++round) {
      for (size_t a = 0; a < arms.size(); ++a) {
        Arm& arm = arms[a];
        const bool program = arm.inst == nullptr;
        IteratorBase* it = program ? inst->iterator.get()
                                   : arm.inst->iterator.get();
        tracer.set_enabled(arm.spans);
        Drained d = Drain(it, window, tracer,
                          program ? std::function<bool(const Element&)>(check)
                                  : accept,
                          program);
        arm.cpu_s += d.cpu_s;
        arm.elems += d.elements;
        arm.wall_ns += d.wall_ns;
        if (program) {
          Append(&total, std::move(d));
        } else {
          r.attempted += d.batches;
          r.failed += d.bad_batches;
        }
      }
    }
    tracer.set_enabled(true);
    auto cpu_ns = [](const Arm& a) { return a.cpu_s * 1e9 / a.elems; };
    auto eps = [](const Arm& a) { return a.elems / Seconds(a.wall_ns); };
    const double whole = cpu_ns(arms[0]);
    const double source = cpu_ns(arms[3]);
    const double hop = cpu_ns(arms[4]) - source;
    const double udf = cpu_ns(arms[5]) - cpu_ns(arms[6]);
    const double accounting = whole - cpu_ns(arms[2]);
    r.Set("ledger.source_ns", source);
    r.Set("ledger.map_hop_ns", hop);
    r.Set("ledger.udf_ns", udf);
    r.Set("ledger.accounting_ns", accounting);
    r.Set("ledger.closure_rel", (source + hop + udf + accounting) / whole);
    r.Set("bench.trace_overhead_rel", eps(arms[1]) / eps(arms[0]));
    std::printf("  ledger (process CPU ns/element): source %.0f + map hop "
                "%.0f + udf %.0f + accounting %.0f vs whole %.0f\n",
                source, hop, udf, accounting, whole);
  }
  const auto nodes1 = inst->pipeline->stats().Snapshot();

  ReportConsumer(total, kCheapBatch, &r);
  r.Set("setup_s", Median(setup_s));
  const int64_t bad_epochs = checker.bad_epochs - bad_epochs0;
  std::printf("  %lld epochs checked against the reference checksum, "
              "%lld wrong\n",
              static_cast<long long>(total.elements / kCheapEpochElems),
              static_cast<long long>(bad_epochs));
  if (checker.bad_epochs > 0) r.Problem("epoch checksum mismatch");
  if (args.trace) {
    r.Set("pipeline.create_ms", Median(create_ms));
    r.Set("pipeline.first_batch_ms", Median(first_ms));
    ReportNodes(inst->graph, nodes0, nodes1, &r);
  }
  return r;
}

// ------------------------------------------------------- serve_mixed_slo
// Four hosts at 24 arrivals/s: each host sees the load of a 2-host
// fleet at 12/s, and a run holds twice the interactive jobs, enough for
// a steady p95.
constexpr int kServeHosts = 4;
constexpr double kArrivalsPerSecond = 24.0;
constexpr double kInteractiveShare = 0.7;
constexpr int kServeSetups = 5;
// Modeled service time of each class at its configured parallelism:
// interactive 60 x 1 ms over 2 workers; batch bound by its 1 ms stage,
// 400 x 1 ms over 3 workers.
constexpr double kInteractiveServiceS = 60 * 1e-3 / 2;
constexpr double kBatchServiceS = 400 * 1e-3 / 3;

struct Fleet {
  std::unique_ptr<plumber::FleetSession> session;
  GraphDef interactive;
  GraphDef batch;
};

Fleet MakeFleet(uint64_t seed, Tracer& tracer) {
  Fleet f;
  plumber::FleetSessionOptions options;
  plumber::MachineSpec host = plumber::MachineSpec::SetupA();
  host.num_cores = 4;
  options.hosts.assign(kServeHosts, host);
  options.fleet.policy = plumber::fleet::DispatchPolicy::kSloAware;
  options.fleet.work_stealing = true;
  options.seed = seed;
  {
    Tracer::Scope span(tracer, "FleetSession::FleetSession", kFleet);
    f.session = std::make_unique<plumber::FleetSession>(options);
  }
  Tracer::Scope span(tracer, "Flow::Graph", kApi);
  plumber::UdfSpec ms1;
  ms1.name = "svc_1ms";
  ms1.cost_ns_per_element = 1e6;
  MustOk(f.session->RegisterUdf(ms1), "RegisterUdf");
  plumber::UdfSpec us200;
  us200.name = "svc_200us";
  us200.cost_ns_per_element = 2e5;
  MustOk(f.session->RegisterUdf(us200), "RegisterUdf");
  Session& env = f.session->env();
  f.interactive = Must(
      env.Range(kInteractiveElems).Map("svc_1ms", 2).Batch(4).Graph(),
      "interactive graph");
  f.batch = Must(env.Range(kBatchJobElems)
                     .Map("svc_1ms", 3)
                     .Map("svc_200us")
                     .Batch(8)
                     .Graph(),
                 "batch graph");
  return f;
}

struct Arrival {
  int64_t due_ns = 0;  // offset from the start of the window
  bool interactive = false;
};

// Poisson arrivals with exactly round(rate x seconds) jobs in the
// window, exactly the interactive share of them in seeded order. The
// exponential inter-arrival gaps are stratified: one draw per
// equal-probability slice, in seeded order. Seeds change the order and
// timing of arrivals; the offered load and the spread of gaps stay
// fixed, which keeps latency comparable from seed to seed.
std::vector<Arrival> MakeArrivals(uint64_t seed, double seconds) {
  plumber::Rng rng(plumber::SplitMix64(seed));
  const size_t n = static_cast<size_t>(
      std::max(1.0, std::round(kArrivalsPerSecond * seconds)));
  std::vector<double> gaps(n + 1);
  double total = 0;
  for (size_t i = 0; i < gaps.size(); ++i) {
    const double u = (i + rng.UniformDouble()) / gaps.size();
    gaps[i] = -std::log1p(-u) / kArrivalsPerSecond;
    total += gaps[i];
  }
  rng.Shuffle(gaps);
  std::vector<bool> interactive(n);
  const size_t num_interactive =
      static_cast<size_t>(std::round(kInteractiveShare * n));
  for (size_t i = 0; i < n; ++i) interactive[i] = i < num_interactive;
  rng.Shuffle(interactive);
  std::vector<Arrival> out(n);
  double t = 0;
  for (size_t i = 0; i < n; ++i) {
    t += gaps[i] * seconds / total;
    out[i].due_ns = static_cast<int64_t>(t * 1e9);
    out[i].interactive = interactive[i];
  }
  return out;
}

Result RunServeMixedSlo(const Args& args, Tracer& tracer) {
  Result r;
  std::vector<double> setup_s;
  Fleet fleet;
  for (int k = 0; k < kServeSetups; ++k) {
    Tracer::Scope setup_span(tracer, "setup", kBench, k + 1);
    fleet = Fleet();
    const int64_t t0 = NowNs();
    fleet = MakeFleet(args.seed, tracer);
    // Ready to serve: one interactive job has made the round trip.
    plumber::fleet::FleetJobOptions options;
    options.job.slo = plumber::runtime::SloClass::kInteractive;
    plumber::fleet::FleetJobHandle warmup;
    {
      Tracer::Scope span(tracer, "FleetSession::Submit", kApi);
      warmup = fleet.session->Submit(fleet.interactive, options);
    }
    {
      Tracer::Scope span(tracer, "FleetJobHandle::Wait", kFleet);
      MustOk(warmup.Wait(), "warm-up job");
    }
    setup_s.push_back(Seconds(NowNs() - t0));
  }

  if (args.trace) {
    // Instantiation cost of one interactive job's pipeline, driven to
    // completion: the per-job create/teardown the fleet pays.
    std::vector<double> create_ms, first_ms;
    std::vector<IteratorStatsSnapshot> stats;
    for (int k = 0; k < kServeSetups; ++k) {
      Instance probe;
      probe.graph = fleet.interactive;
      Element batch;
      Instantiate(&probe, fleet.session->env().MakePipelineOptions(), tracer,
                  &batch);
      bool end = false;
      while (!end) {
        Tracer::Scope span(tracer, "IteratorBase::GetNext", kPipeline);
        MustOk(probe.iterator->GetNext(&batch, &end), "probe GetNext");
      }
      create_ms.push_back(probe.create_ms);
      first_ms.push_back(probe.first_batch_ms);
      stats = probe.pipeline->stats().Snapshot();
    }
    r.Set("pipeline.create_ms", Median(create_ms));
    r.Set("pipeline.first_batch_ms", Median(first_ms));
    ReportNodes(fleet.interactive, {}, stats, &r);
  }

  const std::vector<Arrival> arrivals = MakeArrivals(args.seed, args.seconds);
  const size_t n = arrivals.size();
  std::vector<plumber::fleet::FleetJobHandle> handles(n);
  std::vector<int64_t> submit_ns(n, 0);
  std::vector<double> late_ms(n, 0), submit_us(n, 0);
  plumber::fleet::FleetRuntime& runtime = fleet.session->runtime();
  const int64_t steals0 = runtime.steal_count();
  const uint64_t transfer0 = runtime.transfer_bytes();

  std::atomic<bool> done{false};
  std::vector<double> granted;
  const double cpu0 = ProcessCpuSeconds();
  const int64_t t0 = NowNs() + 5'000'000;  // first due time is >= 5 ms out
  // Polls every host's load while jobs run.
  std::thread poller([&] {
    while (!done.load()) {
      double cores = 0;
      {
        Tracer::Scope span(tracer, "FleetRuntime::HostLoad", kRuntime);
        for (int h = 0; h < runtime.num_hosts(); ++h) {
          cores += runtime.HostLoad(h).executor.granted_cores;
        }
      }
      granted.push_back(cores);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });
  // Open loop: one thread submits each job at its due time, whatever
  // the state of earlier jobs. With --trace 1 the first half of the
  // arrivals is submitted untraced, the second half traced.
  std::thread generator([&] {
    for (size_t i = 0; i < n; ++i) {
      if (args.trace) tracer.set_enabled(i >= n / 2);
      const int64_t due = t0 + arrivals[i].due_ns;
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(due)));
      plumber::fleet::FleetJobOptions options;
      options.job.slo = arrivals[i].interactive
                            ? plumber::runtime::SloClass::kInteractive
                            : plumber::runtime::SloClass::kBatch;
      const int64_t start = NowNs();
      {
        Tracer::Scope span(tracer, "FleetSession::Submit", kApi,
                           static_cast<int>(i) + 1);
        handles[i] = fleet.session->Submit(
            arrivals[i].interactive ? fleet.interactive : fleet.batch,
            options);
      }
      submit_ns[i] = start;
      submit_us[i] = (NowNs() - start) * 1e-3;
      late_ms[i] = (start - due) * 1e-6;
    }
  });
  generator.join();

  std::vector<JobOutcome> interactive;
  std::vector<double> batch_latency, batch_ms, fleet_q_ms, exec_q_ms,
      overhead_ms;
  std::vector<double> host_elems(runtime.num_hosts(), 0);
  int64_t elements = 0, last_done_ns = t0;
  double on_elems = 0, off_elems = 0;
  for (size_t i = 0; i < n; ++i) {
    Status status;
    plumber::fleet::FleetJobStats stats;
    {
      Tracer::Scope span(tracer, "FleetJobHandle::Wait", kFleet,
                         static_cast<int>(i) + 1);
      status = handles[i].Wait();
      stats = handles[i].Stats();
    }
    const bool is_interactive = arrivals[i].interactive;
    const int64_t want = is_interactive ? kInteractiveElems : kBatchJobElems;
    const bool ok = status.ok() && stats.elements == want;
    ++r.attempted;
    if (!ok) {
      ++r.failed;
      std::fprintf(stderr, "perfbench: job %zu: %s, %lld of %lld elements\n",
                   i, status.ToString().c_str(),
                   static_cast<long long>(stats.elements),
                   static_cast<long long>(want));
    }
    const int64_t due = t0 + arrivals[i].due_ns;
    const double latency =
        Seconds(submit_ns[i] - due) + stats.completion_s;
    if (is_interactive) {
      interactive.push_back({ok, latency});
    } else if (ok) {
      batch_latency.push_back(latency);
    }
    if (!ok) continue;
    elements += stats.elements;
    (i >= n / 2 ? on_elems : off_elems) += static_cast<double>(stats.elements);
    last_done_ns = std::max(
        last_done_ns,
        submit_ns[i] + static_cast<int64_t>(stats.completion_s * 1e9));
    // Per-batch time of the latency-critical class only: batch jobs
    // parked to their floor by interactive arrivals stretch by design.
    if (is_interactive) {
      batch_ms.push_back(stats.run_s * 1e3 / (kInteractiveElems / 4));
    }
    fleet_q_ms.push_back(stats.fleet_queue_s * 1e3);
    exec_q_ms.push_back(stats.exec_queue_s * 1e3);
    overhead_ms.push_back(
        (stats.run_s -
         (is_interactive ? kInteractiveServiceS : kBatchServiceS)) * 1e3);
    if (stats.host >= 0 && stats.host < runtime.num_hosts()) {
      host_elems[stats.host] += static_cast<double>(stats.elements);
    }
  }
  const double cpu_s = ProcessCpuSeconds() - cpu0;
  done.store(true);
  poller.join();

  std::vector<double> interactive_s;
  for (const JobOutcome& o : interactive) {
    if (o.ok) interactive_s.push_back(o.latency_s);
  }
  const double gen_late_p99 = NearestRank(late_ms, 99);
  std::printf("  %zu jobs (%zu interactive), generator lateness p99 "
              "%.3f ms, max %.3f ms\n",
              n, interactive.size(), gen_late_p99,
              *std::max_element(late_ms.begin(), late_ms.end()));
  if (gen_late_p99 > kMaxGenLateP99Ms) {
    r.Problem("generator ran late: the open loop did not hold its schedule");
  }
  r.Set("throughput_eps", elements / Seconds(last_done_ns - t0));
  r.Set("batch_p50_ms", NearestRank(batch_ms, 50));
  r.Set("batch_p99_ms", GroupedPercentile(batch_ms, 99));
  r.Set("setup_s", Median(setup_s));
  r.Set("cpu_s_per_melem", elements > 0 ? cpu_s / elements * 1e6 : 0);
  r.Set("interactive_p50_s", NearestRank(interactive_s, 50));
  r.Set("interactive_p95_s", GroupedPercentile(interactive_s, 95));
  r.Set("batch_job_p50_s", Median(batch_latency));
  r.Set("slo_attainment", SloAttainment(interactive, kSloSeconds));

  if (args.trace) {
    double mean_granted = 0;
    for (double g : granted) mean_granted += g;
    if (!granted.empty()) mean_granted /= static_cast<double>(granted.size());
    double hmin = host_elems[0], hmax = host_elems[0], hsum = 0;
    for (double e : host_elems) {
      hmin = std::min(hmin, e);
      hmax = std::max(hmax, e);
      hsum += e;
    }
    const double half_s = args.seconds / 2;
    r.Set("api.submit_us", Median(submit_us));
    r.Set("fleet.queue_ms.p50", NearestRank(fleet_q_ms, 50));
    r.Set("fleet.queue_ms.p95", NearestRank(fleet_q_ms, 95));
    r.Set("runtime.exec_queue_ms.p50", NearestRank(exec_q_ms, 50));
    r.Set("runtime.exec_queue_ms.p95", NearestRank(exec_q_ms, 95));
    r.Set("runtime.run_overhead_ms", Median(overhead_ms));
    r.Set("runtime.granted_cores", mean_granted);
    r.Set("fleet.steal_count",
          static_cast<double>(runtime.steal_count() - steals0));
    r.Set("fleet.transfer_bytes",
          static_cast<double>(runtime.transfer_bytes() - transfer0));
    r.Set("fleet.host_skew_rel",
          hsum > 0 ? (hmax - hmin) / (hsum / host_elems.size()) : 0);
    r.Set("bench.gen_late_ms", gen_late_p99);
    r.Set("bench.trace_overhead_rel",
          off_elems > 0 ? (on_elems / half_s) / (off_elems / half_s) : 0);
  }
  return r;
}

// ------------------------------------------------------------------ main
bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

void PrintSelfTimes(const Tracer& tracer, Result* r) {
  const std::vector<Span> spans = tracer.spans();
  const std::map<std::string, double> self = SelfSecondsByLayer(spans);
  std::map<std::string, int64_t> count;
  for (const Span& s : spans) ++count[s.layer];
  double total = 0;
  for (const auto& [layer, s] : self) total += s;
  std::printf("\n  %-10s %10s %12s %7s\n", "layer", "spans", "self s",
              "share");
  for (const auto& [layer, s] : self) {
    std::printf("  %-10s %10lld %12.4f %6.1f%%\n", layer.c_str(),
                static_cast<long long>(count[layer]), s,
                total > 0 ? 100 * s / total : 0);
    r->Set("selftime." + layer + "_s", s);
  }
}

int Main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--list-metrics") == 0) {
    for (const MetricDef& m : kEndToEnd) {
      std::printf("end_to_end %s %s\n", m.name, m.unit);
    }
    for (const MetricDef& m : kPerLayer) {
      std::printf("per_layer %s %s\n", m.name, m.unit);
    }
    return 0;
  }
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE]\n");
    return 2;
  }
  Tracer tracer(args.trace);
  Result r;
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  try {
    Tracer::Scope root(tracer, args.workload.c_str(), kBench);
    if (args.workload == "tune_resnet18") {
      r = RunTuneResnet18(args, tracer);
    } else if (args.workload == "engine_cheap_udf") {
      r = RunEngineCheapUdf(args, tracer);
    } else if (args.workload == "serve_mixed_slo") {
      r = RunServeMixedSlo(args, tracer);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload %s\n",
                   args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }
  r.Set("peak_rss_mb", PeakRssMb());
  r.Set("ok_frac", r.attempted > 0
                       ? 1.0 - static_cast<double>(r.failed) / r.attempted
                       : 0);
  if (r.attempted < 1 || r.failed > 0) r.Problem("operations failed");

  if (args.trace) {
    PrintSelfTimes(tracer, &r);
    if (!args.trace_out.empty()) {
      if (!tracer.WriteChromeTrace(args.trace_out)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     args.trace_out.c_str());
        return 3;
      }
      std::printf("  spans written to %s\n", args.trace_out.c_str());
    }
  }

  std::string json = "{\"correct\": ";
  json += r.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  bool first = true;
  std::printf("\n");
  auto emit = [&](const MetricDef& m) {
    auto it = r.values.find(m.name);
    const double value = it != r.values.end() ? it->second : 0;
    std::printf("  %-34s %16.6g %s\n", m.name, value, m.unit);
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, "
                  "\"unit\": \"%s\"}", first ? "" : ", ", m.name, value,
                  m.unit);
    json += buf;
    first = false;
  };
  if (args.trace) {
    for (const MetricDef& m : kPerLayer) emit(m);
  } else {
    for (const MetricDef& m : kEndToEnd) emit(m);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return r.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
