// Resource planners: CPU/disk LP, cache placement, prefetch injection
// (paper §4.3 "Allocating Hardware Resources" and §4.1 "Optimizer").
#pragma once

#include <map>
#include <string>
#include <vector>

#include "src/core/model.h"
#include "src/io/piecewise_linear.h"

namespace plumber {

// ------------------------------------------------------------- CPU/disk
struct LpPlanOptions {
  // Aggregate read bandwidth available to the pipeline, bytes/sec;
  // 0 disables the disk constraint.
  double disk_bandwidth = 0;
  // Aggregate NIC bandwidth available to the pipeline, bytes/sec;
  // 0 disables the network constraint. Sessions default it from
  // MachineSpec::nic when a real NIC is attached.
  double network_bandwidth = 0;
  // Optional empirical parallelism -> bandwidth curve for the source
  // (fit by the I/O profiler); used to pick minimal read parallelism.
  PiecewiseLinear io_curve;
};

struct LpPlan {
  // Predicted upper bound on pipeline rate, minibatches/sec.
  double predicted_rate = 0;
  double cpu_bound_rate = 0;
  // Disk-imposed bound; <0 means unconstrained.
  double disk_bound_rate = -1;
  bool disk_limited = false;
  // Network-imposed bound (NIC bandwidth / wire bytes per minibatch);
  // <0 means unconstrained. network_limited marks plans whose rate the
  // NIC caps below both the CPU and the disk bound — the bottleneck
  // class sharding cannot fix (all shards share the wire).
  double network_bound_rate = -1;
  bool network_limited = false;
  // Fractional cores per stage (theta) and integer knob suggestions.
  std::map<std::string, double> theta;
  std::map<std::string, int> parallelism;
  std::string bottleneck;
  bool core_limited = false;
  double cores_used = 0;
  // Minimal source read parallelism that sustains predicted_rate, from
  // the piecewise-linear curve (1 if no curve given).
  int suggested_io_parallelism = 1;
};

LpPlan PlanAllocation(const PipelineModel& model,
                      const LpPlanOptions& options = {});

// ---------------------------------------------------------------- cache
// Paper §4.1 "Extensions": a disk cache reuses all caching logic up to
// the cache decision itself, which dispatches to in-memory caching
// preferably and to disk caching if space and disk bandwidth allow it.
enum class CacheTier { kNone, kMemory, kDisk };

const char* CacheTierName(CacheTier tier);

struct CachePlanOptions {
  uint64_t memory_bytes = 0;
  // Shrinks both tier budgets to leave headroom (1.0 = use it all).
  double safety_factor = 1.0;
  // Disk tier: free capacity and sustained read bandwidth (bytes/sec)
  // of the scratch device. 0 (the default) means there is no disk tier.
  uint64_t scratch_bytes = 0;
  double scratch_read_bandwidth = 0;
};

struct CacheCandidate {
  std::string node;
  double materialized_bytes = 0;
  bool fits = false;  // fits some tier
};

struct CacheDecision {
  bool feasible = false;
  CacheTier tier = CacheTier::kNone;
  std::string node;  // insert cache after this node
  double materialized_bytes = 0;
  // For disk-tier decisions: the rate at which the scratch device can
  // serve the materialization (minibatches/sec); 0 otherwise.
  double disk_serve_rate = 0;
  std::vector<CacheCandidate> candidates;  // root-first, for reporting
};

// Greedy-optimal for linear pipelines (§4.3 "Memory"): walks the
// cacheable nodes with a traced materialized size root-first and picks
// the first that fits a tier, memory preferred. A disk placement is
// only taken when the scratch device can serve it at least as fast as
// the pipeline's uncached LP rate (solved with `lp_options`, and only
// when a scratch tier is configured) — otherwise the "cache" would
// become the bottleneck.
CacheDecision PlanCache(const PipelineModel& model,
                        const CachePlanOptions& options,
                        const LpPlanOptions& lp_options = {});

// ------------------------------------------------------------- prefetch
struct PrefetchDecision {
  bool inject_root = false;
  int root_buffer = 2;
  double pipeline_idleness = 0;  // 1 - used_cores / total_cores
};

// Injects prefetching proportional to pipeline idleness (§4.1).
PrefetchDecision PlanPrefetch(const PipelineModel& model);

}  // namespace plumber
