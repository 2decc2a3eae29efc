// WorkerPool<T>: the one worker-thread runtime behind every parallel
// iterator (parallel map, parallel interleave, shard_merge, prefetch,
// map_and_batch).
//
// An op supplies only its work step — claim input, emit output runs
// with Push/PushBatch — and the pool owns everything else:
//
//   * The edge channel. An edge gets the lock-free SpscRing iff its
//     topology proves exactly one producer and one consumer for its
//     whole lifetime (one worker and not governed); every other edge is
//     a BoundedQueue (MPMC). A governed pool stays MPMC even at one
//     worker: the governor can raise the count mid-stream, and swapping
//     the channel under live producers could not preserve element
//     identity or deterministic order across resize histories.
//   * Spawning and joining workers, and live retargeting. A governed
//     pool registers a resize listener with the ParallelismGovernor;
//     Resize parks workers whose index is at or above the target (they
//     sleep between steps, off the op's input lock) or spawns new ones
//     up to it.
//   * End of stream. The last worker to exit closes the channel, so
//     the consumer drains what is queued and then sees exhaustion: it
//     never waits on a channel with no live producer.
//   * Errors. The first error a step returns is recorded once; the pool
//     stops claiming and closes the channel. After the queued items the
//     consumer's Next reports that error, on that call and every later
//     one, with no further item.
//
// Channel items carry no Status and no end flag: the channel's own
// close is the end of stream, and the error lives in the pool.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/pipeline/dataset.h"
#include "src/util/bounded_queue.h"
#include "src/util/spsc_ring.h"

namespace plumber {

// The live worker count a governed op starts at: a published governor
// target (a multi-tenant grant) bounds it from the start, while the
// graph attr stays the configured demand a later resize can grow back
// to.
inline int InitialWorkers(const PipelineContext* ctx, const std::string& node,
                          int configured) {
  if (ctx->governor == nullptr) return configured;
  const int target = ctx->governor->Target(node);
  return target > 0 ? target : configured;
}

template <typename T>
class WorkerPool {
 public:
  struct Config {
    // Graph-configured worker count: the governor's fallback when a
    // target is cleared.
    int configured = 1;
    // Live worker count at Start.
    int initial = 1;
    // Requested channel capacity (an SPSC ring rounds it up to a power
    // of two).
    size_t capacity = 1;
    // Requested consumer batch; clamped to the channel's capacity and
    // to at least one item.
    int batch = 1;
    // Registers with ctx->governor (which must then be set) so the pool
    // is resized live.
    bool governed = false;
    // Records the channel's empty-pop fraction after every consumer
    // refill (the prefetch planner's idleness signal).
    bool report_queue_empty = false;
  };

  // One unit of work for worker `index`: claims input and emits output
  // through Push/PushBatch. Sets *stop when this worker should exit —
  // its input is exhausted, or a push failed because the channel
  // closed. A non-OK return is the pool's error.
  using Step = std::function<Status(int index, bool* stop)>;

  WorkerPool(PipelineContext* ctx, IteratorStats* stats, const Config& config)
      : ctx_(ctx), stats_(stats), config_(config),
        channel_(MakeChannel(config)),
        batch_size_(std::min(
            static_cast<size_t>(std::max(1, config.batch)),
            channel_->capacity())) {}

  ~WorkerPool() {
    // Unregister first: after this returns no Resize can run, so the
    // worker vector is stable for the joins below.
    if (governor_id_ != 0) ctx_->governor->Unregister(governor_id_);
    stop_.store(true, std::memory_order_relaxed);
    SignalDone();
    channel_->Cancel();
    for (auto& w : workers_) w.join();
  }

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  // Spawns the initial workers running `step`. Called once, after
  // everything the step touches is constructed.
  void Start(Step step) {
    step_ = std::move(step);
    {
      std::lock_guard<std::mutex> lock(park_mu_);
      target_.store(config_.initial, std::memory_order_relaxed);
      SpawnLocked(config_.initial);
    }
    if (config_.governed) {
      governor_id_ = ctx_->governor->Register(
          stats_->name(), config_.configured, [this](int t) { Resize(t); });
    }
  }

  // Clamped consumer batch; steps use it as their claim size.
  size_t batch_size() const { return batch_size_; }

  // Producer side (from a step). False once the channel is closed.
  bool Push(T item) { return channel_->Push(std::move(item)); }
  bool PushBatch(std::vector<T> items) {
    return channel_->PushBatch(std::move(items));
  }

  // The whole work step of a pool that only forwards an input
  // (prefetch's fill thread, one shard_merge worker): claims one batch
  // from `input` and pushes it on. T must be Element.
  Status Forward(IteratorBase* input, bool* stop) {
    std::vector<T> claimed;
    claimed.reserve(batch_size_);
    RETURN_IF_ERROR(input->GetNextBatch(&claimed, batch_size_, stop));
    if (claimed.empty()) return OkStatus();
    stats_->RecordConsumedBatch(claimed.size());
    if (!channel_->PushBatch(std::move(claimed))) *stop = true;
    return OkStatus();
  }

  // Consumer side (the GetNext thread only). Serves the next item, or
  // sets *end and returns the first worker error (OK for a clean end)
  // once the channel is closed and drained — on that call and every
  // later one.
  Status Next(T* out, bool* end) {
    if (pos_ >= local_.size()) {
      local_.clear();
      pos_ = 0;
      const bool got = channel_->PopBatch(batch_size_, &local_) != 0;
      if (config_.report_queue_empty) {
        stats_->RecordQueueEmptyFraction(channel_->EmptyPopFraction());
      }
      if (!got) {
        *end = true;
        std::lock_guard<std::mutex> lock(error_mu_);
        return error_;
      }
    }
    *out = std::move(local_[pos_++]);
    *end = false;
    return OkStatus();
  }

 private:
  static std::unique_ptr<Channel<T>> MakeChannel(const Config& config) {
    const int producers = std::max(config.configured, config.initial);
    if (producers == 1 && !config.governed) {
      return std::make_unique<SpscRing<T>>(config.capacity);
    }
    return std::make_unique<BoundedQueue<T>>(config.capacity);
  }

  // Grows or shrinks the live worker target. Called from the governor's
  // SetTarget (under the governor lock); never runs concurrently with
  // the destructor, which unregisters first.
  void Resize(int target) {
    target = std::max(1, target);
    {
      std::lock_guard<std::mutex> lock(park_mu_);
      target_.store(target, std::memory_order_relaxed);
      // No new workers once the pool is finishing: they would only
      // exit again.
      if (!done_) SpawnLocked(target);
    }
    park_cv_.notify_all();
    stats_->SetParallelism(target);
  }

  void SpawnLocked(int target) {
    while (static_cast<int>(workers_.size()) < target) {
      const int index = static_cast<int>(workers_.size());
      active_workers_.fetch_add(1);
      workers_.emplace_back([this, index] { WorkerLoop(index); });
    }
  }

  // Marks the pool finishing and wakes parked workers so they exit.
  void SignalDone() {
    {
      std::lock_guard<std::mutex> lock(park_mu_);
      done_ = true;
    }
    park_cv_.notify_all();
  }

  // Blocks while this worker's slot is above the live target. Returns
  // false when the worker should exit instead of stepping. Cancellation
  // has no wakeup channel into the park, so re-check on a short tick.
  bool ParkUntilActive(int index) {
    std::unique_lock<std::mutex> lock(park_mu_);
    for (;;) {
      if (done_ || ctx_->is_cancelled()) return false;
      if (index < target_.load(std::memory_order_relaxed)) return true;
      park_cv_.wait_for(lock, std::chrono::milliseconds(50));
    }
  }

  // Records the first error, stops every worker from claiming more, and
  // closes the channel so the consumer reaches the error after what is
  // already queued.
  void Fail(Status status) {
    {
      std::lock_guard<std::mutex> lock(error_mu_);
      if (error_.ok()) error_ = std::move(status);
    }
    stop_.store(true, std::memory_order_relaxed);
    channel_->Cancel();
  }

  void WorkerLoop(int index) {
    for (;;) {
      if (ctx_->is_cancelled() || stop_.load(std::memory_order_relaxed)) {
        break;
      }
      if (index >= target_.load(std::memory_order_relaxed) &&
          !ParkUntilActive(index)) {
        break;
      }
      bool stop = false;
      Status status = step_(index, &stop);
      if (!status.ok()) {
        Fail(std::move(status));
        break;
      }
      if (stop) break;
    }
    // A worker of a shared input leaves only when the pool is finishing
    // (input exhausted, error, cancellation or destruction), so parked
    // peers exit too and no more are spawned. A shard_merge worker
    // leaves when its own shard drains, but that pool is not governed:
    // it has no parked peers and no resizes. The last one out closes
    // the channel.
    SignalDone();
    if (active_workers_.fetch_sub(1) == 1) channel_->Cancel();
  }

  PipelineContext* const ctx_;
  IteratorStats* const stats_;
  const Config config_;
  Step step_;

  std::unique_ptr<Channel<T>> channel_;
  const size_t batch_size_;

  std::atomic<int> active_workers_{0};
  std::atomic<bool> stop_{false};
  // Live worker control: workers_ (last member) grows under park_mu_
  // (Resize), never shrinks until destruction; workers indexed >=
  // target_ park.
  std::mutex park_mu_;
  std::condition_variable park_cv_;
  std::atomic<int> target_{0};
  bool done_ = false;  // guarded by park_mu_
  uint64_t governor_id_ = 0;

  std::mutex error_mu_;
  Status error_;  // guarded by error_mu_

  // Consumer-side batch buffer (accessed only from Next).
  std::vector<T> local_;
  size_t pos_ = 0;

  std::vector<std::thread> workers_;
};

}  // namespace plumber
