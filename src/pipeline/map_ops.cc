// Map (sequential + parallel) and filter operators.
#include <algorithm>
#include <mutex>
#include <optional>

#include "src/pipeline/ops.h"
#include "src/pipeline/worker_pool.h"
#include "src/util/reorder_ring.h"
#include "src/util/rng.h"

namespace plumber {
namespace {

uint64_t NodeSeed(const PipelineContext* ctx, const NodeDef& def) {
  uint64_t h = ctx->seed;
  for (char c : def.name) h = SplitMix64(h ^ static_cast<uint8_t>(c));
  return h;
}

// ------------------------------------------------------------------ map
class MapDataset : public DatasetBase {
 public:
  MapDataset(NodeDef def, std::vector<DatasetPtr> inputs, const UdfSpec* udf)
      : DatasetBase(std::move(def), std::move(inputs)), udf_(udf) {}

  StatusOr<std::unique_ptr<IteratorBase>> MakeIterator(
      PipelineContext* ctx) const override;

  const UdfSpec* udf() const { return udf_; }
  int parallelism() const {
    return static_cast<int>(def_.GetInt(kAttrParallelism, 1));
  }
  bool deterministic() const { return def_.GetBool(kAttrDeterministic, true); }

 private:
  const UdfSpec* udf_;
};

class SequentialMapIterator : public IteratorBase {
 public:
  SequentialMapIterator(PipelineContext* ctx, IteratorStats* stats,
                        std::unique_ptr<IteratorBase> input,
                        const UdfSpec* udf, uint64_t seed)
      : IteratorBase(ctx, stats), input_(std::move(input)), udf_(udf),
        seed_(seed) {}

 protected:
  Status GetNextInternal(Element* out, bool* end) override {
    Element in;
    RETURN_IF_ERROR(input_->GetNext(&in, end));
    if (*end) return OkStatus();
    stats_->RecordConsumed();
    const uint64_t seed = SplitMix64(seed_ ^ in.sequence);
    *out = ExecuteMapUdf(*udf_, std::move(in), ctx_->cpu_scale, seed,
                         ctx_->work_model);
    return OkStatus();
  }

 private:
  std::unique_ptr<IteratorBase> input_;
  const UdfSpec* udf_;
  const uint64_t seed_;
};

// Parallel map: N workers pull from the (serialized) child, execute the
// UDF, and push to the pool's bounded output channel. Deterministic
// mode restores input order with a reorder buffer keyed by a pull-time
// ticket.
//
// With engine_batch_size > 1 each worker claims a whole vector of
// inputs under one input-lock acquisition, executes the UDF per
// element, and hands the results off in one PushBatch; the consumer
// drains whole batches per channel synchronization. batch size 1
// degenerates to the classic element-at-a-time engine.
//
// The pool is governed (see WorkerPool): order tickets are claimed
// under the input lock however many workers are live, so deterministic
// output is unchanged by any resize history.
class ParallelMapIterator : public IteratorBase {
 public:
  ParallelMapIterator(PipelineContext* ctx, IteratorStats* stats,
                      std::unique_ptr<IteratorBase> input, const UdfSpec* udf,
                      int parallelism, int initial_target, bool deterministic,
                      uint64_t seed)
      : IteratorBase(ctx, stats),
        input_(std::move(input)),
        udf_(udf),
        deterministic_(deterministic),
        seed_(seed),
        // Deep enough to ride out bursty consumers (a shuffle refill or
        // batch assembly drains several items back-to-back) AND to
        // absorb at least two engine batches, so a requested batch size
        // is never clamped down by the channel and a worker can publish
        // a full batch while the consumer still drains the previous
        // one. Sized once for the larger of the configured and initial
        // worker counts; a later resize beyond that still works, just
        // with more channel blocking.
        capacity_(static_cast<size_t>(std::max(
            {8, std::max(parallelism, initial_target) * 4,
             2 * std::max(1, ctx->engine_batch_size)}))),
        pending_(capacity_ * 2),
        pool_(ctx, stats,
              {parallelism, initial_target, capacity_,
               ctx->engine_batch_size, ctx->governor != nullptr}) {
    stats_->SetParallelism(initial_target);
    pool_.Start([this](int, bool* stop) { return Step(stop); });
  }

 protected:
  Status GetNextInternal(Element* out, bool* end) override {
    for (;;) {
      if (deterministic_ && pending_.TakeIfPresent(expected_, out)) {
        ++expected_;
        *end = false;
        return OkStatus();
      }
      // At end of stream every ticket has arrived, so anything still
      // pending sits behind a gap left by an error or a cancellation.
      Ticketed item;
      RETURN_IF_ERROR(pool_.Next(&item, end));
      if (*end) return OkStatus();
      if (!deterministic_) {
        *out = std::move(item.element);
        return OkStatus();
      }
      pending_.Insert(expected_, item.order, std::move(item.element));
    }
  }

 private:
  struct Ticketed {
    uint64_t order = 0;
    Element element;
  };

  // Claims one engine batch and its consecutive order tickets under one
  // input-lock acquisition (so deterministic reordering is unchanged by
  // batching), then runs the UDF on it outside the lock.
  Status Step(bool* stop) {
    const size_t batch_size = pool_.batch_size();
    std::vector<Element> claimed;
    claimed.reserve(batch_size);
    uint64_t order_base = 0;
    {
      std::lock_guard<std::mutex> lock(input_mu_);
      if (input_done_) {
        *stop = true;
        return OkStatus();
      }
      const Status status = input_->GetNextBatch(&claimed, batch_size, stop);
      if (!status.ok() || *stop) input_done_ = true;
      RETURN_IF_ERROR(status);
      order_base = next_order_;
      next_order_ += claimed.size();
      if (!claimed.empty()) stats_->RecordConsumedBatch(claimed.size());
    }
    if (claimed.empty()) return OkStatus();
    std::vector<Ticketed> results;
    results.reserve(claimed.size());
    {
      std::optional<CpuAccountingScope> scope;
      if (ctx_->tracing_enabled) scope.emplace(stats_);
      for (size_t i = 0; i < claimed.size(); ++i) {
        const uint64_t seed = SplitMix64(seed_ ^ claimed[i].sequence);
        results.push_back(Ticketed{
            order_base + i, ExecuteMapUdf(*udf_, std::move(claimed[i]),
                                          ctx_->cpu_scale, seed,
                                          ctx_->work_model)});
      }
    }
    if (!pool_.PushBatch(std::move(results))) *stop = true;
    return OkStatus();
  }

  std::unique_ptr<IteratorBase> input_;
  const UdfSpec* udf_;
  const bool deterministic_;
  const uint64_t seed_;
  const size_t capacity_;

  std::mutex input_mu_;
  bool input_done_ = false;
  uint64_t next_order_ = 0;

  // Consumer-side state (accessed only from GetNext). Deterministic
  // reorder buffer: flat O(1) ring, not a std::map — the lookup runs
  // once per emitted element.
  ReorderRing<Element> pending_;
  uint64_t expected_ = 0;

  // Last member: destroyed first, joining the workers before the state
  // their steps use goes away.
  WorkerPool<Ticketed> pool_;
};

StatusOr<std::unique_ptr<IteratorBase>> MapDataset::MakeIterator(
    PipelineContext* ctx) const {
  ASSIGN_OR_RETURN(auto input, inputs_[0]->MakeIterator(ctx));
  const uint64_t seed = NodeSeed(ctx, def_);
  IteratorStats* stats = StatsFor(ctx);
  stats->SetUdfName(udf_->name);
  const int p = parallelism();
  if (p <= 1) {
    stats->SetParallelism(1);
    return std::unique_ptr<IteratorBase>(new SequentialMapIterator(
        ctx, stats, std::move(input), udf_, seed));
  }
  return std::unique_ptr<IteratorBase>(new ParallelMapIterator(
      ctx, stats, std::move(input), udf_, p, InitialWorkers(ctx, def_.name, p),
      deterministic(), seed));
}

// ---------------------------------------------------------------- filter
class FilterDataset : public DatasetBase {
 public:
  FilterDataset(NodeDef def, std::vector<DatasetPtr> inputs,
                const UdfSpec* udf)
      : DatasetBase(std::move(def), std::move(inputs)), udf_(udf) {}

  StatusOr<std::unique_ptr<IteratorBase>> MakeIterator(
      PipelineContext* ctx) const override;

 private:
  const UdfSpec* udf_;
};

// Sequential filter. With engine_batch_size > 1 a consumer claiming a
// batch (a parallel map worker, batch assembly) drives the overridden
// GetNextBatchInternal below, which claims whole batches from the input
// in turn — one cancellation check and CPU scope per claimed batch on
// both sides, and the predicate runs once per element either way.
// Decisions are deterministic in (seed, element.sequence), so batching
// never changes which elements survive.
class FilterIterator : public IteratorBase {
 public:
  FilterIterator(PipelineContext* ctx, IteratorStats* stats,
                 std::unique_ptr<IteratorBase> input, const UdfSpec* udf,
                 uint64_t seed)
      : IteratorBase(ctx, stats), input_(std::move(input)), udf_(udf),
        seed_(seed) {}

 protected:
  Status GetNextInternal(Element* out, bool* end) override {
    for (;;) {
      Element in;
      RETURN_IF_ERROR(input_->GetNext(&in, end));
      if (*end) return OkStatus();
      stats_->RecordConsumed();
      if (ExecuteFilterUdf(*udf_, in, ctx_->cpu_scale, seed_,
                           ctx_->work_model)) {
        *out = std::move(in);
        return OkStatus();
      }
    }
  }

  Status GetNextBatchInternal(std::vector<Element>* out, size_t max_elements,
                              bool* end) override {
    size_t produced = 0;
    while (produced < max_elements) {
      // Claim only as many inputs as outputs still owed: survivors never
      // exceed the claim, so no kept element has to be buffered across
      // calls (GetNext and GetNextBatch stay freely interleavable).
      claimed_.clear();
      bool input_end = false;
      RETURN_IF_ERROR(input_->GetNextBatch(
          &claimed_, max_elements - produced, &input_end));
      if (!claimed_.empty()) stats_->RecordConsumedBatch(claimed_.size());
      for (Element& element : claimed_) {
        if (ExecuteFilterUdf(*udf_, element, ctx_->cpu_scale, seed_,
                             ctx_->work_model)) {
          out->push_back(std::move(element));
          ++produced;
        }
      }
      if (input_end) {
        *end = true;
        return OkStatus();
      }
    }
    return OkStatus();
  }

 private:
  std::unique_ptr<IteratorBase> input_;
  const UdfSpec* udf_;
  const uint64_t seed_;
  std::vector<Element> claimed_;  // reused claim buffer
};

StatusOr<std::unique_ptr<IteratorBase>> FilterDataset::MakeIterator(
    PipelineContext* ctx) const {
  ASSIGN_OR_RETURN(auto input, inputs_[0]->MakeIterator(ctx));
  IteratorStats* stats = StatsFor(ctx);
  stats->SetUdfName(udf_->name);
  return std::unique_ptr<IteratorBase>(new FilterIterator(
      ctx, stats, std::move(input), udf_, NodeSeed(ctx, def_)));
}

const UdfSpec* LookupUdf(const NodeDef& def, PipelineContext* ctx,
                         Status* status) {
  if (ctx->udfs == nullptr) {
    *status = FailedPreconditionError("no udf registry");
    return nullptr;
  }
  const std::string udf_name = def.GetString(kAttrUdf);
  const UdfSpec* spec = ctx->udfs->Find(udf_name);
  if (spec == nullptr) {
    *status = NotFoundError("no such udf: " + udf_name);
  }
  return spec;
}

}  // namespace

StatusOr<DatasetPtr> MakeMapDataset(NodeDef def,
                                    std::vector<DatasetPtr> inputs,
                                    PipelineContext* ctx) {
  if (inputs.size() != 1) return InvalidArgumentError("map takes one input");
  Status status;
  const UdfSpec* udf = LookupUdf(def, ctx, &status);
  if (udf == nullptr) return status;
  return DatasetPtr(new MapDataset(std::move(def), std::move(inputs), udf));
}

StatusOr<DatasetPtr> MakeFilterDataset(NodeDef def,
                                       std::vector<DatasetPtr> inputs,
                                       PipelineContext* ctx) {
  if (inputs.size() != 1) {
    return InvalidArgumentError("filter takes one input");
  }
  Status status;
  const UdfSpec* udf = LookupUdf(def, ctx, &status);
  if (udf == nullptr) return status;
  return DatasetPtr(new FilterDataset(std::move(def), std::move(inputs), udf));
}

}  // namespace plumber
