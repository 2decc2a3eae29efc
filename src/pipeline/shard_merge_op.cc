// shard_merge: merges N shard sources produced by
// rewriter::ShardSource into one stream.
//
// One WorkerPool worker per input pulls whole engine batches from its
// shard subtree and pushes them into the pool's channel, so N shards
// read concurrently — each against its own modeled shard disk (the
// record readers' device choice, interleave_op.cc) — and their
// aggregate bandwidth is N x one device.
// Merge order across shards is nondeterministic, exactly like parallel
// interleave; the element *multiset* equals the unsharded source's
// because the shards partition the file list.
#include <algorithm>
#include <vector>

#include "src/pipeline/ops.h"
#include "src/pipeline/worker_pool.h"

namespace plumber {
namespace {

class ShardMergeDataset : public DatasetBase {
 public:
  ShardMergeDataset(NodeDef def, std::vector<DatasetPtr> inputs)
      : DatasetBase(std::move(def), std::move(inputs)) {}

  StatusOr<std::unique_ptr<IteratorBase>> MakeIterator(
      PipelineContext* ctx) const override;
};

class ShardMergeIterator : public IteratorBase {
 public:
  ShardMergeIterator(PipelineContext* ctx, IteratorStats* stats,
                     std::vector<std::unique_ptr<IteratorBase>> inputs)
      : IteratorBase(ctx, stats), inputs_(std::move(inputs)),
        pool_(ctx, stats,
              {static_cast<int>(inputs_.size()),
               static_cast<int>(inputs_.size()),
               static_cast<size_t>(
                   std::max(static_cast<int>(inputs_.size()) * 4,
                            2 * std::max(1, ctx->engine_batch_size))),
               ctx->engine_batch_size}) {
    stats_->SetParallelism(static_cast<int>(inputs_.size()));
    // Worker i owns shard i's iterator exclusively, so shard pulls need
    // no lock; only the merge channel is shared. The merged stream ends
    // when every shard has drained.
    pool_.Start([this](int shard, bool* stop) {
      return pool_.Forward(inputs_[shard].get(), stop);
    });
  }

 protected:
  Status GetNextInternal(Element* out, bool* end) override {
    return pool_.Next(out, end);
  }

 private:
  std::vector<std::unique_ptr<IteratorBase>> inputs_;
  // Last member: destroyed first, joining the workers before the shard
  // iterators they pull from go away.
  WorkerPool<Element> pool_;
};

StatusOr<std::unique_ptr<IteratorBase>> ShardMergeDataset::MakeIterator(
    PipelineContext* ctx) const {
  std::vector<std::unique_ptr<IteratorBase>> inputs;
  inputs.reserve(inputs_.size());
  for (const auto& input : inputs_) {
    ASSIGN_OR_RETURN(auto it, input->MakeIterator(ctx));
    inputs.push_back(std::move(it));
  }
  return std::unique_ptr<IteratorBase>(
      new ShardMergeIterator(ctx, StatsFor(ctx), std::move(inputs)));
}

}  // namespace

StatusOr<DatasetPtr> MakeShardMergeDataset(NodeDef def,
                                           std::vector<DatasetPtr> inputs,
                                           PipelineContext* ctx) {
  (void)ctx;
  if (inputs.empty()) {
    return InvalidArgumentError("shard_merge takes at least one input");
  }
  return DatasetPtr(new ShardMergeDataset(std::move(def), std::move(inputs)));
}

}  // namespace plumber
