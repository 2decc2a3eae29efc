// Record readers: tfrecord, remote_read and interleave.
//
// All three read the record files a file_list child names, through one
// per-record step (RecordIteratorBase::NextRecord) and against one
// storage device: the node's shard stamp, else its file_list child's,
// else the filesystem's own device. Every source therefore charges a
// record the same way, which the tracer and cache planner rely on.
//
// tfrecord and remote_read are the sequential interleave with
// cycle_length 1 and block_length 1: one file at a time, in list order.
// remote_read's files live on a remote host, so its dataset owns a
// modeled remote NIC (from the node's remote-NIC attrs) and every
// record is also charged through that NIC and this host's NIC
// (ctx->nic). Element content and order equal a local tfrecord read —
// the network model only adds time and accounting.
//
// Sequential interleave (parallelism == 1) implements true cycle/block
// round-robin over up to cycle_length open files, matching tf.data
// semantics. Parallel interleave assigns whole files to `parallelism`
// reader workers feeding a bounded queue — the read-parallelism knob
// that drives the parallelism->bandwidth curve for throttled storage.
#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "src/pipeline/ops.h"
#include "src/pipeline/worker_pool.h"
#include "src/util/buffer_pool.h"

namespace plumber {
namespace {

class RecordDataset : public DatasetBase {
 public:
  RecordDataset(NodeDef def, std::vector<DatasetPtr> inputs)
      : DatasetBase(std::move(def), std::move(inputs)) {
    if (op() == "remote_read") {
      NicSpec remote;
      remote.name = "remote";
      remote.max_bandwidth = def_.GetDouble(kAttrRemoteNicBandwidth, 0);
      remote.latency_s = def_.GetDouble(kAttrRemoteNicLatency, 0);
      remote_nic_ = std::make_unique<NetworkDevice>(remote);
    }
  }

  StatusOr<std::unique_ptr<IteratorBase>> MakeIterator(
      PipelineContext* ctx) const override;

 private:
  // The device this node's readers charge: its own shard stamp, else
  // its file_list child's, else the filesystem's attached device.
  StorageDevice* SourceDevice(PipelineContext* ctx) const {
    if (ctx->shard_devices != nullptr) {
      for (const NodeDef* def : {&def_, &inputs_[0]->def()}) {
        const int shard = static_cast<int>(def->GetInt(kAttrShardIndex, -1));
        if (shard >= 0) return ctx->shard_devices->DeviceFor(shard);
      }
    }
    return ctx->fs->device();
  }

  // remote_read only: the remote endpoint's NIC, shared by every
  // iterator of this dataset (all readers of one remote source contend
  // for one remote uplink).
  std::unique_ptr<NetworkDevice> remote_nic_;
};

// What the sequential and parallel readers share: the file_list child,
// the device files are opened against, and the per-record step.
class RecordIteratorBase : public IteratorBase {
 protected:
  RecordIteratorBase(PipelineContext* ctx, IteratorStats* stats,
                     std::unique_ptr<IteratorBase> input,
                     StorageDevice* device, NetworkDevice* remote_nic,
                     bool worker_threads)
      : IteratorBase(ctx, stats), input_(std::move(input)), device_(device),
        remote_nic_(remote_nic), worker_threads_(worker_threads) {}

  // Pulls the next filename from the (serialized) child iterator.
  Status NextFilename(std::string* name, bool* end) {
    Element elem;
    RETURN_IF_ERROR(input_->GetNext(&elem, end));
    if (*end) return OkStatus();
    stats_->RecordConsumed();
    name->assign(elem.components[0].begin(), elem.components[0].end());
    return OkStatus();
  }

  StatusOr<std::unique_ptr<RecordReader>> Open(const std::string& name) {
    return ctx_->fs->OpenRecord(name, device_);
  }

  // Reads the next record of `reader` into *payload, or sets *file_end.
  // The buffer is recycled and acquired at *size_hint, the previous
  // record's size: records in a file are near-uniform, so the reader's
  // resize stays within capacity and the per-record allocation
  // disappears in steady state.
  Status NextRecord(RecordReader* reader, size_t* size_hint, Buffer* payload,
                    bool* file_end) {
    *payload = BufferPool::Get()->Acquire(*size_hint);
    {
      // A worker thread runs outside any GetNext scope of this node.
      std::optional<CpuAccountingScope> scope;
      if (worker_threads_ && ctx_->tracing_enabled) scope.emplace(stats_);
      RETURN_IF_ERROR(reader->ReadRecord(payload, file_end));
    }
    if (*file_end) {
      BufferPool::Get()->Release(std::move(*payload));
      return OkStatus();
    }
    *size_hint = payload->size();
    const uint64_t wire_bytes = payload->size() + kRecordFramingBytes;
    stats_->AddBytesRead(wire_bytes);
    if (remote_nic_ != nullptr) {
      // The record crosses the wire once; both endpoints' NICs carry it.
      remote_nic_->Transfer(wire_bytes);
      if (ctx_->nic != nullptr) ctx_->nic->Transfer(wire_bytes);
      stats_->AddNetworkBytes(wire_bytes);
    }
    return OkStatus();
  }

  std::unique_ptr<IteratorBase> input_;

 private:
  StorageDevice* const device_;     // null = unmetered
  NetworkDevice* const remote_nic_;  // null = a local source
  const bool worker_threads_;
};

class SequentialInterleaveIterator : public RecordIteratorBase {
 public:
  SequentialInterleaveIterator(PipelineContext* ctx, IteratorStats* stats,
                               std::unique_ptr<IteratorBase> input,
                               StorageDevice* device,
                               NetworkDevice* remote_nic, int cycle_length,
                               int block_length)
      : RecordIteratorBase(ctx, stats, std::move(input), device, remote_nic,
                           /*worker_threads=*/false),
        cycle_length_(cycle_length < 1 ? 1 : cycle_length),
        block_length_(block_length < 1 ? 1 : block_length) {}

 protected:
  Status GetNextInternal(Element* out, bool* end) override {
    for (;;) {
      // Top up the cycle with open readers.
      while (!files_done_ &&
             static_cast<int>(cycle_.size()) < cycle_length_) {
        std::string name;
        bool files_end = false;
        RETURN_IF_ERROR(NextFilename(&name, &files_end));
        if (files_end) {
          files_done_ = true;
          break;
        }
        ASSIGN_OR_RETURN(auto reader, Open(name));
        cycle_.push_back(Slot{std::move(reader), 0});
      }
      if (cycle_.empty()) {
        *end = true;
        return OkStatus();
      }
      if (cursor_ >= cycle_.size()) cursor_ = 0;
      Slot& slot = cycle_[cursor_];
      Buffer payload;
      bool file_end = false;
      RETURN_IF_ERROR(NextRecord(slot.reader.get(), &last_payload_bytes_,
                                 &payload, &file_end));
      if (file_end) {
        cycle_.erase(cycle_.begin() + static_cast<long>(cursor_));
        continue;
      }
      *out = Element::FromBuffer(std::move(payload), sequence_++);
      *end = false;
      if (++slot.emitted_in_block >= block_length_) {
        slot.emitted_in_block = 0;
        ++cursor_;
      }
      return OkStatus();
    }
  }

 private:
  struct Slot {
    std::unique_ptr<RecordReader> reader;
    int emitted_in_block = 0;
  };

  const int cycle_length_;
  const int block_length_;
  std::vector<Slot> cycle_;
  size_t cursor_ = 0;
  bool files_done_ = false;
  uint64_t sequence_ = 0;
  size_t last_payload_bytes_ = 64;
};

// With engine_batch_size > 1 each reader accumulates a vector of
// records and hands it off in one PushBatch, and the consumer drains
// whole batches per channel synchronization; batch size 1 is the
// classic record-at-a-time handoff.
//
// The reader pool is governed like the parallel map's (see
// WorkerPool). One work step reads a whole file, so a reader parks only
// between files and no records are stranded. File-to-worker assignment
// is already nondeterministic, so a resize history changes element
// order but never the element multiset.
class ParallelInterleaveIterator : public RecordIteratorBase {
 public:
  ParallelInterleaveIterator(PipelineContext* ctx, IteratorStats* stats,
                             std::unique_ptr<IteratorBase> input,
                             StorageDevice* device, int parallelism,
                             int initial_target)
      : RecordIteratorBase(ctx, stats, std::move(input), device,
                           /*remote_nic=*/nullptr, /*worker_threads=*/true),
        // Capacity absorbs at least two engine batches so a requested
        // batch size is never clamped by the channel.
        pool_(ctx, stats,
              {parallelism, initial_target,
               static_cast<size_t>(
                   std::max(std::max(parallelism, initial_target) * 4,
                            2 * std::max(1, ctx->engine_batch_size))),
               ctx->engine_batch_size, ctx->governor != nullptr}) {
    stats_->SetParallelism(initial_target);
    pool_.Start([this](int, bool* stop) { return ReadFile(stop); });
  }

 protected:
  Status GetNextInternal(Element* out, bool* end) override {
    return pool_.Next(out, end);
  }

 private:
  // One work step: claims the next file and reads it to the end.
  Status ReadFile(bool* stop) {
    std::string name;
    {
      std::lock_guard<std::mutex> lock(input_mu_);
      if (files_done_) {
        *stop = true;
        return OkStatus();
      }
      const Status status = NextFilename(&name, stop);
      if (!status.ok() || *stop) files_done_ = true;
      RETURN_IF_ERROR(status);
    }
    if (*stop) return OkStatus();
    ASSIGN_OR_RETURN(auto reader, Open(name));
    const size_t batch_size = pool_.batch_size();
    std::vector<Element> pending;
    pending.reserve(batch_size);
    size_t last_payload_bytes = 64;
    for (;;) {
      Buffer payload;
      bool file_end = false;
      RETURN_IF_ERROR(NextRecord(reader.get(), &last_payload_bytes, &payload,
                                 &file_end));
      if (file_end) break;
      pending.push_back(Element::FromBuffer(
          std::move(payload),
          sequence_.fetch_add(1, std::memory_order_relaxed)));
      if (pending.size() >= batch_size) {
        if (!pool_.PushBatch(std::move(pending))) {
          *stop = true;  // channel closed
          return OkStatus();
        }
        pending.clear();
        pending.reserve(batch_size);
      }
    }
    // Flush the file's tail so a slow next file cannot strand records.
    if (!pending.empty() && !pool_.PushBatch(std::move(pending))) *stop = true;
    return OkStatus();
  }

  std::mutex input_mu_;
  bool files_done_ = false;
  std::atomic<uint64_t> sequence_{0};

  // Last member: destroyed first, joining the readers before the state
  // their steps use goes away.
  WorkerPool<Element> pool_;
};

StatusOr<std::unique_ptr<IteratorBase>> RecordDataset::MakeIterator(
    PipelineContext* ctx) const {
  ASSIGN_OR_RETURN(auto input, inputs_[0]->MakeIterator(ctx));
  IteratorStats* stats = StatsFor(ctx);
  StorageDevice* device = SourceDevice(ctx);
  // tfrecord and remote_read read one file at a time: the sequential
  // interleave with cycle_length 1 and block_length 1.
  const bool interleave = op() == "interleave";
  const int p =
      interleave ? static_cast<int>(def_.GetInt(kAttrParallelism, 1)) : 1;
  if (p <= 1) {
    stats->SetParallelism(1);
    return std::unique_ptr<IteratorBase>(new SequentialInterleaveIterator(
        ctx, stats, std::move(input), device, remote_nic_.get(),
        interleave ? static_cast<int>(def_.GetInt(kAttrCycleLength, 4)) : 1,
        interleave ? static_cast<int>(def_.GetInt(kAttrBlockLength, 1)) : 1));
  }
  return std::unique_ptr<IteratorBase>(new ParallelInterleaveIterator(
      ctx, stats, std::move(input), device, p,
      InitialWorkers(ctx, def_.name, p)));
}

}  // namespace

StatusOr<DatasetPtr> MakeRecordDataset(NodeDef def,
                                       std::vector<DatasetPtr> inputs,
                                       PipelineContext* ctx) {
  if (inputs.size() != 1) {
    return InvalidArgumentError(def.op + " takes one input");
  }
  if (ctx->fs == nullptr) {
    return FailedPreconditionError(def.op + " requires a filesystem");
  }
  return DatasetPtr(new RecordDataset(std::move(def), std::move(inputs)));
}

}  // namespace plumber
