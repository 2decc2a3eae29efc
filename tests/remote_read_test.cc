// remote_read op tests: element-for-element identity with a local
// tfrecord read at every engine batch size, byte-exact NIC accounting
// (wire bytes == device counters == per-node network_bytes stats), and
// the Session::AttachNic wiring (runs and optimizer traces).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/api/session.h"
#include "src/io/sim_filesystem.h"
#include "src/net/network_device.h"
#include "src/pipeline/ops.h"
#include "tests/test_util.h"

namespace plumber {
namespace {

using testing_util::Drain;
using testing_util::ExpectIdenticalOutput;
using testing_util::PipelineTestEnv;

constexpr int kNumFiles = 3;
constexpr int kRecordsPerFile = 10;
constexpr uint64_t kRecordBytes = 64;

GraphDef LocalGraph() {
  GraphBuilder b;
  return std::move(b.Build(b.TfRecord("rec", b.FileList("files", "data/"))))
      .value();
}

GraphDef RemoteGraph(double remote_bandwidth = 0, double remote_latency = 0) {
  GraphBuilder b;
  return std::move(b.Build(b.RemoteRead("rec", b.FileList("files", "data/"),
                                        remote_bandwidth, remote_latency)))
      .value();
}

TEST(RemoteReadTest, IdenticalToLocalReadAtEveryEngineBatchSize) {
  for (int engine_batch : {0, 1, 2, 8}) {
    PipelineTestEnv env(kNumFiles, kRecordsPerFile, kRecordBytes);
    PipelineOptions opts = env.Options();
    opts.engine_batch_size = engine_batch;
    auto local = Pipeline::Create(LocalGraph(), opts);
    ASSERT_TRUE(local.ok()) << local.status();
    auto remote = Pipeline::Create(RemoteGraph(), opts);
    ASSERT_TRUE(remote.ok()) << remote.status();
    const auto local_elems = Drain(**local);
    const auto remote_elems = Drain(**remote);
    ASSERT_EQ(local_elems.size(),
              static_cast<size_t>(kNumFiles * kRecordsPerFile))
        << "engine_batch_size=" << engine_batch;
    ExpectIdenticalOutput(local_elems, remote_elems);
  }
}

TEST(RemoteReadTest, NicAccountingIsByteExact) {
  PipelineTestEnv env(kNumFiles, kRecordsPerFile, kRecordBytes);
  NetworkDevice local_nic(NicSpec::Unlimited());
  PipelineOptions opts = env.Options();
  opts.nic = &local_nic;
  auto pipeline = Pipeline::Create(RemoteGraph(), opts);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status();
  const auto elems = Drain(**pipeline);
  const uint64_t records = static_cast<uint64_t>(elems.size());
  ASSERT_EQ(records, static_cast<uint64_t>(kNumFiles * kRecordsPerFile));
  // Every record crosses the wire once, framing included; the local
  // NIC's counters must equal the sum of transfer sizes exactly.
  const uint64_t wire_bytes = records * (kRecordBytes + kRecordFramingBytes);
  EXPECT_EQ(local_nic.total_bytes(), wire_bytes);
  EXPECT_EQ(local_nic.total_transfers(), records);
  // The per-node stat agrees with the device.
  uint64_t stat_network_bytes = 0;
  for (const auto& s : (*pipeline)->stats().Snapshot()) {
    stat_network_bytes += s.network_bytes;
  }
  EXPECT_EQ(stat_network_bytes, wire_bytes);
}

TEST(RemoteReadTest, LocalReadReportsNoNetworkBytes) {
  PipelineTestEnv env(kNumFiles, kRecordsPerFile, kRecordBytes);
  NetworkDevice local_nic(NicSpec::Unlimited());
  PipelineOptions opts = env.Options();
  opts.nic = &local_nic;
  auto pipeline = Pipeline::Create(LocalGraph(), opts);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status();
  (void)Drain(**pipeline);
  EXPECT_EQ(local_nic.total_bytes(), 0u);
  for (const auto& s : (*pipeline)->stats().Snapshot()) {
    EXPECT_EQ(s.network_bytes, 0u);
  }
}

TEST(RemoteReadTest, RemoteBandwidthThrottlesWithoutChangingElements) {
  // A tiny remote NIC budget slows the read but must not change what
  // arrives: identity holds under throttling too.
  PipelineTestEnv env(kNumFiles, kRecordsPerFile, kRecordBytes);
  auto fast = Pipeline::Create(RemoteGraph(), env.Options());
  ASSERT_TRUE(fast.ok()) << fast.status();
  auto slow = Pipeline::Create(RemoteGraph(/*remote_bandwidth=*/256e3),
                               env.Options());
  ASSERT_TRUE(slow.ok()) << slow.status();
  ExpectIdenticalOutput(Drain(**fast), Drain(**slow));
}

TEST(RemoteReadTest, SessionAttachNicMetersAcrossRuns) {
  Session session;
  ASSERT_TRUE(session
                  .CreateRecordFiles("data/f", kNumFiles, kRecordsPerFile,
                                     kRecordBytes)
                  .ok());
  session.AttachNic(NicSpec::Unlimited());
  ASSERT_NE(session.nic(), nullptr);
  EXPECT_DOUBLE_EQ(session.machine().nic.max_bandwidth, 0);

  Flow flow = session.FromGraph(RemoteGraph());
  RunOptions run;
  auto report = flow.Run(run);
  ASSERT_TRUE(report.ok()) << report.status();
  const uint64_t per_run = static_cast<uint64_t>(kNumFiles) *
                           kRecordsPerFile *
                           (kRecordBytes + kRecordFramingBytes);
  EXPECT_EQ(session.nic()->total_bytes(), per_run);
  // A second run accumulates on the same session device, the way a
  // host NIC counter would.
  ASSERT_TRUE(flow.Run(run).ok());
  EXPECT_EQ(session.nic()->total_bytes(), 2 * per_run);
}

TEST(RemoteReadTest, SessionNicMetersOptimizerTraces) {
  // The optimizer's traces run on the session's environment, NIC
  // included, so tracing a remote read charges the session device the
  // same way Flow::Run does.
  Session session;
  ASSERT_TRUE(session
                  .CreateRecordFiles("data/f", kNumFiles, kRecordsPerFile,
                                     kRecordBytes)
                  .ok());
  session.AttachNic(NicSpec::Unlimited());
  OptimizeOptions options;
  options.trace_seconds = 0.05;
  auto optimized =
      session.FromGraph(RemoteGraph()).OptimizeWith("parallelism", options);
  ASSERT_TRUE(optimized.ok()) << optimized.status();
  EXPECT_GT(session.nic()->total_bytes(), 0u);
}


// ------------------------------------------------- record reader identity
// tfrecord, a one-file sequential interleave and remote_read all read
// one record file at a time in file-list order. Over the same file list
// they must yield the same element bytes and sequence numbers and
// charge the same bytes to the node, the storage device and the
// filesystem read log, at every engine batch size and whether or not
// the file_list carries a shard stamp.

struct ReaderRun {
  std::vector<Element> elements;
  IteratorStatsSnapshot reader;
  uint64_t device_bytes = 0;
  uint64_t device_reads = 0;
  uint64_t primary_bytes = 0;
  std::map<std::string, FileReadEntry> read_log;
};

constexpr int kIdentityFiles = 4;

ReaderRun RunReader(const std::string& op, int engine_batch, bool stamped) {
  PipelineTestEnv env(kIdentityFiles, kRecordsPerFile, kRecordBytes);
  StorageDevice primary(DeviceSpec::Unlimited());
  env.fs.set_device(&primary);
  GraphBuilder b;
  const std::string files = b.FileList("files", "data/");
  std::string reader;
  if (op == "tfrecord") {
    reader = b.TfRecord("rec", files);
  } else if (op == "interleave") {
    reader = b.Interleave("rec", files, /*cycle_length=*/1,
                          /*parallelism=*/1);
  } else {
    reader = b.RemoteRead("rec", files);
  }
  GraphDef graph = std::move(b.Build(reader)).value();
  if (stamped) {
    // Shard 1 of 2 keeps every other file and reads from its own disk.
    NodeDef* list = graph.MutableNode("files");
    list->attrs[kAttrShardIndex] = AttrValue(1);
    list->attrs[kAttrShardCount] = AttrValue(2);
  }
  PipelineOptions options = env.Options();
  options.engine_batch_size = engine_batch;
  auto pipeline = std::move(Pipeline::Create(std::move(graph), options)).value();
  auto iterator = std::move(pipeline->MakeIterator()).value();
  ReaderRun run;
  bool end = false;
  while (!end) {
    const Status status = iterator->GetNextBatch(
        &run.elements, static_cast<size_t>(engine_batch), &end);
    EXPECT_TRUE(status.ok()) << status;
    if (!status.ok()) break;
  }
  for (const auto& snapshot : pipeline->stats().Snapshot()) {
    if (snapshot.name == "rec") run.reader = snapshot;
  }
  StorageDevice* device =
      stamped ? pipeline->context()->shard_devices->DeviceFor(1) : &primary;
  run.device_bytes = device->total_bytes_read();
  run.device_reads = device->total_reads();
  run.primary_bytes = primary.total_bytes_read();
  run.read_log = env.fs.SnapshotReadLog();
  return run;
}

class RecordReaderIdentityTest
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(RecordReaderIdentityTest, SameElementsAndCharges) {
  const auto [engine_batch, stamped] = GetParam();
  const ReaderRun tfrecord = RunReader("tfrecord", engine_batch, stamped);
  const size_t files = stamped ? kIdentityFiles / 2 : kIdentityFiles;
  ASSERT_EQ(tfrecord.elements.size(), files * kRecordsPerFile);
  EXPECT_EQ(tfrecord.reader.bytes_read,
            tfrecord.elements.size() * (kRecordBytes + kRecordFramingBytes));
  EXPECT_EQ(tfrecord.device_bytes, tfrecord.reader.bytes_read);
  EXPECT_EQ(tfrecord.read_log.size(), files);
  if (stamped) EXPECT_EQ(tfrecord.primary_bytes, 0u);

  for (const std::string op : {"interleave", "remote_read"}) {
    SCOPED_TRACE(op);
    const ReaderRun other = RunReader(op, engine_batch, stamped);
    ExpectIdenticalOutput(tfrecord.elements, other.elements);
    ASSERT_EQ(other.elements.size(), tfrecord.elements.size());
    for (size_t i = 0; i < other.elements.size(); ++i) {
      EXPECT_EQ(other.elements[i].sequence, tfrecord.elements[i].sequence)
          << "elem " << i;
    }
    EXPECT_EQ(other.reader.bytes_read, tfrecord.reader.bytes_read);
    EXPECT_EQ(other.reader.elements_produced,
              tfrecord.reader.elements_produced);
    EXPECT_EQ(other.reader.elements_consumed,
              tfrecord.reader.elements_consumed);
    EXPECT_EQ(other.device_bytes, tfrecord.device_bytes);
    EXPECT_EQ(other.device_reads, tfrecord.device_reads);
    EXPECT_EQ(other.primary_bytes, tfrecord.primary_bytes);
    ASSERT_EQ(other.read_log.size(), tfrecord.read_log.size());
    for (const auto& [name, entry] : tfrecord.read_log) {
      const auto it = other.read_log.find(name);
      ASSERT_NE(it, other.read_log.end()) << name;
      EXPECT_EQ(it->second.bytes_read, entry.bytes_read) << name;
      EXPECT_EQ(it->second.file_size, entry.file_size) << name;
      EXPECT_EQ(it->second.fully_read, entry.fully_read) << name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    EngineBatchAndShardStamp, RecordReaderIdentityTest,
    ::testing::Combine(::testing::Values(1, 16, 64), ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<int, bool>>& info) {
      return "batch" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_stamped" : "");
    });

}  // namespace
}  // namespace plumber
