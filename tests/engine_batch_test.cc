// Regression tests for the batched execution engine: engine_batch_size
// must change throughput, never results. batch_size=1 is the classic
// element-at-a-time engine; every pipeline here is checked
// element-for-element across batch sizes (and against the sequential
// reference where one exists).
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "src/api/session.h"
#include "src/core/rewriter.h"
#include "tests/test_util.h"

namespace plumber {
namespace {

using testing_util::Drain;
using testing_util::ExpectIdenticalOutput;
using testing_util::PipelineTestEnv;

std::vector<Element> RunChain(PipelineTestEnv& env, const GraphDef& graph,
                              int engine_batch_size) {
  PipelineOptions options = env.Options();
  options.engine_batch_size = engine_batch_size;
  auto pipeline = std::move(Pipeline::Create(graph, options)).value();
  return Drain(*pipeline);
}

GraphDef DeterministicMapChain(int parallelism) {
  GraphBuilder b;
  auto n = b.Interleave("il", b.FileList("files", "data/"), 2, 1);
  n = b.Map("m", n, "double_size", parallelism, /*deterministic=*/true);
  n = b.Batch("bt", n, 4, /*drop_remainder=*/false);
  return std::move(b.Build(n)).value();
}

TEST(EngineBatchTest, BatchSizeOneMatchesSequentialReference) {
  // The pre-change path is parallelism with element-at-a-time claims;
  // its contract is "deterministic parallel map == sequential map".
  // batch_size=1 must preserve it exactly.
  PipelineTestEnv env(4, 25, 48);
  const auto sequential = RunChain(env, DeterministicMapChain(1), 1);
  const auto parallel = RunChain(env, DeterministicMapChain(4), 1);
  ASSERT_FALSE(sequential.empty());
  ExpectIdenticalOutput(sequential, parallel);
}

TEST(EngineBatchTest, BatchedParallelMapIdenticalToBatchSizeOne) {
  PipelineTestEnv env(4, 25, 48);
  const auto reference = RunChain(env, DeterministicMapChain(4), 1);
  ASSERT_FALSE(reference.empty());
  for (int batch : {2, 8, 64}) {
    ExpectIdenticalOutput(reference, RunChain(env, DeterministicMapChain(4),
                                              batch));
  }
}

TEST(EngineBatchTest, BatchedPrefetchAndInterleaveIdentical) {
  PipelineTestEnv env(4, 25, 48);
  GraphBuilder b;
  auto n = b.Interleave("il", b.FileList("files", "data/"), 4,
                        /*parallelism=*/3);
  n = b.Map("m", n, "double_size", 2, /*deterministic=*/true);
  n = b.Prefetch("pf", n, 8);
  const GraphDef graph = std::move(b.Build(n)).value();
  // Parallel interleave emits in nondeterministic order; compare the
  // order-insensitive fingerprint plus totals.
  const auto reference = RunChain(env, graph, 1);
  ASSERT_EQ(reference.size(), 100u);
  for (int batch : {4, 32}) {
    const auto batched = RunChain(env, graph, batch);
    EXPECT_EQ(testing_util::SizeFingerprint(reference),
              testing_util::SizeFingerprint(batched));
  }
}

TEST(EngineBatchTest, PrefetchSpscEdgeIdenticalAcrossBatchSizes) {
  // Prefetch edges always ride the lock-free SPSC ring (the fill thread
  // and the consumer are structurally 1:1). With a deterministic chain
  // upstream, output must stay byte-identical to the batch_size=1
  // reference across engine batch sizes — the ring's FIFO identity
  // observed end to end, not just at the channel level.
  PipelineTestEnv env(4, 25, 48);
  GraphBuilder b;
  auto n = b.Interleave("il", b.FileList("files", "data/"), 2, 1);
  n = b.Map("m", n, "double_size", 4, /*deterministic=*/true);
  n = b.Prefetch("pf", n, 4);
  n = b.Batch("bt", n, 4, /*drop_remainder=*/false);
  const GraphDef graph = std::move(b.Build(n)).value();
  const auto reference = RunChain(env, graph, 1);
  ASSERT_FALSE(reference.empty());
  for (int batch : {2, 8, 64}) {
    ExpectIdenticalOutput(reference, RunChain(env, graph, batch));
  }
}

TEST(EngineBatchTest, MapAndBatchSingleWorkerSpscIdentical) {
  // parallelism=1 map_and_batch is a genuine one-producer pool, so its
  // edge is an SpscRing; a single worker claims inputs in order, so the
  // output is fully deterministic and must be byte-identical across
  // engine batch sizes.
  PipelineTestEnv env(2, 20, 32);
  GraphBuilder b;
  auto n = b.Interleave("il", b.FileList("files", "data/"), 2, 1);
  n = b.MapAndBatch("fused", n, "double_size", 5, /*parallelism=*/1);
  const GraphDef graph = std::move(b.Build(n)).value();
  const auto reference = RunChain(env, graph, 1);
  ASSERT_EQ(reference.size(), 8u);
  for (int batch : {4, 32}) {
    ExpectIdenticalOutput(reference, RunChain(env, graph, batch));
  }
}

TEST(EngineBatchTest, GovernorRetargetUnderSpscEdgesIdentical) {
  // A governor-retargetable map keeps its MPMC channel, but the
  // prefetch downstream rides the SPSC ring. Element identity and
  // deterministic ordering must hold under any resize history while
  // both channel kinds are live in the same chain.
  PipelineTestEnv env(4, 25, 48);
  GraphBuilder b;
  auto n = b.Interleave("il", b.FileList("files", "data/"), 2, 1);
  n = b.Map("m", n, "slow", 4, /*deterministic=*/true);
  n = b.Prefetch("pf", n, 8);
  n = b.Batch("bt", n, 4, /*drop_remainder=*/false);
  const GraphDef graph = std::move(b.Build(n)).value();
  const auto reference = RunChain(env, graph, 8);
  ASSERT_FALSE(reference.empty());

  PipelineOptions options = env.Options();
  options.engine_batch_size = 8;
  options.governor = std::make_shared<ParallelismGovernor>();
  auto pipeline = std::move(Pipeline::Create(graph, options)).value();
  std::atomic<bool> stop{false};
  std::thread flipper([&] {
    int target = 1;
    while (!stop.load()) {
      options.governor->SetTarget("m", target);
      target = target % 6 + 1;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  const auto retargeted = Drain(*pipeline);
  stop = true;
  flipper.join();
  ExpectIdenticalOutput(reference, retargeted);
}

TEST(EngineBatchTest, BatchedFilterIdentical) {
  // The sequential filter claims whole batches from its input when a
  // batching consumer (here: parallel map workers) drives it; dropped
  // elements and survivors must be identical at any batch size.
  PipelineTestEnv env(4, 25, 48);
  for (const char* predicate : {"keep_half", "keep_all"}) {
    GraphBuilder b;
    auto n = b.Interleave("il", b.FileList("files", "data/"), 2, 1);
    n = b.Filter("flt", n, predicate);
    n = b.Map("m", n, "double_size", 4, /*deterministic=*/true);
    n = b.Batch("bt", n, 4, /*drop_remainder=*/false);
    const GraphDef graph = std::move(b.Build(n)).value();
    const auto reference = RunChain(env, graph, 1);
    ASSERT_FALSE(reference.empty()) << predicate;
    for (int batch : {2, 8, 64}) {
      ExpectIdenticalOutput(reference, RunChain(env, graph, batch));
    }
  }
}

TEST(EngineBatchTest, FilterStatsConservationUnderBatching) {
  PipelineTestEnv env(4, 25, 48);
  GraphBuilder b;
  auto n = b.Interleave("il", b.FileList("files", "data/"), 2, 1);
  n = b.Filter("flt", n, "keep_half");
  n = b.Map("m", n, "noop", 4, /*deterministic=*/true);
  const GraphDef graph = std::move(b.Build(n)).value();
  PipelineOptions options = env.Options();
  options.engine_batch_size = 16;
  auto pipeline = std::move(Pipeline::Create(graph, options)).value();
  const size_t kept = Drain(*pipeline).size();
  const auto snap = pipeline->stats().Snapshot();
  auto find = [&](const std::string& name) {
    for (const auto& s : snap) {
      if (s.name == name) return s;
    }
    return IteratorStatsSnapshot{};
  };
  // The filter consumed everything the interleave produced and produced
  // exactly what the map consumed (= what the drain kept).
  EXPECT_EQ(find("il").elements_produced, 100u);
  EXPECT_EQ(find("flt").elements_consumed, 100u);
  EXPECT_EQ(find("flt").elements_produced, kept);
  EXPECT_EQ(find("m").elements_consumed, kept);
  EXPECT_GT(kept, 0u);
  EXPECT_LT(kept, 100u);  // keep_half actually dropped elements
}

TEST(EngineBatchTest, ShuffleRefillClaimsBatchesIdentical) {
  // The shuffle refill claims its whole buffer deficit from the input
  // per GetNextBatch call; elements arrive in the order repeated
  // GetNext would deliver, so draws — and therefore outputs — are
  // identical at every engine batch size, including across a parallel
  // (deterministic) producer.
  PipelineTestEnv env(4, 25, 48);
  for (const bool fused_repeat : {false, true}) {
    GraphBuilder b;
    auto n = b.Interleave("il", b.FileList("files", "data/"), 2, 1);
    n = b.Map("m", n, "double_size", 4, /*deterministic=*/true);
    n = fused_repeat ? b.ShuffleAndRepeat("shf", n, 32, /*count=*/2)
                     : b.Shuffle("shf", n, 32, 7);
    n = b.Batch("bt", n, 4, /*drop_remainder=*/false);
    const GraphDef graph = std::move(b.Build(n)).value();
    const auto reference = RunChain(env, graph, 1);
    ASSERT_FALSE(reference.empty());
    for (int batch : {2, 8, 64}) {
      ExpectIdenticalOutput(reference, RunChain(env, graph, batch));
    }
  }
}

TEST(EngineBatchTest, ShuffleStatsConservationUnderBatching) {
  PipelineTestEnv env(4, 25, 48);
  GraphBuilder b;
  auto n = b.Interleave("il", b.FileList("files", "data/"), 2, 1);
  n = b.Map("m", n, "double_size", 4, /*deterministic=*/true);
  n = b.Shuffle("shf", n, 32, 7);
  const GraphDef graph = std::move(b.Build(n)).value();
  PipelineOptions options = env.Options();
  options.engine_batch_size = 16;
  auto pipeline = std::move(Pipeline::Create(graph, options)).value();
  const size_t drained = Drain(*pipeline).size();
  const auto snap = pipeline->stats().Snapshot();
  auto find = [&](const std::string& name) {
    for (const auto& s : snap) {
      if (s.name == name) return s;
    }
    return IteratorStatsSnapshot{};
  };
  // Batched refill claims must count every element exactly once.
  EXPECT_EQ(drained, 100u);
  EXPECT_EQ(find("shf").elements_consumed, 100u);
  EXPECT_EQ(find("shf").elements_produced, 100u);
  EXPECT_EQ(find("m").elements_produced, 100u);
}

TEST(EngineBatchTest, BatchedCombineOpsIdentical) {
  PipelineTestEnv env(4, 25, 48);
  GraphBuilder b;
  auto left = b.Map("lm", b.Interleave("il", b.FileList("f", "data/"), 2, 1),
                    "noop", 2);
  auto right = b.Range("r", 100);
  auto zipped = b.Zip("z", {left, right});
  auto n = b.Concatenate("cat", {zipped, b.Range("r2", 7)});
  n = b.Batch("bt", n, 5, /*drop_remainder=*/false);
  const GraphDef graph = std::move(b.Build(n)).value();
  const auto reference = RunChain(env, graph, 1);
  ASSERT_FALSE(reference.empty());
  for (int batch : {3, 16}) {
    ExpectIdenticalOutput(reference, RunChain(env, graph, batch));
  }
}

TEST(EngineBatchTest, BatchedMapAndBatchIdentical) {
  PipelineTestEnv env(2, 20, 32);
  GraphBuilder b;
  auto n = b.Interleave("il", b.FileList("files", "data/"), 2, 1);
  n = b.MapAndBatch("fused", n, "double_size", 5, /*parallelism=*/2);
  const GraphDef graph = std::move(b.Build(n)).value();
  const auto reference = RunChain(env, graph, 1);
  ASSERT_EQ(reference.size(), 8u);
  for (int batch : {4, 32}) {
    // map_and_batch workers race for whole batches, so batch order is
    // nondeterministic; compare fingerprints and batch count.
    const auto batched = RunChain(env, graph, batch);
    EXPECT_EQ(testing_util::SizeFingerprint(reference),
              testing_util::SizeFingerprint(batched));
  }
}

TEST(EngineBatchTest, StatsConservationHoldsUnderBatching) {
  // The LP planner consumes these counters; batching must not change
  // the sums (sharded counters aggregate exactly).
  PipelineTestEnv env(4, 25, 48);
  PipelineOptions options = env.Options();
  options.engine_batch_size = 16;
  auto pipeline =
      std::move(Pipeline::Create(DeterministicMapChain(4), options)).value();
  Drain(*pipeline);
  const auto snap = pipeline->stats().Snapshot();
  auto find = [&](const std::string& name) {
    for (const auto& s : snap) {
      if (s.name == name) return s;
    }
    return IteratorStatsSnapshot{};
  };
  EXPECT_EQ(find("il").elements_produced, 100u);
  EXPECT_EQ(find("m").elements_consumed, find("il").elements_produced);
  EXPECT_EQ(find("m").elements_produced, 100u);
  EXPECT_EQ(find("bt").elements_consumed, find("m").elements_produced);
  EXPECT_EQ(find("bt").elements_produced, 25u);
}

TEST(EngineBatchTest, GraphRecordedBatchPrecedence) {
  // Explicit options (>0, including 1 = element-at-a-time) beat the
  // graph-recorded batch; only the unset default (0) defers to it.
  PipelineTestEnv env(2, 10, 32);
  GraphDef graph = DeterministicMapChain(4);
  ASSERT_TRUE(rewriter::SetEngineBatchSize(&graph, 64).ok());
  ASSERT_EQ(rewriter::GetEngineBatchSize(graph), 64);
  struct Case {
    int options_batch;
    int expected;
  };
  for (const Case c : {Case{0, 64}, Case{1, 1}, Case{32, 32}}) {
    PipelineOptions options = env.Options();
    options.engine_batch_size = c.options_batch;
    auto pipeline = std::move(Pipeline::Create(graph, options)).value();
    EXPECT_EQ(pipeline->context()->engine_batch_size, c.expected)
        << "options=" << c.options_batch;
  }
  // Without a recording, unset behaves as the classic engine.
  PipelineOptions options = env.Options();
  auto plain = std::move(
      Pipeline::Create(DeterministicMapChain(4), options)).value();
  EXPECT_EQ(plain->context()->engine_batch_size, 1);
}

TEST(EngineBatchTest, SessionKnobAndRunOverrideProduceSameResults) {
  Session make_session = Session();
  SessionOptions so;
  so.engine_batch_size = 32;
  Session batched_session(so);
  for (Session* session : {&make_session, &batched_session}) {
    ASSERT_TRUE(session
                    ->CreateRecordFiles("train/part-", 4, 50, 64)
                    .ok());
    UdfSpec decode;
    decode.name = "decode";
    decode.size_ratio = 2.0;
    ASSERT_TRUE(session->RegisterUdf(decode).ok());
  }
  auto run = [](Session& session) {
    Flow flow = session.Files("train/")
                    .Interleave(2)
                    .Map("decode", 4)
                    .Batch(10);
    RunOptions window;
    window.max_batches = 20;
    auto report = flow.Run(window);
    EXPECT_TRUE(report.ok()) << report.status();
    return report.ok() ? report->elements : 0;
  };
  const int64_t base = run(make_session);
  EXPECT_EQ(base, run(batched_session));  // session-level knob
  EXPECT_GT(base, 0);
}

}  // namespace
}  // namespace plumber
