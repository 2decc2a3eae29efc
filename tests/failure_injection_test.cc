// Failure-injection suite: the engine and the optimizer must degrade
// with clear errors, not hangs or crashes, when the world misbehaves —
// cancellation mid-flight, memory budgets blown by a cache (also
// mid-stream beneath every op), missing data, malformed
// programs, unknown UDFs.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <future>
#include <thread>
#include <tuple>

#include "src/core/optimizer.h"
#include "src/core/rewriter.h"
#include "tests/test_util.h"

namespace plumber {
namespace {

using testing_util::CountOwnThreads;
using testing_util::PipelineTestEnv;

GraphDef InfiniteGraph(const std::string& udf = "noop") {
  GraphBuilder b;
  auto n = b.Interleave("interleave", b.FileList("files", "data/"), 2, 2);
  n = b.Map("work", n, udf, /*parallelism=*/4);
  n = b.ShuffleAndRepeat("sr", n, 16);
  n = b.Batch("batch", n, 5);
  n = b.Prefetch("prefetch", n, 4);
  return std::move(b.Build(n)).value();
}

TEST(FailureInjectionTest, CancelUnblocksConsumerOnInfinitePipeline) {
  PipelineTestEnv env(4, 50, 64);
  auto pipeline =
      std::move(Pipeline::Create(InfiniteGraph("slow"), env.Options()))
          .value();
  auto iterator = std::move(pipeline->MakeIterator()).value();

  std::atomic<bool> done{false};
  std::thread consumer([&] {
    Element e;
    bool end = false;
    // Drain until cancellation surfaces as end-of-stream or an error.
    while (iterator->GetNext(&e, &end).ok() && !end) {
    }
    done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  pipeline->Cancel();
  for (int i = 0; i < 400 && !done.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(done.load()) << "consumer still blocked 4s after Cancel()";
  if (!done.load()) consumer.detach();  // avoid hanging the suite
  else consumer.join();
}

TEST(FailureInjectionTest, CancelDuringDestructionIsSafe) {
  // Destroying a parallel pipeline while workers are mid-element must
  // join cleanly (no deadlock, no use-after-free under ASAN).
  PipelineTestEnv env(4, 50, 64);
  for (int round = 0; round < 5; ++round) {
    auto pipeline =
        std::move(Pipeline::Create(InfiniteGraph("slow"), env.Options()))
            .value();
    auto iterator = std::move(pipeline->MakeIterator()).value();
    Element e;
    bool end = false;
    ASSERT_TRUE(iterator->GetNext(&e, &end).ok());
    pipeline->Cancel();
    // iterator + pipeline destroyed here with workers in flight.
  }
}

TEST(FailureInjectionTest, CacheOverBudgetSurfacesResourceExhausted) {
  PipelineTestEnv env(4, 50, 64);
  GraphDef graph = InfiniteGraph();
  ASSERT_TRUE(rewriter::InjectCache(&graph, "work").ok());
  PipelineOptions options = env.Options(/*memory_budget=*/256);
  auto pipeline = std::move(Pipeline::Create(graph, options)).value();
  auto iterator = std::move(pipeline->MakeIterator()).value();
  Element e;
  bool end = false;
  Status status = OkStatus();
  for (int i = 0; i < 10000 && status.ok() && !end; ++i) {
    status = iterator->GetNext(&e, &end);
  }
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted) << status;
}

TEST(FailureInjectionTest, MissingFilePrefixEndsImmediately) {
  PipelineTestEnv env(4, 50, 64);
  GraphBuilder b;
  auto n = b.Interleave("interleave", b.FileList("files", "nonexistent/"),
                        2, 1);
  n = b.Batch("batch", n, 5, /*drop_remainder=*/false);
  auto pipeline = std::move(Pipeline::Create(std::move(b.Build(n)).value(),
                                             env.Options()))
                      .value();
  auto iterator = std::move(pipeline->MakeIterator()).value();
  Element e;
  bool end = false;
  ASSERT_TRUE(iterator->GetNext(&e, &end).ok());
  EXPECT_TRUE(end);
}

TEST(FailureInjectionTest, UnknownUdfFailsAtInstantiation) {
  PipelineTestEnv env(4, 50, 64);
  GraphDef graph = InfiniteGraph("no_such_udf");
  auto pipeline = Pipeline::Create(graph, env.Options());
  ASSERT_FALSE(pipeline.ok());
  EXPECT_EQ(pipeline.status().code(), StatusCode::kNotFound)
      << pipeline.status();
}

TEST(FailureInjectionTest, UnknownOpFailsAtInstantiation) {
  PipelineTestEnv env(4, 50, 64);
  GraphDef graph;
  NodeDef node;
  node.name = "mystery";
  node.op = "quantum_shuffle";
  ASSERT_TRUE(graph.AddNode(node).ok());
  graph.SetOutput("mystery");
  auto pipeline = Pipeline::Create(graph, env.Options());
  EXPECT_FALSE(pipeline.ok());
}

TEST(FailureInjectionTest, DanglingInputFailsValidation) {
  GraphDef graph;
  NodeDef node;
  node.name = "batch";
  node.op = "batch";
  node.inputs = {"ghost"};
  ASSERT_TRUE(graph.AddNode(node).ok());
  graph.SetOutput("batch");
  EXPECT_FALSE(graph.Validate().ok());
}

TEST(FailureInjectionTest, OptimizerSurvivesUntraceablePipeline) {
  // A pipeline over a missing prefix produces an empty trace; the
  // optimizer must return a usable (if unoptimized) result or a clean
  // error — never crash.
  PipelineTestEnv env(4, 50, 64);
  GraphBuilder b;
  auto n = b.Interleave("interleave", b.FileList("files", "nonexistent/"),
                        2, 1);
  n = b.Repeat("repeat", n);
  n = b.Batch("batch", n, 5);
  GraphDef graph = std::move(b.Build(n)).value();

  OptimizeOptions options;
  options.machine = MachineSpec::SetupA();
  options.pipeline = env.Options();
  options.trace_seconds = 0.05;
  PlumberOptimizer optimizer(options);
  auto result = optimizer.Optimize(graph);
  if (result.ok()) {
    EXPECT_TRUE(result->graph.Validate().ok());
  }
}

TEST(FailureInjectionTest, RewriterRejectsUnknownNodes) {
  GraphDef graph = InfiniteGraph();
  EXPECT_FALSE(rewriter::SetParallelism(&graph, "ghost", 4).ok());
  EXPECT_FALSE(rewriter::InjectCache(&graph, "ghost").ok());
  EXPECT_FALSE(rewriter::GetParallelism(graph, "ghost").ok());
}

TEST(FailureInjectionTest, ZeroRecordFileIsHandled) {
  PipelineTestEnv env(1, 1, 16);
  // Overwrite with an empty record file.
  ASSERT_TRUE(env.fs.CreateRecordFile("empty/f0", 1, {}).ok());
  GraphBuilder b;
  auto n = b.Interleave("interleave", b.FileList("files", "empty/"), 2, 1);
  n = b.Batch("batch", n, 4, /*drop_remainder=*/false);
  auto pipeline = std::move(Pipeline::Create(std::move(b.Build(n)).value(),
                                             env.Options()))
                      .value();
  auto iterator = std::move(pipeline->MakeIterator()).value();
  Element e;
  bool end = false;
  ASSERT_TRUE(iterator->GetNext(&e, &end).ok());
  EXPECT_TRUE(end);
}

// ---------------------------------------------------------- op errors
// A mid-stream error must look the same beneath every op, parallel or
// sequential: it surfaces, every later GetNext returns the same error
// with no element, no call blocks, and destroying the iterator joins
// every worker. The parallel ops share the WorkerPool's error contract;
// the sequential ones get it from IteratorBase.

constexpr int kRecordsPerFile = 100;
constexpr uint64_t kRecordBytes = 64;
// A cache over the reader fails on its 101st element.
constexpr uint64_t kReaderCacheBudget = kRecordsPerFile * kRecordBytes;
// More later calls than the reader has records left: an op that keeps
// pulling after the error runs its input dry within them.
constexpr int kLaterCalls = 4 * kRecordsPerFile;

struct ErrorCase {
  std::string op;
  uint64_t memory_budget;
  std::function<GraphDef()> build;
};

// `op` over cache(tfrecord(file_list)).
GraphDef OverCachedReader(
    const std::function<std::string(GraphBuilder&, const std::string&)>& op) {
  GraphBuilder b;
  const std::string cached =
      b.Cache("cache", b.TfRecord("reader", b.FileList("files", "data/")));
  return std::move(b.Build(op(b, cached))).value();
}

GraphDef ShardMergeOverCachedShard() {
  GraphBuilder b;
  GraphDef graph =
      std::move(b.Build(b.TfRecord("reader", b.FileList("files", "data/"))))
          .value();
  const std::string merge =
      std::move(rewriter::ShardSource(&graph, "reader", 2)).value();
  const std::string shard0 = graph.FindNode(merge)->inputs[0];
  EXPECT_TRUE(rewriter::InjectCache(&graph, shard0).ok());
  return graph;
}

const std::vector<ErrorCase>& ErrorCases() {
  static const std::vector<ErrorCase> cases = {
      {"map", kReaderCacheBudget,
       [] {
         return OverCachedReader([](GraphBuilder& b, const std::string& in) {
           return b.Map("op", in, "noop", /*parallelism=*/2);
         });
       }},
      // The cache holds file names ("data/f0" is 7 bytes): the second
      // claimed file overflows it while the first is being read.
      {"interleave", 10,
       [] {
         GraphBuilder b;
         const std::string files =
             b.Cache("cache", b.FileList("files", "data/"));
         return std::move(b.Build(b.Interleave("op", files, 2, 2))).value();
       }},
      {"shard_merge", kReaderCacheBudget, ShardMergeOverCachedShard},
      {"prefetch", kReaderCacheBudget,
       [] {
         return OverCachedReader([](GraphBuilder& b, const std::string& in) {
           return b.Prefetch("op", in, 4);
         });
       }},
      {"map_and_batch", kReaderCacheBudget,
       [] {
         return OverCachedReader([](GraphBuilder& b, const std::string& in) {
           return b.MapAndBatch("op", in, "noop", /*batch_size=*/4,
                                /*parallelism=*/2);
         });
       }},
      {"sequential_map", kReaderCacheBudget,
       [] {
         return OverCachedReader([](GraphBuilder& b, const std::string& in) {
           return b.Map("op", in, "noop", /*parallelism=*/1);
         });
       }},
      {"batch", kReaderCacheBudget,
       [] {
         return OverCachedReader([](GraphBuilder& b, const std::string& in) {
           return b.Batch("op", in, 4, /*drop_remainder=*/false);
         });
       }},
      {"shuffle", kReaderCacheBudget,
       [] {
         return OverCachedReader([](GraphBuilder& b, const std::string& in) {
           return b.Shuffle("op", in, 8);
         });
       }},
      {"shuffle_and_repeat", kReaderCacheBudget,
       [] {
         return OverCachedReader([](GraphBuilder& b, const std::string& in) {
           return b.ShuffleAndRepeat("op", in, 8, /*count=*/2);
         });
       }},
      {"filter", kReaderCacheBudget,
       [] {
         return OverCachedReader([](GraphBuilder& b, const std::string& in) {
           return b.Filter("op", in, "keep_all");
         });
       }},
      {"repeat", kReaderCacheBudget,
       [] {
         return OverCachedReader([](GraphBuilder& b, const std::string& in) {
           return b.Repeat("op", in, /*count=*/2);
         });
       }},
      {"take", kReaderCacheBudget,
       [] {
         return OverCachedReader([](GraphBuilder& b, const std::string& in) {
           return b.Take("op", in, 1000);
         });
       }},
      {"zip", kReaderCacheBudget,
       [] {
         return OverCachedReader([](GraphBuilder& b, const std::string& in) {
           return b.Zip("op", {in, b.Range("numbers", -1)});
         });
       }},
      {"concatenate", kReaderCacheBudget,
       [] {
         return OverCachedReader([](GraphBuilder& b, const std::string& in) {
           return b.Concatenate("op", {in, b.Range("numbers", 10)});
         });
       }},
  };
  return cases;
}

struct ErrorOutcome {
  Status first;
  std::vector<Status> later;
  int elements_after_error = 0;
};

class ParallelOpErrorTest
    : public ::testing::TestWithParam<std::tuple<size_t, int>> {};

TEST_P(ParallelOpErrorTest, ErrorSurfacesOnceWithoutHangOrLeak) {
  const ErrorCase& error_case = ErrorCases()[std::get<0>(GetParam())];
  PipelineTestEnv env(4, kRecordsPerFile, kRecordBytes);
  const int threads_before = CountOwnThreads();
  {
    PipelineOptions options = env.Options(error_case.memory_budget);
    options.engine_batch_size = std::get<1>(GetParam());
    auto pipeline =
        std::move(Pipeline::Create(error_case.build(), options)).value();
    auto iterator = std::move(pipeline->MakeIterator()).value();

    // The calls run on a helper thread so a blocked GetNext fails this
    // test with a message instead of hanging the suite.
    std::promise<ErrorOutcome> promise;
    std::future<ErrorOutcome> future = promise.get_future();
    std::thread consumer([&] {
      ErrorOutcome outcome;
      Element e;
      bool end = false;
      for (int i = 0; i < 100000 && outcome.first.ok() && !end; ++i) {
        outcome.first = iterator->GetNext(&e, &end);
      }
      for (int i = 0; i < kLaterCalls; ++i) {
        end = false;
        outcome.later.push_back(iterator->GetNext(&e, &end));
        if (outcome.later.back().ok() && !end) ++outcome.elements_after_error;
      }
      promise.set_value(std::move(outcome));
    });
    if (future.wait_for(std::chrono::seconds(30)) !=
        std::future_status::ready) {
      // The blocked call borrows the iterator, so it cannot be
      // abandoned safely; stop here with the reason.
      std::fprintf(stderr, "%s: GetNext still blocked after 30 s\n",
                   error_case.op.c_str());
      std::abort();
    }
    consumer.join();
    const ErrorOutcome outcome = future.get();
    EXPECT_EQ(outcome.first.code(), StatusCode::kResourceExhausted)
        << outcome.first;
    for (const Status& status : outcome.later) {
      EXPECT_EQ(status.code(), outcome.first.code()) << status;
    }
    EXPECT_EQ(outcome.elements_after_error, 0);
  }
  // Iterator and pipeline destroyed: every worker is joined. A joined
  // thread's task entry can outlive the join by a moment, so poll.
  bool joined = false;
  for (int i = 0; i < 500 && !joined; ++i) {
    joined = CountOwnThreads() <= threads_before;
    if (!joined) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(joined) << "threads before: " << threads_before
                      << " after: " << CountOwnThreads();
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, ParallelOpErrorTest,
    ::testing::Combine(::testing::Range<size_t>(0, ErrorCases().size()),
                       ::testing::Values(1, 16, 64)),
    [](const ::testing::TestParamInfo<std::tuple<size_t, int>>& info) {
      return ErrorCases()[std::get<0>(info.param)].op + "_batch" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace plumber
