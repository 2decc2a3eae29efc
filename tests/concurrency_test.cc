// Tests for ParallelFor and the bounded queue.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/util/bounded_queue.h"
#include "src/util/parallel_for.h"

namespace plumber {
namespace {

TEST(ParallelForTest, CoversAllIndices) {
  std::vector<std::atomic<int>> hits(64);
  ParallelFor(64, 8, [&](int i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, SequentialFallback) {
  int sum = 0;
  ParallelFor(10, 1, [&](int i) { sum += i; });
  EXPECT_EQ(sum, 45);
}

TEST(ParallelForTest, EmptyRange) {
  ParallelFor(0, 4, [](int) { FAIL() << "should not run"; });
}

TEST(BoundedQueueTest, FifoOrder) {
  BoundedQueue<int> q(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.Push(i));
  for (int i = 0; i < 4; ++i) {
    std::vector<int> out;
    ASSERT_EQ(q.PopBatch(1, &out), 1u);
    EXPECT_EQ(out[0], i);
  }
}

TEST(BoundedQueueTest, PushBlocksUntilSpace) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.Push(1));
  std::atomic<bool> pushed{false};
  std::thread t([&] {
    q.Push(2);
    pushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());
  std::vector<int> out;
  q.PopBatch(1, &out);
  t.join();
  EXPECT_TRUE(pushed.load());
}

TEST(BoundedQueueTest, CancelUnblocksProducerAndConsumer) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.Push(1));
  std::thread producer([&] { EXPECT_FALSE(q.Push(2)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.Cancel();
  producer.join();
  // Drains remaining item, then reports exhaustion.
  std::vector<int> out;
  EXPECT_EQ(q.PopBatch(1, &out), 1u);
  EXPECT_EQ(q.PopBatch(1, &out), 0u);
}

TEST(BoundedQueueTest, CancelledPushFails) {
  BoundedQueue<int> q(2);
  q.Cancel();
  EXPECT_FALSE(q.Push(1));
}

TEST(BoundedQueueTest, MpmcStress) {
  BoundedQueue<int> q(8);
  constexpr int kPerProducer = 2000;
  constexpr int kProducers = 4, kConsumers = 4;
  std::atomic<long> sum{0};
  std::atomic<int> consumed{0};
  std::vector<std::thread> producers, consumers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) q.Push(p * kPerProducer + i);
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      // Blocking pops; exhaustion comes only after Cancel drains.
      std::vector<int> out;
      while (q.PopBatch(1, &out) == 1) {
        sum.fetch_add(out.back());
        consumed.fetch_add(1);
      }
    });
  }
  for (auto& t : producers) t.join();
  q.Cancel();
  for (auto& t : consumers) t.join();
  const long n = kProducers * kPerProducer;
  EXPECT_EQ(consumed.load(), n);
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

TEST(BoundedQueueTest, EmptyPopFractionTracksStalls) {
  BoundedQueue<int> q(4);
  q.Push(1);
  std::vector<int> out;
  q.PopBatch(1, &out);  // not empty at pop time
  EXPECT_EQ(q.EmptyPopFraction(), 0.0);
}

}  // namespace
}  // namespace plumber
