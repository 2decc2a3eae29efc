// Channel conformance suite: every test here runs against BOTH data
// plane implementations (mutex MPMC BoundedQueue and lock-free SPSC
// SpscRing) through the Channel<T> interface, pinning the shared
// blocking contract — FIFO identity, batch chunking over capacity,
// cancellation semantics, and starvation accounting. Stress tests use
// topology-legal thread counts (1:1 for SPSC). Run under TSan in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <numeric>
#include <random>
#include <thread>
#include <vector>

#include "src/util/bounded_queue.h"
#include "src/util/channel.h"
#include "src/util/spsc_ring.h"
#include "tests/test_util.h"

namespace plumber {
namespace {

enum class ChannelKind { kMpmc, kSpsc };

std::unique_ptr<Channel<int>> MakeChannel(ChannelKind kind, size_t capacity) {
  if (kind == ChannelKind::kSpsc) {
    return std::make_unique<SpscRing<int>>(capacity);
  }
  return std::make_unique<BoundedQueue<int>>(capacity);
}

class ChannelConformanceTest : public ::testing::TestWithParam<ChannelKind> {
 protected:
  std::unique_ptr<Channel<int>> Make(size_t capacity) {
    return MakeChannel(GetParam(), capacity);
  }
};

TEST_P(ChannelConformanceTest, SingleItemFifoIdentity) {
  auto q = Make(16);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(q->Push(i));
  for (int i = 0; i < 10; ++i) {
    std::vector<int> out;
    ASSERT_EQ(q->PopBatch(1, &out), 1u);
    EXPECT_EQ(out[0], i);
  }
  // Exactly the ten pushed items: once cancelled, the drained channel
  // reports exhaustion without blocking.
  q->Cancel();
  std::vector<int> rest;
  EXPECT_EQ(q->PopBatch(1, &rest), 0u);
}

TEST_P(ChannelConformanceTest, PushBatchPopBatchPreserveFifoOrder) {
  auto q = Make(16);
  std::vector<int> in(10);
  std::iota(in.begin(), in.end(), 0);
  ASSERT_TRUE(q->PushBatch(in));
  std::vector<int> out;
  EXPECT_EQ(q->PopBatch(10, &out), 10u);
  EXPECT_EQ(out, in);
}

TEST_P(ChannelConformanceTest, PushBatchLargerThanCapacityChunks) {
  // A batch bigger than the channel must be delivered in full once a
  // consumer drains; PushBatch chunks at capacity internally.
  auto q = Make(4);
  std::vector<int> in(32);
  std::iota(in.begin(), in.end(), 0);
  std::thread producer([&] { EXPECT_TRUE(q->PushBatch(in)); });
  std::vector<int> out;
  while (out.size() < in.size()) {
    q->PopBatch(8, &out);
  }
  producer.join();
  EXPECT_EQ(out, in);
}

TEST_P(ChannelConformanceTest, PopBatchReturnsAtMostMax) {
  auto q = Make(16);
  ASSERT_TRUE(q->PushBatch({1, 2, 3, 4, 5}));
  std::vector<int> out;
  EXPECT_EQ(q->PopBatch(3, &out), 3u);
  EXPECT_EQ(q->PopBatch(100, &out), 2u);  // rest, without blocking
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST_P(ChannelConformanceTest, PopBatchBlocksUntilPush) {
  auto q = Make(4);
  std::atomic<bool> popped{false};
  std::thread consumer([&] {
    std::vector<int> out;
    EXPECT_EQ(q->PopBatch(4, &out), 1u);
    popped = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(popped.load());
  ASSERT_TRUE(q->Push(7));
  consumer.join();
  EXPECT_TRUE(popped.load());
}

TEST_P(ChannelConformanceTest, CancelUnblocksBatchWaitersAndDrains) {
  auto q = Make(2);
  ASSERT_TRUE(q->PushBatch({1, 2}));
  // Producer blocked mid-chunk (batch > capacity), consumer drains
  // after cancel.
  std::thread producer([&] { EXPECT_FALSE(q->PushBatch({3, 4, 5, 6, 7})); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q->Cancel();
  producer.join();
  // Whatever made it in before cancellation drains in order, then 0.
  std::vector<int> out;
  while (q->PopBatch(4, &out) != 0) {
  }
  ASSERT_GE(out.size(), 2u);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i) + 1);
  }
  EXPECT_FALSE(q->PushBatch({9}));
  EXPECT_FALSE(q->Push(9));
  EXPECT_EQ(q->PopBatch(1, &out), 0u);
}

TEST_P(ChannelConformanceTest, CancelUnblocksBlockedConsumer) {
  auto q = Make(4);
  std::thread consumer([&] {
    std::vector<int> out;
    EXPECT_EQ(q->PopBatch(4, &out), 0u);
    EXPECT_EQ(q->PopBatch(1, &out), 0u);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q->Cancel();
  consumer.join();
}

TEST_P(ChannelConformanceTest, EmptyPopFractionCountsElementsNotBatches) {
  // A consumer starved on every batched claim must report the same
  // starvation fraction a per-element consumer would (~0.5), not
  // 1/batch_size of it.
  auto q = Make(8);
  std::thread consumer([&] {
    std::vector<int> out;
    while (out.size() < 8) {
      if (q->PopBatch(4, &out) == 0) break;
    }
  });
  for (int round = 0; round < 2; ++round) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_TRUE(q->PushBatch({1, 2, 3, 4}));
  }
  consumer.join();
  EXPECT_NEAR(q->EmptyPopFraction(), 0.5, 0.26);
}

TEST_P(ChannelConformanceTest, ExactlyOnceStress) {
  // Topology-legal thread counts: SPSC gets exactly one thread per
  // side, MPMC gets four.
  const bool spsc = GetParam() == ChannelKind::kSpsc;
  auto q = Make(32);
  testing_util::ChannelStressExactlyOnce(*q, spsc ? 1 : 4, spsc ? 1 : 4,
                                         /*per_producer=*/spsc ? 8000 : 2000);
}

TEST_P(ChannelConformanceTest, StressWithRacingCancellation) {
  const bool spsc = GetParam() == ChannelKind::kSpsc;
  const ChannelKind kind = GetParam();
  testing_util::ChannelStressRacingCancellation(
      [kind] { return MakeChannel(kind, 8); }, spsc ? 1 : 3, spsc ? 1 : 3,
      /*rounds=*/8);
}

INSTANTIATE_TEST_SUITE_P(AllChannels, ChannelConformanceTest,
                         ::testing::Values(ChannelKind::kMpmc,
                                           ChannelKind::kSpsc),
                         [](const ::testing::TestParamInfo<ChannelKind>& info) {
                           return info.param == ChannelKind::kSpsc
                                      ? "SpscRing"
                                      : "BoundedQueue";
                         });

TEST(SpscRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscRing<int>(1).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(5).capacity(), 8u);
  EXPECT_EQ(SpscRing<int>(8).capacity(), 8u);
  EXPECT_EQ(SpscRing<int>(100).capacity(), 128u);
}

TEST(SpscRingTest, TortureRandomizedBatchSizes) {
  // One producer / one consumer hammer the ring with randomized batch
  // sizes (often above capacity) and a mix of single-item and batched
  // calls, across small capacities that force constant wrap-around and
  // park/unpark traffic. The full FIFO sequence must survive intact.
  for (const size_t capacity : {2u, 3u, 8u}) {
    SpscRing<int> ring(capacity);
    constexpr int kTotal = 50000;
    std::thread producer([&ring] {
      std::mt19937 rng(42);
      std::uniform_int_distribution<int> batch_dist(1, 19);
      int next = 0;
      while (next < kTotal) {
        if (batch_dist(rng) == 1) {
          ASSERT_TRUE(ring.Push(next++));
          continue;
        }
        std::vector<int> batch;
        const int n = std::min(batch_dist(rng), kTotal - next);
        for (int i = 0; i < n; ++i) batch.push_back(next++);
        ASSERT_TRUE(ring.PushBatch(std::move(batch)));
      }
    });
    std::mt19937 rng(7);
    std::uniform_int_distribution<int> max_dist(1, 23);
    std::vector<int> seen;
    seen.reserve(kTotal);
    while (seen.size() < kTotal) {
      if (max_dist(rng) == 1) {
        std::vector<int> one;
        ASSERT_EQ(ring.PopBatch(1, &one), 1u);
        seen.push_back(one[0]);
        continue;
      }
      std::vector<int> out;
      ASSERT_GT(ring.PopBatch(max_dist(rng), &out), 0u);
      seen.insert(seen.end(), out.begin(), out.end());
    }
    producer.join();
    ASSERT_EQ(seen.size(), static_cast<size_t>(kTotal));
    for (int i = 0; i < kTotal; ++i) {
      ASSERT_EQ(seen[i], i) << "capacity " << capacity;
    }
  }
}

}  // namespace
}  // namespace plumber
