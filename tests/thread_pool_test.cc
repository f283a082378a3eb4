#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace codes {
namespace {

TEST(ThreadPoolTest, ResolveThreadCount) {
  EXPECT_EQ(ThreadPool::ResolveThreadCount(1), 1);
  EXPECT_EQ(ThreadPool::ResolveThreadCount(7), 7);
  EXPECT_GE(ThreadPool::ResolveThreadCount(0), 1);
  EXPECT_GE(ThreadPool::ResolveThreadCount(-3), 1);
}

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    }
    // No Wait(): the destructor must finish the queue before joining.
  }
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 20; ++i) {
      pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.Wait();
    EXPECT_EQ(count.load(), 20 * (round + 1));
  }
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(8);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(kN, [&hits](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForHandlesSmallAndEmptyRanges) {
  ThreadPool pool(4);
  int calls = 0;
  pool.ParallelFor(0, [&calls](size_t, size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  // n == 1 runs inline on the caller: a plain (non-atomic) counter is safe.
  pool.ParallelFor(1, [&calls](size_t begin, size_t end) {
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 1u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, SingleThreadParallelForRunsInlineInOrder) {
  ThreadPool pool(1);
  std::vector<size_t> order;  // safe: body runs on this thread only
  std::thread::id caller = std::this_thread::get_id();
  pool.ParallelFor(10, [&](size_t begin, size_t end) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    for (size_t i = begin; i < end; ++i) order.push_back(i);
  });
  std::vector<size_t> expected(10);
  std::iota(expected.begin(), expected.end(), 0u);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPoolTest, ParallelForShardsAreContiguousAndBalanced) {
  ThreadPool pool(4);
  std::mutex mu;
  std::vector<std::pair<size_t, size_t>> shards;
  pool.ParallelFor(10, [&](size_t begin, size_t end) {
    std::lock_guard<std::mutex> lock(mu);
    shards.emplace_back(begin, end);
  });
  ASSERT_EQ(shards.size(), 4u);
  std::sort(shards.begin(), shards.end());
  size_t expected_begin = 0;
  for (const auto& [begin, end] : shards) {
    EXPECT_EQ(begin, expected_begin);
    size_t len = end - begin;
    EXPECT_TRUE(len == 2 || len == 3);
    expected_begin = end;
  }
  EXPECT_EQ(expected_begin, 10u);
}

TEST(ThreadPoolTest, WaitRethrowsFirstTaskException) {
  ThreadPool pool(2);
  std::atomic<int> completed{0};
  pool.Submit([&] { completed.fetch_add(1); });
  pool.Submit([] { throw std::runtime_error("task failed"); });
  pool.Submit([&] { completed.fetch_add(1); });
  // The exception surfaces from Wait(), after the queue has drained: the
  // other tasks still ran.
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  EXPECT_EQ(completed.load(), 2);
}

TEST(ThreadPoolTest, PoolIsCleanAndReusableAfterRethrow) {
  ThreadPool pool(2);
  pool.Submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  // The rethrow harvested the exception; subsequent rounds are clean.
  std::atomic<int> count{0};
  for (int i = 0; i < 10; ++i) {
    pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  EXPECT_NO_THROW(pool.Wait());
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPoolTest, OnlyFirstOfSeveralExceptionsIsRethrown) {
  ThreadPool pool(1);  // one worker: deterministic task order
  pool.Submit([] { throw std::runtime_error("first"); });
  pool.Submit([] { throw std::logic_error("second"); });
  try {
    pool.Wait();
    FAIL() << "Wait() should have rethrown";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
  // The later exception was counted and dropped, not left pending.
  EXPECT_NO_THROW(pool.Wait());
}

TEST(ThreadPoolTest, ParallelForPropagatesShardException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.ParallelFor(100,
                                [](size_t begin, size_t) {
                                  if (begin == 0) {
                                    throw std::runtime_error("shard failed");
                                  }
                                }),
               std::runtime_error);
  // Still usable for the next ParallelFor.
  std::atomic<int> covered{0};
  pool.ParallelFor(100, [&](size_t begin, size_t end) {
    covered.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(covered.load(), 100);
}

TEST(ThreadPoolTest, TasksRunOffTheCallingThread) {
  ThreadPool pool(2);
  std::thread::id caller = std::this_thread::get_id();
  std::set<std::thread::id> ids;
  std::mutex mu;
  for (int i = 0; i < 16; ++i) {
    pool.Submit([&] {
      std::lock_guard<std::mutex> lock(mu);
      ids.insert(std::this_thread::get_id());
    });
  }
  pool.Wait();
  EXPECT_EQ(ids.count(caller), 0u);
  EXPECT_GE(ids.size(), 1u);
  EXPECT_LE(ids.size(), 2u);
}

}  // namespace
}  // namespace codes
