// LeaseCache: the one LRU behind the pipeline's per-database value-index
// cache and the fleet's tenant bundles. Covers the victim order, both caps
// on their own, the keep-the-newest rule, lease lifetime across eviction,
// Clear's count, and thread-count-invariant miss accounting.

#include "common/lease_cache.h"

#include <gtest/gtest.h>

#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace codes {
namespace {

using Cache = LeaseCache<int, std::string>;

std::shared_ptr<const std::string> Value(const std::string& text) {
  return std::make_shared<const std::string>(text);
}

TEST(LeaseCacheTest, LookupMissIsNullAndHitReturnsTheCachedValue) {
  Cache cache({0, 0});
  EXPECT_EQ(cache.Lookup(1), nullptr);
  auto result = cache.Insert(1, Value("one"), 3);
  EXPECT_TRUE(result.inserted);
  EXPECT_EQ(result.evicted, 0u);
  EXPECT_EQ(cache.Lookup(1).get(), result.lease.get());
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.bytes(), 3u);
}

TEST(LeaseCacheTest, EvictsTheLeastRecentlyUsedEntryFirst) {
  Cache cache({3, 0});
  cache.Insert(1, Value("a"), 1);
  cache.Insert(2, Value("b"), 1);
  cache.Insert(3, Value("c"), 1);
  // Touch 1: now 2 is the oldest, then 3.
  ASSERT_NE(cache.Lookup(1), nullptr);

  EXPECT_EQ(cache.Insert(4, Value("d"), 1).evicted, 1u);
  EXPECT_EQ(cache.Lookup(2), nullptr);
  EXPECT_NE(cache.Lookup(3), nullptr);  // touched: 1 is now the oldest

  EXPECT_EQ(cache.Insert(5, Value("e"), 1).evicted, 1u);
  EXPECT_EQ(cache.Lookup(1), nullptr);
  EXPECT_NE(cache.Lookup(3), nullptr);
  EXPECT_NE(cache.Lookup(4), nullptr);
  EXPECT_NE(cache.Lookup(5), nullptr);
  EXPECT_EQ(cache.size(), 3u);
}

TEST(LeaseCacheTest, InsertedEntrySurvivesAOneByteBudget) {
  Cache cache({0, 1});
  auto first = cache.Insert(1, Value("first"), 100);
  EXPECT_TRUE(first.inserted);
  EXPECT_EQ(first.evicted, 0u);
  EXPECT_EQ(cache.size(), 1u);

  auto second = cache.Insert(2, Value("second"), 100);
  EXPECT_EQ(second.evicted, 1u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.bytes(), 100u);
  EXPECT_EQ(cache.Lookup(1), nullptr);
  EXPECT_EQ(*cache.Lookup(2), "second");
}

TEST(LeaseCacheTest, EntryCapAloneIgnoresBytes) {
  Cache cache({2, 0});
  cache.Insert(1, Value("a"), 1'000'000);
  cache.Insert(2, Value("b"), 1'000'000);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.Insert(3, Value("c"), 1'000'000).evicted, 1u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.bytes(), 2'000'000u);
}

TEST(LeaseCacheTest, ByteCapAloneIgnoresEntryCount) {
  Cache cache({0, 250});
  for (int key = 0; key < 50; ++key) {
    EXPECT_EQ(cache.Insert(key, Value("tiny"), 5).evicted, 0u);
  }
  EXPECT_EQ(cache.size(), 50u);
  EXPECT_EQ(cache.bytes(), 250u);
  // One byte over: exactly the oldest entry goes.
  EXPECT_EQ(cache.Insert(50, Value("tiny"), 1).evicted, 1u);
  EXPECT_EQ(cache.Lookup(0), nullptr);
  EXPECT_EQ(cache.bytes(), 246u);
  // A large entry evicts as many old ones as it takes.
  EXPECT_EQ(cache.Insert(51, Value("big"), 100).evicted, 20u);
  EXPECT_LE(cache.bytes(), 250u);
}

TEST(LeaseCacheTest, EvictedLeaseStaysUsable) {
  Cache cache({1, 0});
  auto lease = cache.Insert(1, Value("alpha"), 5).lease;
  EXPECT_EQ(cache.Insert(2, Value("beta"), 5).evicted, 1u);
  EXPECT_EQ(cache.Lookup(1), nullptr);
  // The cache dropped its reference; the lease is now the only owner.
  EXPECT_EQ(lease.use_count(), 1);
  EXPECT_EQ(*lease, "alpha");
}

TEST(LeaseCacheTest, ClearReportsHowManyEntriesItDropped) {
  Cache cache({0, 0});
  cache.Insert(1, Value("a"), 10);
  cache.Insert(2, Value("b"), 10);
  cache.Insert(3, Value("c"), 10);
  auto held = cache.Lookup(2);
  EXPECT_EQ(cache.Clear(), 3u);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_EQ(*held, "b");
  EXPECT_EQ(cache.Clear(), 0u);
}

TEST(LeaseCacheTest, LosingInsertGetsTheWinnersLease) {
  Cache cache({0, 0});
  auto winner = cache.Insert(1, Value("winner"), 7);
  auto loser = cache.Insert(1, Value("loser"), 9);
  EXPECT_TRUE(winner.inserted);
  EXPECT_FALSE(loser.inserted);
  EXPECT_EQ(loser.lease.get(), winner.lease.get());
  EXPECT_EQ(cache.bytes(), 7u);
}

TEST(LeaseCacheTest, EightThreadsRacingOneKeyRecordExactlyOneMiss) {
  constexpr int kThreads = 8;
  Cache cache({0, 0});
  std::latch start(kThreads);
  std::vector<std::shared_ptr<const std::string>> leases(kThreads);
  std::vector<int> inserted(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto value = Value("built by " + std::to_string(t));
      start.arrive_and_wait();
      auto result = cache.Insert(42, std::move(value), 16);
      inserted[t] = result.inserted ? 1 : 0;
      leases[t] = result.lease;
    });
  }
  for (auto& thread : threads) thread.join();

  int misses = 0;
  for (int t = 0; t < kThreads; ++t) {
    misses += inserted[t];
    EXPECT_EQ(leases[t].get(), leases[0].get()) << "thread " << t;
  }
  EXPECT_EQ(misses, 1);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.bytes(), 16u);
}

}  // namespace
}  // namespace codes
