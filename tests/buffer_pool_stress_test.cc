// Concurrency stress for the buffer pool, designed to run under TSan (the
// CI TSan leg matches this suite by name): many reader threads share a
// pool with far fewer frames than hot pages, forcing constant eviction
// while pages are pinned and unpinned around them. Invariants checked:
// every row read is byte-correct despite churn, pin counts return to zero,
// and dirty pages written before the churn are never lost.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <chrono>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "sqlengine/value.h"
#include "storage/buffer_pool.h"
#include "storage/crash_sim.h"
#include "storage/disk_manager.h"
#include "storage/page.h"
#include "storage/table_heap.h"

namespace codes::storage {
namespace {

using sql::Value;

constexpr int kRows = 2000;
constexpr int kThreads = 8;

TEST(BufferPoolStressTest, ConcurrentScansUnderEvictionPressure) {
  SimEnv env;
  auto disk = std::make_unique<DiskManager>(env.GetFile("t.db"));
  BufferPool pool(disk.get(), 4);  // far fewer frames than heap pages
  auto heap = TableHeap::Create(&pool);
  ASSERT_TRUE(heap.ok());
  for (int i = 0; i < kRows; ++i) {
    std::vector<Value> row = {Value(static_cast<int64_t>(i)),
                              Value("payload-" + std::to_string(i))};
    ASSERT_TRUE(heap->Append(row).ok());
  }
  ASSERT_GT(disk->page_count(), 4u) << "need more pages than frames";

  std::atomic<int> errors{0};
  auto reader = [&](int offset) {
    // Full sequential scan per thread so the hot set never fits in the
    // pool. Eight scanners each hold one pin against four frames, so a
    // scan can die of transient pin exhaustion — the documented outcome,
    // not a bug (see ConcurrentPointFetchesReturnCorrectRows): restart it.
    // Only wrong bytes or a non-exhaustion error count against the test.
    for (int attempt = 0; attempt < 1000; ++attempt) {
      auto cursor = heap->Scan();
      sql::Row row;
      int expect = 0;
      while (cursor->Next(&row)) {
        if (row.size() != 2 || row[0].AsInteger() != expect ||
            row[1].AsText() != "payload-" + std::to_string(expect)) {
          errors.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        ++expect;
      }
      if (cursor->status().code() == StatusCode::kResourceExhausted) {
        // All frames momentarily pinned by sibling scans. Back off before
        // restarting: eight spinning scanners against four frames can
        // otherwise livelock each other indefinitely.
        std::this_thread::sleep_for(
            std::chrono::microseconds(20 * (attempt % 8 + 1)));
        continue;
      }
      if (!cursor->status().ok() || expect != kRows) {
        errors.fetch_add(1, std::memory_order_relaxed);
      }
      (void)offset;
      return;
    }
    errors.fetch_add(1, std::memory_order_relaxed);  // never completed
  };

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(reader, t);
  for (auto& t : threads) t.join();

  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(pool.pinned_frames(), 0u);
  EXPECT_GT(pool.eviction_count(), 0u) << "stress never evicted";
}

TEST(BufferPoolStressTest, ConcurrentPointFetchesReturnCorrectRows) {
  SimEnv env;
  auto disk = std::make_unique<DiskManager>(env.GetFile("t.db"));
  BufferPool pool(disk.get(), 2);  // integer rows pack densely: few pages
  auto heap = TableHeap::Create(&pool);
  ASSERT_TRUE(heap.ok());
  std::vector<Rid> rids;
  rids.reserve(kRows);
  for (int i = 0; i < kRows; ++i) {
    std::vector<Value> row = {Value(static_cast<int64_t>(i))};
    auto rid = heap->Append(row);
    ASSERT_TRUE(rid.ok());
    rids.push_back(*rid);
  }

  std::atomic<int> errors{0};
  ThreadPool tp(kThreads);
  tp.ParallelFor(static_cast<size_t>(kRows * 4), [&](size_t begin,
                                                     size_t end) {
    for (size_t i = begin; i < end; ++i) {
      size_t target = (i * 2654435761u) % static_cast<size_t>(kRows);
      std::vector<Value> fetched;
      Status s;
      // With more concurrent pins than frames, transient pin exhaustion is
      // the documented outcome, not a bug — retry until a frame frees up.
      do {
        fetched.clear();
        s = heap->Fetch(rids[target], &fetched);
      } while (s.code() == StatusCode::kResourceExhausted);
      if (!s.ok() || fetched.size() != 1 ||
          fetched[0].AsInteger() != static_cast<int64_t>(target)) {
        errors.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(pool.pinned_frames(), 0u);
  EXPECT_GT(pool.eviction_count(), 0u);
  EXPECT_GT(pool.hit_count(), 0u);
}

TEST(BufferPoolStressTest, DirtyPagesSurviveConcurrentEvictionChurn) {
  SimEnv env;
  auto disk = std::make_unique<DiskManager>(env.GetFile("t.db"));
  constexpr PageId kPages = 32;
  for (PageId i = 0; i < kPages; ++i) ASSERT_TRUE(disk->Allocate().ok());
  BufferPool pool(disk.get(), 3);

  // Writers mark distinct pages dirty; readers churn the pool so the
  // dirty pages are repeatedly evicted (written back) and refetched.
  // Page assignment is parity-disjoint (thread 0 even pages, thread 1 odd)
  // so no two threads ever stamp the same page — concurrent same-page
  // writes through separate pins would be a data race in the test itself,
  // not the pool.
  std::atomic<int> errors{0};
  auto worker = [&](int id) {
    for (int round = 0; round < 50; ++round) {
      PageId mine = static_cast<PageId>((round * 2 + id) % kPages);
      {
        auto g = pool.Fetch(mine);
        if (!g.ok()) {
          // Two threads each hold at most one pin, and the pool has three
          // frames, so pin exhaustion here is a real bug.
          errors.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        std::byte stamp{static_cast<unsigned char>(1 + (mine % 250))};
        g->data()[64] = stamp;
        g->MarkDirty();
      }
      // Churn: touch other pages to push `mine` out.
      for (PageId p = 0; p < 6; ++p) {
        auto g = pool.Fetch(static_cast<PageId>((mine + 1 + p) % kPages));
        (void)g;
      }
      {
        auto g = pool.Fetch(mine);
        if (!g.ok()) {
          errors.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        std::byte want{static_cast<unsigned char>(1 + (mine % 250))};
        if (g->data()[64] != want) {
          errors.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) threads.emplace_back(worker, t);
  for (auto& t : threads) t.join();

  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(pool.pinned_frames(), 0u);
  ASSERT_TRUE(pool.FlushAll().ok());
  // After flush, every stamped page must hold its stamp on disk.
  std::byte page[kPageSize];
  for (PageId p = 0; p < kPages; ++p) {
    ASSERT_TRUE(disk->ReadPage(p, page).ok());
    std::byte b = page[64];
    std::byte want{static_cast<unsigned char>(1 + (p % 250))};
    EXPECT_TRUE(b == std::byte{0} || b == want)
        << "page " << p << " holds a torn stamp";
  }
}

}  // namespace
}  // namespace codes::storage
