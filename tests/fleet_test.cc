// Tier-1 coverage for multi-tenant serving: the bounded per-database
// retriever cache inside CodesPipeline (the original unbounded-growth
// bugfix), and the fleet manager that owns per-tenant value-index
// bundles — lazy attach, snapshot persist/reload with corruption and
// old-version fallback, LRU eviction under a global memory budget, and
// the evict-then-reattach determinism contract at 1 and 8 threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/serial.h"
#include "common/thread_pool.h"
#include "core/model_zoo.h"
#include "core/pipeline.h"
#include "dataset/benchmark_builder.h"
#include "fleet/fleet_manager.h"
#include "serve/admission.h"

namespace codes {
namespace {

uint64_t CounterDelta(const MetricsSnapshot& snapshot, const char* name) {
  auto it = snapshot.counters.find(name);
  return it == snapshot.counters.end() ? 0 : it->second;
}

class FleetTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    bench_ = new Text2SqlBenchmark(BuildTinySpiderLike(2024));
    zoo_ = new LmZoo(1, 31);
    PipelineConfig config;
    config.size = ModelSize::k7B;
    pipeline_ = new CodesPipeline(config, zoo_->CodesFor(config.size));
    pipeline_->TrainClassifier(*bench_);
    pipeline_->FineTune(*bench_);
    // Tenant databases: the dev databases, in order of first appearance.
    for (const auto& sample : bench_->dev) {
      bool seen = false;
      for (int db : *dev_dbs_) seen = seen || db == sample.db_index;
      if (!seen) dev_dbs_->push_back(sample.db_index);
    }
    ASSERT_GE(dev_dbs_->size(), 2u);
  }
  static void TearDownTestSuite() {
    delete pipeline_;
    delete zoo_;
    delete bench_;
    pipeline_ = nullptr;
    zoo_ = nullptr;
    bench_ = nullptr;
    dev_dbs_->clear();
  }
  void SetUp() override { MetricsRegistry::Global().Reset(); }

  /// A two-tenant fleet over the first two dev databases, persistence in
  /// `dir` ("" disables), LRU under `budget` bytes (0 = unbounded).
  static std::unique_ptr<fleet::FleetManager> MakeFleet(
      const std::string& dir, size_t budget) {
    fleet::FleetManager::Options options;
    options.memory_budget_bytes = budget;
    options.snapshot_dir = dir;
    auto fleet = std::make_unique<fleet::FleetManager>(options);
    static const char* kNames[2] = {"rivers", "concerts"};
    for (int t = 0; t < 2; ++t) {
      fleet::FleetManager::TenantDesc desc;
      desc.name = kNames[t];
      desc.db = &bench_->databases[static_cast<size_t>((*dev_dbs_)[t])];
      fleet->AddTenant(std::move(desc));
    }
    return fleet;
  }

  /// Index of the tenant (0 or 1) owning `sample`'s database; -1 if it
  /// belongs to neither fleet tenant.
  static int TenantOf(const Text2SqlSample& sample) {
    for (int t = 0; t < 2; ++t) {
      if (sample.db_index == (*dev_dbs_)[t]) return t;
    }
    return -1;
  }

  static std::string TempDirFor(const char* name) {
    std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) / name;
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    return dir.string();
  }

  static Text2SqlBenchmark* bench_;
  static LmZoo* zoo_;
  static CodesPipeline* pipeline_;
  static std::vector<int>* dev_dbs_;
};
Text2SqlBenchmark* FleetTest::bench_ = nullptr;
LmZoo* FleetTest::zoo_ = nullptr;
CodesPipeline* FleetTest::pipeline_ = nullptr;
std::vector<int>* FleetTest::dev_dbs_ = new std::vector<int>();

// ------------------------------------------------- bounded retriever cache

// The ISSUE 9 bugfix regression: the per-database retriever cache must
// hold a bounded number of entries (and bytes) no matter how many
// distinct databases flow through it, and its memory must stay flat over
// a 100k-request question flood.
TEST_F(FleetTest, RetrieverCacheStaysBoundedUnderDistinctDatabaseFlood) {
  PipelineConfig config;
  config.size = ModelSize::k7B;
  config.retriever_cache_max_entries = 4;
  CodesPipeline pipeline(config, zoo_->CodesFor(config.size));

  // Flood phase: more distinct databases than the cache may hold, each
  // visited repeatedly. Before the cap, entries grew one per database
  // forever; now the count must stay bounded with evictions counted.
  size_t max_entries_seen = 0;
  size_t lookups = 0;
  for (int round = 0; round < 3; ++round) {
    for (const auto& db : bench_->databases) {
      ASSERT_NE(pipeline.RetrieverFor(db), nullptr);
      ++lookups;
      auto stats = pipeline.retriever_cache_stats();
      max_entries_seen = std::max(max_entries_seen, stats.entries);
    }
  }
  ASSERT_GT(bench_->databases.size(), 4u);
  EXPECT_LE(max_entries_seen, 4u);

  MetricsSnapshot flood = MetricsRegistry::Global().Snapshot();
  EXPECT_GT(CounterDelta(flood, "pipeline.retriever_cache.evictions"), 0u);
  EXPECT_EQ(CounterDelta(flood, "pipeline.retriever_cache.hits") +
                CounterDelta(flood, "pipeline.retriever_cache.misses"),
            lookups);

  // Flat phase: 100k requests alternating over two databases. Every
  // request after the warm-up is a cache hit; entries and bytes must not
  // move at all — the "flat memory over 100k distinct questions" claim,
  // with the cache keyed per database.
  const auto& db_a = bench_->databases[0];
  const auto& db_b = bench_->databases[1];
  ASSERT_NE(pipeline.RetrieverFor(db_a), nullptr);
  ASSERT_NE(pipeline.RetrieverFor(db_b), nullptr);
  auto before = pipeline.retriever_cache_stats();
  uint64_t hits_before = CounterDelta(MetricsRegistry::Global().Snapshot(),
                                      "pipeline.retriever_cache.hits");
  for (int i = 0; i < 100'000; ++i) {
    const auto& db = (i & 1) ? db_b : db_a;
    ASSERT_NE(pipeline.RetrieverFor(db), nullptr);
  }
  auto after = pipeline.retriever_cache_stats();
  EXPECT_EQ(after.entries, before.entries);
  EXPECT_EQ(after.bytes, before.bytes) << "cache memory grew under flood";
  EXPECT_LE(after.entries, 4u);
  uint64_t hits_after = CounterDelta(MetricsRegistry::Global().Snapshot(),
                                     "pipeline.retriever_cache.hits");
  EXPECT_EQ(hits_after - hits_before, 100'000u);
}

TEST_F(FleetTest, RetrieverCacheByteBudgetEvictsDownToOne) {
  PipelineConfig config;
  config.size = ModelSize::k7B;
  config.retriever_cache_max_bytes = 1;  // any real entry is over budget
  CodesPipeline pipeline(config, zoo_->CodesFor(config.size));

  auto first = pipeline.RetrieverFor(bench_->databases[0]);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(pipeline.retriever_cache_stats().entries, 1u);

  // The newest entry is exempt from its own eviction pass, so the cache
  // keeps exactly one entry alive; the lease handed out above stays
  // valid after its entry is evicted.
  auto second = pipeline.RetrieverFor(bench_->databases[1]);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(pipeline.retriever_cache_stats().entries, 1u);
  EXPECT_GT(first->NumIndexedValues(), 0u);

  MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(CounterDelta(snapshot, "pipeline.retriever_cache.evictions"),
            1u);
}

// ------------------------------------------------------------ fleet manager

TEST_F(FleetTest, AttachBuildsOnceAndSnapshotReloadsByteIdentically) {
  std::string dir = TempDirFor("fleet_roundtrip");
  const Text2SqlSample* sample = nullptr;
  for (const auto& s : bench_->dev) {
    if (TenantOf(s) == 0) sample = &s;
  }
  ASSERT_NE(sample, nullptr);

  std::string built_sql;
  size_t built_bytes = 0;
  std::string snapshot_path;
  {
    auto fleet = MakeFleet(dir, 0);
    auto artifacts = fleet->Attach(0);
    ASSERT_NE(artifacts, nullptr);
    ASSERT_NE(artifacts->retriever, nullptr);
    EXPECT_GT(artifacts->bytes, 0u);
    built_bytes = artifacts->bytes;
    snapshot_path = fleet->SnapshotPath(0);

    // Resident re-attach is free: same bundle, no second build.
    EXPECT_EQ(fleet->Attach(0).get(), artifacts.get());
    MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
    EXPECT_EQ(CounterDelta(snapshot, "fleet.attach.build"), 1u);
    EXPECT_EQ(CounterDelta(snapshot, "fleet.attach.snapshot"), 0u);
    EXPECT_TRUE(std::filesystem::exists(snapshot_path));

    ServeOptions options;
    options.value_retriever = artifacts->retriever.get();
    built_sql = pipeline_->PredictGuarded(*bench_, *sample, options);
    ASSERT_FALSE(built_sql.empty());
  }

  // A fresh manager over the same snapshot directory must reload the
  // bundle from disk (no build) and predict byte-identically.
  MetricsRegistry::Global().Reset();
  {
    auto fleet = MakeFleet(dir, 0);
    auto artifacts = fleet->Attach(0);
    ASSERT_NE(artifacts, nullptr);
    EXPECT_EQ(artifacts->bytes, built_bytes);
    MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
    EXPECT_EQ(CounterDelta(snapshot, "fleet.attach.build"), 0u);
    EXPECT_EQ(CounterDelta(snapshot, "fleet.attach.snapshot"), 1u);

    ServeOptions options;
    options.value_retriever = artifacts->retriever.get();
    EXPECT_EQ(pipeline_->PredictGuarded(*bench_, *sample, options),
              built_sql);
  }

  // A corrupted snapshot is a cache miss, not an error: attach falls
  // back to the source build and still serves the same predictions.
  {
    std::fstream file(snapshot_path,
                      std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.good());
    file.seekp(24);
    char garbage = '\x5a';
    file.write(&garbage, 1);
  }
  MetricsRegistry::Global().Reset();
  {
    auto fleet = MakeFleet(dir, 0);
    auto artifacts = fleet->Attach(0);
    ASSERT_NE(artifacts, nullptr);
    MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
    EXPECT_EQ(CounterDelta(snapshot, "fleet.attach.build"), 1u)
        << "corrupted snapshot should fall back to a source build";

    ServeOptions options;
    options.value_retriever = artifacts->retriever.get();
    EXPECT_EQ(pipeline_->PredictGuarded(*bench_, *sample, options),
              built_sql);
  }
}

// A snapshot in the version-1 layout (magic, version 1, has-retriever
// flag, value index, no classifier, empty demonstration pool) is a cache
// miss: attach rebuilds from source and rewrites the file as version 2.
TEST_F(FleetTest, VersionOneSnapshotIsRebuiltNotLoaded) {
  std::string dir = TempDirFor("fleet_v1");
  std::string path;
  std::string v1;
  {
    auto fleet = MakeFleet(dir, 0);
    auto artifacts = fleet->Attach(0);
    ASSERT_NE(artifacts, nullptr);
    path = fleet->SnapshotPath(0);
    serial::PutMagic(&v1, 0x544E4E54, 1);
    serial::PutU32(&v1, 1);
    artifacts->retriever->SaveTo(&v1);
    serial::PutU32(&v1, 0);
    serial::PutU64(&v1, 0);
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(v1.data(), static_cast<std::streamsize>(v1.size()));
    ASSERT_TRUE(out.good());
  }

  MetricsRegistry::Global().Reset();
  {
    auto fleet = MakeFleet(dir, 0);
    ASSERT_NE(fleet->Attach(0), nullptr);
    MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
    EXPECT_EQ(CounterDelta(snapshot, "fleet.attach.build"), 1u);
    EXPECT_EQ(CounterDelta(snapshot, "fleet.attach.snapshot"), 0u);
  }

  // The rebuild replaced the old file; the next fleet loads it.
  MetricsRegistry::Global().Reset();
  {
    auto fleet = MakeFleet(dir, 0);
    ASSERT_NE(fleet->Attach(0), nullptr);
    MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
    EXPECT_EQ(CounterDelta(snapshot, "fleet.attach.build"), 0u);
    EXPECT_EQ(CounterDelta(snapshot, "fleet.attach.snapshot"), 1u);
  }
}

TEST_F(FleetTest, WarmAllPersistsEverythingThenEvicts) {
  std::string dir = TempDirFor("fleet_warm");
  auto fleet = MakeFleet(dir, 0);
  fleet->WarmAll();
  EXPECT_EQ(fleet->NumResident(), 0u);
  EXPECT_EQ(fleet->ResidentBytes(), 0u);
  EXPECT_GT(fleet->PeakResidentBytes(), 0u);
  for (int t = 0; t < fleet->NumTenants(); ++t) {
    EXPECT_TRUE(std::filesystem::exists(fleet->SnapshotPath(t)))
        << fleet->TenantName(t);
  }

  // Every post-warm attach is a snapshot load: the expensive build ran
  // exactly once, in WarmAll.
  MetricsRegistry::Global().Reset();
  for (int t = 0; t < fleet->NumTenants(); ++t) {
    EXPECT_NE(fleet->Attach(t), nullptr);
  }
  MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(CounterDelta(snapshot, "fleet.attach.build"), 0u);
  EXPECT_EQ(CounterDelta(snapshot, "fleet.attach.snapshot"),
            static_cast<uint64_t>(fleet->NumTenants()));
}

TEST_F(FleetTest, MemoryBudgetEvictsLruAndKeepsNewest) {
  // A budget of one byte can hold no bundle: every attach evicts the
  // previous tenant, but the newest bundle always stays resident (a
  // fleet that can hold nothing serves nothing).
  auto fleet = MakeFleet("", 1);
  auto first = fleet->Attach(0);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(fleet->NumResident(), 1u);

  auto second = fleet->Attach(1);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(fleet->NumResident(), 1u);

  // The evicted lease stays fully usable — eviction drops the fleet's
  // reference, never the artifacts under an in-flight request.
  ASSERT_NE(first->retriever, nullptr);
  EXPECT_GT(first->retriever->NumIndexedValues(), 0u);

  MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(CounterDelta(snapshot, "fleet.evict"), 1u);
  EXPECT_EQ(fleet->Attach(-1), nullptr);
  EXPECT_EQ(fleet->Attach(99), nullptr);
}

TEST_F(FleetTest, EvictThenReattachPredictsByteIdenticallyAt1And8Threads) {
  std::string dir = TempDirFor("fleet_determinism");

  // The samples owned by the two fleet tenants, in dev order.
  std::vector<const Text2SqlSample*> samples;
  for (const auto& s : bench_->dev) {
    if (TenantOf(s) >= 0) samples.push_back(&s);
  }
  ASSERT_GE(samples.size(), 4u);

  // Reference: a fleet that never evicts (no budget) — every sample
  // predicted with its tenant's resident bundle.
  std::vector<std::string> reference(samples.size());
  {
    auto fleet = MakeFleet(dir, 0);
    for (size_t i = 0; i < samples.size(); ++i) {
      auto artifacts = fleet->Attach(TenantOf(*samples[i]));
      ASSERT_NE(artifacts, nullptr);
      ServeOptions options;
      options.value_retriever = artifacts->retriever.get();
      reference[i] =
          pipeline_->PredictGuarded(*bench_, *samples[i], options);
      ASSERT_FALSE(reference[i].empty());
    }
  }

  // Thrash: a one-byte budget evicts on every tenant switch, so most
  // attaches are evict-then-reattach snapshot reloads. Predictions must
  // not change — eviction is a memory decision, never a quality one.
  {
    auto fleet = MakeFleet(dir, 1);
    for (size_t i = 0; i < samples.size(); ++i) {
      auto artifacts = fleet->Attach(TenantOf(*samples[i]));
      ASSERT_NE(artifacts, nullptr);
      ServeOptions options;
      options.value_retriever = artifacts->retriever.get();
      EXPECT_EQ(pipeline_->PredictGuarded(*bench_, *samples[i], options),
                reference[i])
          << "sample " << i << " diverged after evict-then-reattach";
    }
    MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
    EXPECT_GT(CounterDelta(snapshot, "fleet.evict"), 0u);
  }

  // Same thrashing fleet hammered from 8 real threads: attach is
  // serialized inside the fleet, leases are immutable, and every
  // prediction must still land byte-identical to the serial reference.
  {
    auto fleet = MakeFleet(dir, 1);
    std::vector<std::string> threaded(samples.size());
    std::vector<std::future<void>> done;
    ThreadPool pool(8);
    for (size_t i = 0; i < samples.size(); ++i) {
      auto promise = std::make_shared<std::promise<void>>();
      done.push_back(promise->get_future());
      pool.Submit([&, i, promise] {
        auto artifacts = fleet->Attach(TenantOf(*samples[i]));
        ServeOptions options;
        options.value_retriever =
            artifacts == nullptr ? nullptr : artifacts->retriever.get();
        threaded[i] =
            pipeline_->PredictGuarded(*bench_, *samples[i], options);
        promise->set_value();
      });
    }
    for (auto& f : done) f.wait();
    for (size_t i = 0; i < samples.size(); ++i) {
      EXPECT_EQ(threaded[i], reference[i]) << "sample " << i;
    }
  }
}

TEST_F(FleetTest, AdmissionSpecsAndNamesLineUpWithTenantIds) {
  auto fleet = MakeFleet("", 0);
  auto specs = fleet->AdmissionSpecs();
  auto names = fleet->TenantNames();
  ASSERT_EQ(specs.size(), 2u);
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], fleet->TenantName(0));
  EXPECT_EQ(names[1], fleet->TenantName(1));
  EXPECT_DOUBLE_EQ(specs[0].weight, 1.0);
  EXPECT_DOUBLE_EQ(specs[0].burst, 8.0);
  EXPECT_EQ(fleet->SnapshotPath(0), "") << "persistence disabled";
}

}  // namespace
}  // namespace codes
