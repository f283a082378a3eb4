// Regression tests for the metamorphic SQL-engine fuzzing subsystem.
//
// The seed corpus under tests/fuzz_corpus/ holds one reproducer line per
// engine bug the fuzzer has caught; every entry must replay clean against
// the fixed engine forever. The campaign tests pin the harness's own
// guarantees: determinism across thread counts and a clean small campaign.

#include <fstream>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "fuzz/fuzz_harness.h"
#include "fuzz/oracle.h"
#include "fuzz/query_gen.h"
#include "sqlengine/parser.h"

namespace codes::fuzz {
namespace {

std::string CorpusPath(const std::string& file) {
  return std::string(CODES_FUZZ_CORPUS_DIR) + "/" + file;
}

TEST(FuzzCorpusTest, EngineBugCorpusReplaysClean) {
  auto entries = LoadCorpusFile(CorpusPath("engine_bugs.corpus"));
  ASSERT_TRUE(entries.ok()) << entries.status().ToString();
  ASSERT_FALSE(entries->empty());

  int max_db = 0;
  for (const auto& entry : *entries) max_db = std::max(max_db, entry.db_index);
  auto dbs = BuildFuzzDatabases(max_db + 1);

  for (const auto& entry : *entries) {
    auto violations = ReplayCorpusEntry(dbs, entry);
    ASSERT_TRUE(violations.ok())
        << "line " << entry.line << ": " << violations.status().ToString();
    for (const auto& v : *violations) {
      ADD_FAILURE() << "line " << entry.line << " [" << entry.sql << "] "
                    << OracleName(v.oracle) << ": " << v.detail;
    }
  }
}

TEST(FuzzCorpusTest, StorageDiffCorpusReplaysClean) {
  // Each entry replays against the in-memory engine AND a freshly built
  // disk-backed StorageDb twin (ReplayCorpusEntry wires the storagediff
  // oracle automatically), pinning backend equivalence on the curated
  // index-scan/seq-scan workloads.
  auto entries = LoadCorpusFile(CorpusPath("storage_diff.corpus"));
  ASSERT_TRUE(entries.ok()) << entries.status().ToString();
  ASSERT_FALSE(entries->empty());

  int max_db = 0;
  for (const auto& entry : *entries) max_db = std::max(max_db, entry.db_index);
  auto dbs = BuildFuzzDatabases(max_db + 1);

  std::set<std::string> oracles;
  for (const auto& entry : *entries) {
    oracles.insert(entry.oracle);
    auto violations = ReplayCorpusEntry(dbs, entry);
    ASSERT_TRUE(violations.ok())
        << "line " << entry.line << ": " << violations.status().ToString();
    for (const auto& v : *violations) {
      ADD_FAILURE() << "line " << entry.line << " [" << entry.sql << "] "
                    << OracleName(v.oracle) << ": " << v.detail;
    }
  }
  EXPECT_TRUE(oracles.count("storagediff"));
}

TEST(FuzzCorpusTest, CorpusCoversEveryFixedBugOracle) {
  // The corpus must keep exercising each oracle family that has caught a
  // real bug, so an accidental truncation of the file is loud.
  auto entries = LoadCorpusFile(CorpusPath("engine_bugs.corpus"));
  ASSERT_TRUE(entries.ok());
  std::set<std::string> oracles;
  for (const auto& entry : *entries) oracles.insert(entry.oracle);
  EXPECT_TRUE(oracles.count("rerun"));
  EXPECT_TRUE(oracles.count("roundtrip"));
  EXPECT_TRUE(oracles.count("exec"));
  EXPECT_TRUE(oracles.count("tlp"));
}

TEST(FuzzCorpusTest, LoadRejectsMalformedLines) {
  std::string path = ::testing::TempDir() + "/bad.corpus";
  std::ofstream out(path);
  out << "db=0 seed=1 oracle=exec\n";  // missing sql=
  out.close();
  auto entries = LoadCorpusFile(path);
  EXPECT_FALSE(entries.ok());
}

TEST(FuzzCorpusTest, ReplayFailsOnOutOfRangeDatabase) {
  auto dbs = BuildFuzzDatabases(1);
  CorpusEntry entry;
  entry.db_index = 5;
  entry.sql = "SELECT 1 FROM singer AS T1";
  auto violations = ReplayCorpusEntry(dbs, entry);
  EXPECT_FALSE(violations.ok());
}

TEST(FuzzCampaignTest, SmallCampaignIsClean) {
  FuzzConfig config;
  config.base_seed = 20240805;
  config.num_queries = 300;
  FuzzReport report = RunFuzzCampaign(config, nullptr);
  EXPECT_EQ(report.queries, 300u);
  for (const auto& f : report.failures) {
    ADD_FAILURE() << f.ReproLine() << "\n  detail: " << f.detail;
  }
}

TEST(FuzzCampaignTest, FixedCampaignReportMatchesPin) {
  // The full report of a fixed small campaign, recorded before the
  // executor stopped copying source rows: every oracle (TLP, NoREC,
  // round trip, rerun, storagediff) over 400 generated queries.
  FuzzConfig config;
  config.base_seed = 7;
  config.num_queries = 400;
  FuzzReport report = RunFuzzCampaign(config, nullptr);
  EXPECT_EQ(report.Summary(), "fuzz campaign: 400 queries, 0 violation(s)\n");
  for (const auto& f : report.failures) {
    ADD_FAILURE() << f.ReproLine() << "\n  detail: " << f.detail;
  }
}

TEST(FuzzCampaignTest, ReportIdenticalAcrossThreadCounts) {
  FuzzConfig config;
  config.base_seed = 99;
  config.num_queries = 200;

  FuzzReport serial = RunFuzzCampaign(config, nullptr);
  ThreadPool pool(4);
  FuzzReport threaded = RunFuzzCampaign(config, &pool);

  EXPECT_EQ(serial.Summary(), threaded.Summary());
  ASSERT_EQ(serial.failures.size(), threaded.failures.size());
  for (size_t i = 0; i < serial.failures.size(); ++i) {
    EXPECT_EQ(serial.failures[i].ReproLine(), threaded.failures[i].ReproLine());
  }
}

TEST(FuzzCampaignTest, GeneratorIsDeterministicPerSeed) {
  auto dbs = BuildFuzzDatabases(2);
  QueryGenerator gen(dbs[0]);
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng a(seed), b(seed);
    auto first = gen.Generate(a);
    auto second = gen.Generate(b);
    EXPECT_EQ(first->ToSql(), second->ToSql()) << "seed " << seed;
  }
}

TEST(FuzzCampaignTest, GeneratedQueriesReparse) {
  // Everything the generator emits must be within the parser's dialect —
  // the generator-support policy (DESIGN.md) hinges on this invariant.
  auto dbs = BuildFuzzDatabases(4);
  for (size_t d = 0; d < dbs.size(); ++d) {
    QueryGenerator gen(dbs[d]);
    for (uint64_t seed = 1; seed <= 50; ++seed) {
      Rng rng(seed * 31 + d);
      auto stmt = gen.Generate(rng);
      std::string sql = stmt->ToSql();
      auto reparsed = sql::ParseSql(sql);
      ASSERT_TRUE(reparsed.ok()) << sql << "\n" << reparsed.status().ToString();
      EXPECT_EQ((*reparsed)->ToSql(), sql);
    }
  }
}

TEST(FuzzOracleTest, RunOraclesLeavesItsInputUnchanged) {
  // The oracles run on a bound copy, so a reproducer built from the input
  // still carries the positional, alias and '*' references the generator
  // wrote.
  auto dbs = BuildFuzzDatabases(1);
  const sql::Database& db = dbs[0];
  QueryGenerator gen(db);
  const sql::TableDef& table = db.schema().tables[0];
  ASSERT_GE(table.columns.size(), 2u);
  const std::string c0 = "T1." + table.columns[0].name;
  const std::string c1 = "T1." + table.columns[1].name;
  std::vector<std::string> sqls = {
      "SELECT " + c0 + ", " + c1 + " AS k_alias FROM " + table.name +
          " AS T1 ORDER BY 2 ASC, k_alias DESC",
      "SELECT * FROM " + table.name + " AS T1 ORDER BY 1 ASC",
  };
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    sqls.push_back(gen.Generate(rng)->ToSql());
  }
  for (const auto& sql : sqls) {
    auto stmt = sql::ParseSql(sql);
    ASSERT_TRUE(stmt.ok()) << sql;
    ASSERT_EQ((*stmt)->ToSql(), sql);
    for (const auto& v : RunOracles(db, gen, **stmt, /*oracle_seed=*/7)) {
      ADD_FAILURE() << OracleName(v.oracle) << ": " << v.detail << "\n  "
                    << sql;
    }
    EXPECT_EQ((*stmt)->ToSql(), sql);
  }
}

TEST(FuzzReportTest, ReproLinePrefersShrunkSql)  {
  FuzzFailure f;
  f.db_index = 3;
  f.seed = 42;
  f.oracle = OracleId::kTlp;
  f.sql = "SELECT a, b FROM t AS T1 WHERE x ORDER BY a";
  EXPECT_EQ(f.ReproLine(),
            "db=3 seed=42 oracle=tlp sql=" + f.sql);
  f.shrunk_sql = "SELECT a FROM t AS T1 WHERE x";
  EXPECT_EQ(f.ReproLine(),
            "db=3 seed=42 oracle=tlp sql=" + f.shrunk_sql);
}

}  // namespace
}  // namespace codes::fuzz
