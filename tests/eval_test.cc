#include <gtest/gtest.h>

#include <atomic>

#include "common/string_util.h"
#include "dataset/benchmark_builder.h"
#include "eval/metrics.h"
#include "sqlengine/executor.h"

namespace codes {
namespace {

class EvalTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    bench_ = new Text2SqlBenchmark(BuildTinySpiderLike(111));
  }
  static void TearDownTestSuite() { delete bench_; }
  static Text2SqlBenchmark* bench_;
};
Text2SqlBenchmark* EvalTest::bench_ = nullptr;

TEST_F(EvalTest, GoldPredictorScoresHundred) {
  EvalOptions options;
  options.compute_ts = true;
  options.ts_instances = 2;
  auto m = EvaluateDevSet(
      *bench_, [](const Text2SqlSample& s) { return s.sql; }, options);
  EXPECT_DOUBLE_EQ(m.ex, 100.0);
  EXPECT_DOUBLE_EQ(m.ts, 100.0);
  EXPECT_EQ(m.n, static_cast<int>(bench_->dev.size()));
}

TEST_F(EvalTest, GarbagePredictorScoresZero) {
  EvalOptions options;
  auto m = EvaluateDevSet(
      *bench_, [](const Text2SqlSample&) { return std::string("not sql"); },
      options);
  EXPECT_DOUBLE_EQ(m.ex, 0.0);
}

TEST_F(EvalTest, SemanticallyEquivalentSqlPasses) {
  // OR over two equalities == IN list.
  const auto& db = bench_->databases[0];
  const auto& schema = db.schema();
  // Find a text column with at least two distinct values.
  for (size_t t = 0; t < schema.tables.size(); ++t) {
    for (size_t c = 0; c < schema.tables[t].columns.size(); ++c) {
      if (schema.tables[t].columns[c].type != sql::DataType::kText) continue;
      auto values =
          db.DistinctValues(static_cast<int>(t), static_cast<int>(c), 2);
      if (values.size() < 2) continue;
      std::string col = schema.tables[t].columns[c].name;
      std::string tab = schema.tables[t].name;
      std::string v1 = values[0].ToSqlLiteral();
      std::string v2 = values[1].ToSqlLiteral();
      std::string gold = "SELECT " + col + " FROM " + tab + " WHERE " + col +
                         " IN (" + v1 + ", " + v2 + ")";
      std::string pred = "SELECT " + col + " FROM " + tab + " WHERE " + col +
                         " = " + v1 + " OR " + col + " = " + v2;
      EXPECT_TRUE(ExecutionMatch(db, pred, gold));
      return;
    }
  }
  FAIL() << "no suitable column found";
}

TEST_F(EvalTest, OrderSensitivityFollowsGold) {
  const auto& db = bench_->databases[0];
  const auto& table = db.schema().tables[0];
  std::string tab = table.name;
  std::string pk = table.columns[0].name;
  // Unordered gold: any order matches.
  EXPECT_TRUE(ExecutionMatch(db, "SELECT " + pk + " FROM " + tab,
                             "SELECT " + pk + " FROM " + tab));
  // Ordered gold vs reversed prediction: must fail (unless trivially tiny).
  if (db.TableAt(0).rows.size() > 2) {
    EXPECT_FALSE(ExecutionMatch(
        db, "SELECT " + pk + " FROM " + tab + " ORDER BY " + pk + " DESC",
        "SELECT " + pk + " FROM " + tab + " ORDER BY " + pk + " ASC"));
  }
}

TEST_F(EvalTest, TsIsStricterThanEx) {
  // A predicate on a value that exists only in the original instance can
  // pass EX but fail TS. Use a wrong-but-coincidental query: gold COUNT
  // over an empty filter vs predicted COUNT over a different empty filter
  // can tie on one instance and differ on regenerated data. Instead verify
  // the weaker structural property: TS <= EX for a noisy predictor.
  EvalOptions options;
  options.compute_ts = true;
  options.ts_instances = 3;
  // Atomic: EvaluateDevSet calls the predictor from several threads.
  std::atomic<int> flip{0};
  auto m = EvaluateDevSet(
      *bench_,
      [&flip](const Text2SqlSample& s) {
        // Every third prediction is garbage.
        return (flip.fetch_add(1) % 3 == 2) ? std::string("SELECT") : s.sql;
      },
      options);
  EXPECT_LE(m.ts, m.ex);
  EXPECT_LT(m.ex, 100.0);
}

TEST_F(EvalTest, VesNearHundredForGold) {
  EvalOptions options;
  options.compute_ves = true;
  options.max_samples = 10;
  auto m = EvaluateDevSet(
      *bench_, [](const Text2SqlSample& s) { return s.sql; }, options);
  EXPECT_GT(m.ves, 60.0);
  EXPECT_LT(m.ves, 160.0);
}

TEST_F(EvalTest, MaxSamplesCapsEvaluation) {
  EvalOptions options;
  options.max_samples = 3;
  auto m = EvaluateDevSet(
      *bench_, [](const Text2SqlSample& s) { return s.sql; }, options);
  EXPECT_EQ(m.n, 3);
}

TEST_F(EvalTest, LenientMatchAcceptsExtraColumns) {
  const auto& db = bench_->databases[0];
  const auto& table = db.schema().tables[0];
  std::string tab = table.name;
  ASSERT_GE(table.columns.size(), 3u);
  std::string c1 = table.columns[1].name;
  std::string c2 = table.columns[2].name;
  std::string gold = "SELECT " + c1 + " FROM " + tab;
  std::string pred = "SELECT " + c2 + ", " + c1 + " FROM " + tab;
  EXPECT_FALSE(ExecutionMatch(db, pred, gold));
  EXPECT_TRUE(LenientExecutionMatch(db, pred, gold));
  // But a prediction missing the requested data still fails.
  std::string wrong = "SELECT " + c2 + " FROM " + tab + " LIMIT 1";
  EXPECT_FALSE(LenientExecutionMatch(db, wrong, gold));
}

}  // namespace
}  // namespace codes
