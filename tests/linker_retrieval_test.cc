#include <gtest/gtest.h>

#include "common/exec_guard.h"
#include "common/flat_hash.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "dataset/benchmark_builder.h"
#include "dataset/domains.h"
#include "linker/schema_classifier.h"
#include "retrieval/demonstration_retriever.h"
#include "retrieval/value_retriever.h"
#include "text/similarity.h"

namespace codes {
namespace {

// -------------------------------------------------------------------- AUC

TEST(AucTest, PerfectSeparation) {
  EXPECT_DOUBLE_EQ(ComputeAuc({0.1, 0.2, 0.8, 0.9}, {0, 0, 1, 1}), 1.0);
}

TEST(AucTest, Inverted) {
  EXPECT_DOUBLE_EQ(ComputeAuc({0.9, 0.8, 0.2, 0.1}, {0, 0, 1, 1}), 0.0);
}

TEST(AucTest, TiesGiveHalfCredit) {
  EXPECT_DOUBLE_EQ(ComputeAuc({0.5, 0.5}, {0, 1}), 0.5);
}

TEST(AucTest, DegenerateClassesReturnHalf) {
  EXPECT_DOUBLE_EQ(ComputeAuc({0.1, 0.9}, {1, 1}), 0.5);
}

// ------------------------------------------------------------- classifier

class ClassifierTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    bench_ = new Text2SqlBenchmark(BuildTinySpiderLike(77));
    classifier_ = new SchemaItemClassifier();
    SchemaItemClassifier::TrainOptions options;
    options.epochs = 4;
    classifier_->Train(*bench_, options);
  }
  static void TearDownTestSuite() {
    delete classifier_;
    delete bench_;
  }
  static Text2SqlBenchmark* bench_;
  static SchemaItemClassifier* classifier_;
};
Text2SqlBenchmark* ClassifierTest::bench_ = nullptr;
SchemaItemClassifier* ClassifierTest::classifier_ = nullptr;

TEST_F(ClassifierTest, AucAboveChance) {
  auto [table_auc, column_auc] =
      EvaluateClassifierAuc(*classifier_, *bench_, false);
  EXPECT_GT(table_auc, 0.8);
  EXPECT_GT(column_auc, 0.85);
}

TEST_F(ClassifierTest, ScoresAreProbabilities) {
  const auto& s = bench_->dev[0];
  const auto& db = bench_->DbOf(s);
  for (size_t t = 0; t < db.schema().tables.size(); ++t) {
    for (size_t c = 0; c < db.schema().tables[t].columns.size(); ++c) {
      double score = classifier_->ScoreColumn(s.question, db,
                                              static_cast<int>(t),
                                              static_cast<int>(c));
      EXPECT_GE(score, 0.0);
      EXPECT_LE(score, 1.0);
    }
  }
}

TEST_F(ClassifierTest, MentionedColumnOutscoresRandom) {
  // For dev samples, gold columns should on average outscore non-gold.
  double gold_sum = 0, other_sum = 0;
  int gold_n = 0, other_n = 0;
  for (size_t i = 0; i < 10 && i < bench_->dev.size(); ++i) {
    const auto& s = bench_->dev[i];
    const auto& db = bench_->DbOf(s);
    for (size_t t = 0; t < db.schema().tables.size(); ++t) {
      for (size_t c = 0; c < db.schema().tables[t].columns.size(); ++c) {
        bool is_gold = false;
        for (const auto& item : s.used_items) {
          if (item.table == static_cast<int>(t) &&
              item.column == static_cast<int>(c)) {
            is_gold = true;
          }
        }
        double score = classifier_->ScoreColumn(
            s.question, db, static_cast<int>(t), static_cast<int>(c));
        if (is_gold) {
          gold_sum += score;
          ++gold_n;
        } else {
          other_sum += score;
          ++other_n;
        }
      }
    }
  }
  ASSERT_GT(gold_n, 0);
  ASSERT_GT(other_n, 0);
  EXPECT_GT(gold_sum / gold_n, other_sum / other_n);
}

TEST(InitialsMatchTest, MatchesAbbreviatedPhrases) {
  EXPECT_TRUE(InitialsMatch("npgr", {"net", "profit", "growth", "rate"}));
  EXPECT_TRUE(
      InitialsMatch("rotl", {"the", "road", "overtime", "total", "losses"}));
  EXPECT_FALSE(InitialsMatch("npgr", {"net", "loss", "growth", "rate"}));
  EXPECT_FALSE(InitialsMatch("x", {"x", "y"}));  // too short
}

// ---------------------------------------------------------- value retriever

TEST(ValueRetrieverTest, CoarseToFineFindsQuestionValue) {
  auto bench = BuildTinySpiderLike(5);
  const auto& db = bench.databases[0];
  ValueRetriever retriever;
  retriever.BuildIndex(db);
  ASSERT_GT(retriever.NumIndexedValues(), 0u);
  // Take a real value from the database and embed it in a question.
  std::string value;
  db.ForEachTextValue([&value](int, int, int, const std::string& text) {
    if (value.empty() && text.size() >= 6) value = text;
  });
  ASSERT_FALSE(value.empty());
  auto hits = retriever.Retrieve("how many rows mention '" + value + "'?");
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(codes::ToLower(hits[0].text), codes::ToLower(value));
  EXPECT_GE(hits[0].score, 0.9);
}

TEST(ValueRetrieverTest, BruteForceAgreesWithCoarseToFineOnTop1) {
  auto bench = BuildTinySpiderLike(6);
  const auto& db = bench.databases[0];
  ValueRetriever retriever;
  retriever.BuildIndex(db);
  std::string value;
  db.ForEachTextValue([&value](int, int, int, const std::string& text) {
    if (value.empty() && text.size() >= 6) value = text;
  });
  std::string question = "show the rows with " + value;
  auto fast = retriever.Retrieve(question, 200, 3);
  auto slow = retriever.RetrieveBruteForce(question, 3);
  ASSERT_FALSE(fast.empty());
  ASSERT_FALSE(slow.empty());
  EXPECT_EQ(fast[0].text, slow[0].text);
}

TEST(ValueRetrieverTest, ShortValuesRequireWholeWordMatch) {
  sql::DatabaseSchema schema;
  schema.name = "tiny";
  sql::TableDef t;
  t.name = "t";
  t.columns = {{"id", sql::DataType::kInteger, "", true},
               {"g", sql::DataType::kText, "", false}};
  schema.tables.push_back(t);
  sql::Database db(std::move(schema));
  ASSERT_TRUE(db.Insert("t", {sql::Value(int64_t{1}), sql::Value("east")}).ok());
  ValueRetriever retriever;
  retriever.BuildIndex(db);
  // "east" is a substring of "at least" but not a word of the question.
  auto miss = retriever.Retrieve("values at least 5");
  bool found = false;
  for (const auto& hit : miss) {
    if (hit.text == "east" && hit.score >= 0.85) found = true;
  }
  EXPECT_FALSE(found);
  auto hit = retriever.Retrieve("rows in the east region");
  ASSERT_FALSE(hit.empty());
  EXPECT_EQ(hit[0].text, "east");
}

TEST(ValueRetrieverTest, Utf8ValuesSurviveIndexingAndReranking) {
  // Regression: the LCS re-ranker lowercases question and value before
  // matching. A locale-aware byte-wise tolower corrupts multi-byte UTF-8,
  // so accented and CJK values either missed or came back mangled. The
  // folding is now ASCII-only and values must round-trip byte-exact.
  sql::DatabaseSchema schema;
  schema.name = "intl";
  sql::TableDef t;
  t.name = "places";
  t.columns = {{"id", sql::DataType::kInteger, "", true},
               {"name", sql::DataType::kText, "", false}};
  schema.tables.push_back(t);
  sql::Database db(std::move(schema));
  const std::string accented = "Caf\xC3\xA9 Mayor";         // Café Mayor
  const std::string cjk = "\xE5\x8C\x97\xE4\xBA\xAC\xE5\xB8\x82";  // 北京市
  ASSERT_TRUE(
      db.Insert("places", {sql::Value(int64_t{1}), sql::Value(accented)}).ok());
  ASSERT_TRUE(
      db.Insert("places", {sql::Value(int64_t{2}), sql::Value(cjk)}).ok());
  ASSERT_TRUE(db.Insert("places", {sql::Value(int64_t{3}),
                                   sql::Value("Plain Diner")})
                  .ok());
  ValueRetriever retriever;
  retriever.BuildIndex(db);

  auto accented_hits =
      retriever.Retrieve("how many people visit caf\xC3\xA9 mayor?");
  ASSERT_FALSE(accented_hits.empty());
  EXPECT_EQ(accented_hits[0].text, accented);  // byte-exact, original case
  EXPECT_GE(accented_hits[0].score, 0.9);

  auto cjk_hits = retriever.Retrieve("list stations in " + cjk);
  ASSERT_FALSE(cjk_hits.empty());
  EXPECT_EQ(cjk_hits[0].text, cjk);
  EXPECT_GE(cjk_hits[0].score, 0.9);
}

// Golden pin for the cold value-index build: FNV-1a over every database's
// SaveTo bytes in order, and the summed ApproxBytes (what the fleet
// charges against its budget). Both were recorded before the build
// stopped allocating per value; a mismatch means the index changed, not
// just the speed of building it.
std::vector<sql::Database> PinnedIndexDatabases() {
  std::vector<sql::Database> dbs;
  for (auto bench : {BuildSpiderLike(), BuildBirdLike()}) {
    for (auto& db : bench.databases) dbs.push_back(std::move(db));
  }
  // fleet_churn-style tenants: every table at 300 rows.
  DbProfile tenant = DbProfile::Spider();
  tenant.min_rows = 300;
  tenant.max_rows = 300;
  Rng rng(301);
  for (const DomainSpec& domain : AllDomains()) {
    dbs.push_back(GenerateDatabase(domain, tenant, rng));
  }
  return dbs;
}

TEST(ValueRetrieverTest, GoldenIndexBytesMatchSeriallyAndFromEightThreads) {
  const std::vector<sql::Database> dbs = PinnedIndexDatabases();
  ASSERT_GT(dbs.size(), 40u);
  auto build = [&dbs](size_t i, std::string* snapshot, size_t* bytes) {
    ValueRetriever retriever;
    ASSERT_TRUE(retriever.TryBuildIndex(dbs[i]).ok());
    retriever.SaveTo(snapshot);
    *bytes = retriever.ApproxBytes();
  };

  std::vector<std::string> serial(dbs.size());
  std::vector<size_t> serial_bytes(dbs.size());
  Fnv1aDigest digest;
  size_t total_bytes = 0;
  for (size_t i = 0; i < dbs.size(); ++i) {
    build(i, &serial[i], &serial_bytes[i]);
    digest.Add(serial[i]);
    total_bytes += serial_bytes[i];
  }
  EXPECT_EQ(digest.value, 0x32baa7fb77ba0204ULL);
  EXPECT_EQ(total_bytes, 20513095u);

  // Eight workers build at once: the per-thread analyzer scratch must not
  // leak between concurrent builds (the CI TSan leg runs this).
  std::vector<std::string> parallel(dbs.size());
  std::vector<size_t> parallel_bytes(dbs.size());
  {
    ThreadPool pool(8);
    for (size_t i = 0; i < dbs.size(); ++i) {
      pool.Submit([&, i] { build(i, &parallel[i], &parallel_bytes[i]); });
    }
    pool.Wait();
  }
  EXPECT_EQ(parallel, serial);
  EXPECT_EQ(parallel_bytes, serial_bytes);
}

sql::Database TwoTextColumnDb() {
  sql::DatabaseSchema schema;
  schema.name = "dedup";
  sql::TableDef t;
  t.name = "t";
  t.columns = {{"id", sql::DataType::kInteger, "", true},
               {"a", sql::DataType::kText, "", false},
               {"b", sql::DataType::kText, "", false}};
  schema.tables.push_back(t);
  return sql::Database(std::move(schema));
}

TEST(ValueRetrieverTest, DedupKeepsFirstSpellingPerColumn) {
  sql::Database db = TwoTextColumnDb();
  const std::vector<std::pair<std::string, std::string>> rows = {
      {"New York", "Paris"},  {"NEW YORK", "New York"}, {"new york", ""},
      {"Caf\xC3\xA9", "PARIS"}, {"CAF\xC3\xA9", "paris"}, {"", "Paris"}};
  int64_t id = 0;
  for (const auto& [a, b] : rows) {
    ASSERT_TRUE(
        db.Insert("t", {sql::Value(++id), sql::Value(a), sql::Value(b)}).ok());
  }
  ValueRetriever retriever;
  retriever.BuildIndex(db);
  // Column a: "New York" (first spelling) and "Café" (bytes >= 0x80 are
  // not case-folded, but the ASCII letters around them are). Column b:
  // "Paris" and "New York" — the same text in another column is its own
  // entry. Empty cells are skipped.
  EXPECT_EQ(retriever.NumIndexedValues(), 4u);
  std::string snapshot;
  retriever.SaveTo(&snapshot);
  serial::Reader reader(snapshot);
  ValueRetriever loaded;
  ASSERT_TRUE(loaded.LoadFrom(&reader).ok());
  auto hits = loaded.Retrieve("which rows say new york", 200, 6);
  std::vector<std::pair<std::string, int>> texts;
  for (const auto& hit : hits) texts.emplace_back(hit.text, hit.column);
  EXPECT_NE(std::find(texts.begin(), texts.end(),
                      std::make_pair(std::string("New York"), 1)),
            texts.end());
  EXPECT_NE(std::find(texts.begin(), texts.end(),
                      std::make_pair(std::string("New York"), 2)),
            texts.end());
  for (const auto& [text, column] : texts) {
    EXPECT_TRUE(text == "New York" || text == "Paris" ||
                text == "Caf\xC3\xA9")
        << text;
  }
}

TEST(ValueRetrieverTest, GuardTrippedMidBuildLeavesRetrieverEmpty) {
  sql::Database db = TwoTextColumnDb();
  for (int64_t id = 1; id <= 600; ++id) {
    ASSERT_TRUE(db.Insert("t", {sql::Value(id),
                                sql::Value("value " + std::to_string(id)),
                                sql::Value("other " + std::to_string(id))})
                    .ok());
  }
  ValueRetriever retriever;
  retriever.BuildIndex(db);
  ASSERT_EQ(retriever.NumIndexedValues(), 1200u);
  // A cancelled guard trips at the first poll (value 256), mid-scan.
  CancelToken cancel;
  cancel.Cancel();
  ExecGuard guard(ExecLimits{}, &cancel);
  Status status = retriever.TryBuildIndex(db, &guard);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(retriever.NumIndexedValues(), 0u);
  EXPECT_EQ(retriever.ApproxBytes(), ValueRetriever().ApproxBytes());
}

TEST(ValueRetrieverTest, EmptyRetrieverReturnsNoValues) {
  sql::Database db = TwoTextColumnDb();
  for (int64_t id = 1; id <= 300; ++id) {
    ASSERT_TRUE(db.Insert("t", {sql::Value(id),
                                sql::Value("value " + std::to_string(id)),
                                sql::Value("other " + std::to_string(id))})
                    .ok());
  }
  ValueRetriever built;
  built.BuildIndex(db);
  std::string snapshot;
  built.SaveTo(&snapshot);
  ASSERT_FALSE(built.Retrieve("value 7").empty());

  // Never built.
  ValueRetriever never_built;
  // Guard tripped at the first poll, mid-scan.
  ValueRetriever guard_tripped;
  CancelToken cancel;
  cancel.Cancel();
  ExecGuard guard(ExecLimits{}, &cancel);
  EXPECT_FALSE(guard_tripped.TryBuildIndex(db, &guard).ok());
  // Snapshot cut short inside the BM25 index.
  ValueRetriever corrupt;
  serial::Reader reader(
      std::string_view(snapshot).substr(0, snapshot.size() / 2));
  EXPECT_EQ(corrupt.LoadFrom(&reader).code(), StatusCode::kDataLoss);

  std::string empty_snapshot;
  ValueRetriever().SaveTo(&empty_snapshot);
  for (const ValueRetriever* retriever :
       {&never_built, &guard_tripped, &corrupt}) {
    EXPECT_EQ(retriever->NumIndexedValues(), 0u);
    EXPECT_TRUE(retriever->Retrieve("value 7").empty());
    std::string saved;
    retriever->SaveTo(&saved);
    EXPECT_EQ(saved, empty_snapshot);
  }
}

// ------------------------------------------------- demonstration retriever

TEST(DemonstrationRetrieverTest, PatternSimilarityIgnoresEntities) {
  std::vector<Text2SqlSample> pool(3);
  pool[0].question = "Show the names of members from either 'USA' or 'Canada'.";
  pool[0].sql = "SELECT name FROM member WHERE country = 'USA' OR country = 'Canada'";
  pool[1].question = "Which singer sang the most songs?";
  pool[1].sql = "SELECT name FROM singer GROUP BY name ORDER BY COUNT(*) DESC LIMIT 1";
  pool[2].question = "Count the albums.";
  pool[2].sql = "SELECT COUNT(*) FROM album";

  DemonstrationRetriever::Options options;
  DemonstrationRetriever retriever(pool, options);
  // The paper's example: a question about singers born in 1948 or 1949
  // should retrieve the "either X or Y" pattern, not the singer/song one.
  auto top = retriever.TopK(
      "Show the names of singers born in 1948 or 1949.", 1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0], 0);
}

TEST(DemonstrationRetrieverTest, WithoutPatternsEntityBiasWins) {
  // Candidate 0 has the question's exact pattern with other years;
  // candidate 1 shares an entity (1948) but not the "X or Y" shape.
  std::vector<Text2SqlSample> pool(2);
  pool[0].question = "Show the names of singers born in 1960 or 1961.";
  pool[1].question = "Show the names of singers born in 1948.";

  DemonstrationRetriever::Options with;
  with.use_pattern_similarity = true;
  DemonstrationRetriever r_with(pool, with);
  DemonstrationRetriever::Options without;
  without.use_pattern_similarity = false;
  DemonstrationRetriever r_without(pool, without);

  std::string q = "Show the names of singers born in 1948 or 1949.";
  // Eq. (4) takes the better of question and pattern similarity, so the
  // structural match wins; plain question similarity follows the entity.
  EXPECT_EQ(r_with.TopK(q, 1), std::vector<int>{0});
  EXPECT_EQ(r_without.TopK(q, 1), std::vector<int>{1});
}

TEST(DemonstrationRetrieverTest, TopKBounded) {
  std::vector<Text2SqlSample> pool(2);
  pool[0].question = "a";
  pool[1].question = "b";
  DemonstrationRetriever retriever(pool, {});
  EXPECT_EQ(retriever.TopK("a", 5).size(), 2u);
}

}  // namespace
}  // namespace codes
