#include <gtest/gtest.h>

#include "common/string_util.h"
#include "dataset/benchmark_builder.h"
#include "linker/schema_classifier.h"
#include "prompt/prompt_builder.h"
#include "retrieval/value_retriever.h"

namespace codes {
namespace {

class PromptTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    bench_ = new Text2SqlBenchmark(BuildTinySpiderLike(88));
    classifier_ = new SchemaItemClassifier();
    SchemaItemClassifier::TrainOptions options;
    options.epochs = 3;
    classifier_->Train(*bench_, options);
    retriever_ = new ValueRetriever();
    retriever_->BuildIndex(bench_->databases[0]);
  }
  static void TearDownTestSuite() {
    delete retriever_;
    delete classifier_;
    delete bench_;
  }
  static Text2SqlBenchmark* bench_;
  static SchemaItemClassifier* classifier_;
  static ValueRetriever* retriever_;
};
Text2SqlBenchmark* PromptTest::bench_ = nullptr;
SchemaItemClassifier* PromptTest::classifier_ = nullptr;
ValueRetriever* PromptTest::retriever_ = nullptr;

TEST_F(PromptTest, FilterRespectsTopK) {
  PromptOptions options;
  options.top_k1 = 1;
  options.top_k2 = 2;
  PromptBuilder builder(classifier_, options);
  const auto& db = bench_->databases[0];
  auto prompt = builder.Build(db, "how many rows are there", retriever_);
  EXPECT_EQ(prompt.kept_tables.size(), 1u);
  // Non-key kept columns per table <= top_k2 (keys ride along).
  for (size_t i = 0; i < prompt.kept_columns.size(); ++i) {
    int non_key = 0;
    int t = prompt.kept_tables[i];
    for (int c : prompt.kept_columns[i]) {
      const auto& col = db.schema().tables[t].columns[c];
      bool key = col.is_primary_key;
      for (const auto& fk : db.schema().foreign_keys) {
        if ((codes::ToLower(fk.table) == codes::ToLower(db.schema().tables[t].name) &&
             codes::ToLower(fk.column) == codes::ToLower(col.name)) ||
            (codes::ToLower(fk.ref_table) == codes::ToLower(db.schema().tables[t].name) &&
             codes::ToLower(fk.ref_column) == codes::ToLower(col.name))) {
          key = true;
        }
      }
      if (!key) ++non_key;
    }
    EXPECT_LE(non_key, 2);
  }
}

TEST_F(PromptTest, NoFilterKeepsEverything) {
  PromptOptions options;
  options.use_schema_filter = false;
  PromptBuilder builder(nullptr, options);
  const auto& db = bench_->databases[0];
  auto prompt = builder.Build(db, "anything", nullptr);
  EXPECT_EQ(prompt.kept_tables.size(), db.schema().tables.size());
}

TEST_F(PromptTest, SerializationSectionsFollowOptions) {
  const auto& db = bench_->databases[0];
  PromptOptions all;
  all.use_schema_filter = false;
  PromptBuilder with_all(nullptr, all);
  auto full = with_all.Build(db, "question", retriever_);
  EXPECT_NE(full.text.find("INTEGER"), std::string::npos);
  EXPECT_NE(full.text.find("foreign key"), std::string::npos);
  EXPECT_NE(full.text.find("values :"), std::string::npos);

  PromptOptions none = all;
  none.include_column_types = false;
  none.include_keys = false;
  none.include_representative_values = false;
  none.include_comments = false;
  PromptBuilder without(nullptr, none);
  auto bare = without.Build(db, "question", retriever_);
  EXPECT_EQ(bare.text.find("INTEGER"), std::string::npos);
  EXPECT_EQ(bare.text.find("foreign key"), std::string::npos);
  EXPECT_EQ(bare.text.find("values :"), std::string::npos);
  EXPECT_FALSE(bare.keys_included);
  EXPECT_FALSE(bare.comments_included);
  EXPECT_LT(bare.token_count, full.token_count);
}

TEST_F(PromptTest, TruncationDropsTables) {
  PromptOptions options;
  options.use_schema_filter = false;
  options.max_prompt_tokens = 60;  // tiny budget
  PromptBuilder builder(nullptr, options);
  const auto& db = bench_->databases[0];
  auto prompt = builder.Build(db, "question", nullptr);
  EXPECT_LT(prompt.kept_tables.size(), db.schema().tables.size());
  EXPECT_LE(prompt.token_count, 80);
}

TEST_F(PromptTest, MatchedValuesAppearInPrompt) {
  const auto& db = bench_->databases[0];
  std::string value;
  db.ForEachTextValue([&value](int, int, int, const std::string& text) {
    if (value.empty() && text.size() >= 6) value = text;
  });
  ASSERT_FALSE(value.empty());
  PromptOptions options;
  options.use_schema_filter = false;
  PromptBuilder builder(nullptr, options);
  auto prompt =
      builder.Build(db, "rows mentioning '" + value + "'", retriever_);
  ASSERT_FALSE(prompt.matched_values.empty());
  EXPECT_NE(prompt.text.find("matched value"), std::string::npos);
}

TEST_F(PromptTest, KeptLookupsConsistentWithText) {
  PromptOptions options;
  PromptBuilder builder(classifier_, options);
  const auto& db = bench_->databases[0];
  auto prompt = builder.Build(db, bench_->train[0].question, retriever_);
  for (size_t i = 0; i < prompt.kept_tables.size(); ++i) {
    int t = prompt.kept_tables[i];
    EXPECT_TRUE(prompt.TableKept(t));
    EXPECT_NE(prompt.text.find("table " + db.schema().tables[t].name),
              std::string::npos);
    for (int c : prompt.kept_columns[i]) {
      EXPECT_TRUE(prompt.ColumnKept(t, c));
    }
  }
  EXPECT_FALSE(prompt.TableKept(999));
  EXPECT_FALSE(prompt.ColumnKept(0, 999));
}

TEST(PromptTokenTest, CountsWhitespaceTokens) {
  EXPECT_EQ(CountPromptTokens("a b  c\nd"), 4);
  EXPECT_EQ(CountPromptTokens(""), 0);
}

}  // namespace
}  // namespace codes
