// Property-style parameterized sweeps (TEST_P) over invariants:
//  * every template id: instantiate -> execute -> re-identify, on several
//    profiles and domains;
//  * engine round-trips: parse(ToSql(ast)) preserves semantics;
//  * result-comparison laws (reflexive, symmetric under multiset compare);
//  * seeds: dataset generation is a pure function of its seed.

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "dataset/benchmark_builder.h"
#include "dataset/db_generator.h"
#include "dataset/domains.h"
#include "dataset/templates.h"
#include "sqlengine/executor.h"
#include "sqlengine/fingerprint.h"
#include "sqlengine/parser.h"

namespace codes {
namespace {

// --------------------------------------------------- per-template sweeps

class TemplateProperty : public ::testing::TestWithParam<int> {
 protected:
  static void SetUpTestSuite() {
    Rng rng(0xFEED);
    dbs_ = new std::vector<sql::Database>();
    // One clean and one BIRD-style database from different domains.
    Rng r1 = rng.Fork();
    dbs_->push_back(GenerateDatabase(AllDomains()[4], DbProfile::Spider(), r1));
    Rng r2 = rng.Fork();
    dbs_->push_back(GenerateDatabase(AllDomains()[5], DbProfile::Bird(), r2));
  }
  static void TearDownTestSuite() {
    delete dbs_;
    dbs_ = nullptr;
  }
  static std::vector<sql::Database>* dbs_;
};
std::vector<sql::Database>* TemplateProperty::dbs_ = nullptr;

TEST_P(TemplateProperty, InstancesExecuteAndReidentify) {
  const auto& lib = GlobalTemplates();
  int id = GetParam();
  Rng rng(1000 + static_cast<uint64_t>(id));
  int fired = 0;
  for (const auto& db : *dbs_) {
    for (int attempt = 0; attempt < 4; ++attempt) {
      auto inst = lib.Instantiate(id, db, rng);
      if (!inst.has_value()) continue;
      ++fired;
      // 1. executable
      auto result = sql::ExecuteSql(db, inst->sql_text);
      ASSERT_TRUE(result.ok()) << inst->sql_text << " -> "
                               << result.status().ToString();
      // 2. structural fingerprint re-identifies the template
      EXPECT_EQ(lib.IdentifyTemplate(inst->sql_text), id) << inst->sql_text;
      // 3. the question mentions every literal value (so value retrieval
      //    and EK construction have something to anchor to)
      for (const auto& value : inst->value_strings) {
        if (value.size() < 3) continue;  // short values may be reworded
        EXPECT_TRUE(ContainsIgnoreCase(inst->question, value))
            << "question '" << inst->question << "' misses value '" << value
            << "'";
      }
      // 4. used items resolve
      for (const auto& item : inst->used_items) {
        auto t = db.schema().FindTable(item.table);
        ASSERT_TRUE(t.has_value()) << item.table;
        if (!item.column.empty()) {
          EXPECT_TRUE(db.schema().tables[*t].FindColumn(item.column))
              << item.table << "." << item.column;
        }
      }
    }
  }
  // Every template fits at least one of the two databases.
  EXPECT_GT(fired, 0) << lib.name(id);
}

INSTANTIATE_TEST_SUITE_P(AllTemplates, TemplateProperty,
                         ::testing::Range(0, 77),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return GlobalTemplates().name(info.param);
                         });

// -------------------------------------------------------- engine round-trip

class EngineRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EngineRoundTrip, ParseSerializeParsePreservesSemantics) {
  Rng rng(GetParam());
  Rng db_rng = rng.Fork();
  const auto& domain = AllDomains()[rng.Index(AllDomains().size())];
  auto db = GenerateDatabase(domain, DbProfile::Spider(), db_rng);
  const auto& lib = GlobalTemplates();
  for (int i = 0; i < 12; ++i) {
    auto inst = lib.InstantiateRandom(db, rng);
    ASSERT_TRUE(inst.has_value());
    auto first = sql::ParseSql(inst->sql_text);
    ASSERT_TRUE(first.ok()) << inst->sql_text;
    std::string round_tripped = (*first)->ToSql();
    auto second = sql::ParseSql(round_tripped);
    ASSERT_TRUE(second.ok()) << round_tripped;
    // Same fingerprint and same execution result.
    EXPECT_EQ(sql::FingerprintOf(**first).ToKey(),
              sql::FingerprintOf(**second).ToKey());
    const bool ordered = (*first)->HasOrderBy();
    auto r1 = sql::Execute(db, sql::Bind(std::move(*first), db.schema()));
    auto r2 = sql::Execute(db, sql::Bind(std::move(*second), db.schema()));
    ASSERT_TRUE(r1.ok());
    ASSERT_TRUE(r2.ok());
    EXPECT_TRUE(sql::ResultsEquivalent(*r1, *r2, ordered)) << inst->sql_text;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineRoundTrip,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ----------------------------------------------------- comparison algebra

class ResultAlgebra : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ResultAlgebra, EquivalenceIsReflexiveAndSymmetric) {
  Rng rng(GetParam() * 31);
  Rng db_rng = rng.Fork();
  auto db = GenerateDatabase(AllDomains()[rng.Index(AllDomains().size())],
                             DbProfile::Spider(), db_rng);
  const auto& lib = GlobalTemplates();
  for (int i = 0; i < 6; ++i) {
    auto a = lib.InstantiateRandom(db, rng);
    auto b = lib.InstantiateRandom(db, rng);
    ASSERT_TRUE(a.has_value() && b.has_value());
    auto ra = sql::ExecuteSql(db, a->sql_text);
    auto rb = sql::ExecuteSql(db, b->sql_text);
    ASSERT_TRUE(ra.ok() && rb.ok());
    EXPECT_TRUE(sql::ResultsEquivalent(*ra, *ra, false));
    EXPECT_TRUE(sql::ResultsEquivalent(*ra, *ra, true));
    EXPECT_EQ(sql::ResultsEquivalent(*ra, *rb, false),
              sql::ResultsEquivalent(*rb, *ra, false));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ResultAlgebra,
                         ::testing::Values(11, 12, 13, 14));

// --------------------------------------------------------- determinism law

class SeedDeterminism : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SeedDeterminism, BenchmarksArePureFunctionsOfSeed) {
  auto a = BuildTinySpiderLike(GetParam());
  auto b = BuildTinySpiderLike(GetParam());
  ASSERT_EQ(a.train.size(), b.train.size());
  ASSERT_EQ(a.dev.size(), b.dev.size());
  for (size_t i = 0; i < a.train.size(); ++i) {
    EXPECT_EQ(a.train[i].question, b.train[i].question);
    EXPECT_EQ(a.train[i].sql, b.train[i].sql);
  }
  // And a different seed changes content.
  auto c = BuildTinySpiderLike(GetParam() + 1);
  bool any_diff = a.train.size() != c.train.size();
  for (size_t i = 0; !any_diff && i < a.train.size() && i < c.train.size();
       ++i) {
    any_diff = a.train[i].sql != c.train[i].sql;
  }
  EXPECT_TRUE(any_diff);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedDeterminism,
                         ::testing::Values(101, 202, 303));

}  // namespace
}  // namespace codes
