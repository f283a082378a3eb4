#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

#include "common/string_util.h"
#include "dataset/benchmark_builder.h"
#include "dataset/db_generator.h"
#include "dataset/domains.h"
#include "dataset/templates.h"
#include "dataset/value_pool.h"
#include "sqlengine/executor.h"
#include "sqlengine/fingerprint.h"
#include "sqlengine/parser.h"

namespace codes {
namespace {

// ----------------------------------------------------------------- domains

TEST(DomainsTest, CatalogHasAtLeastTwentyDomains) {
  EXPECT_GE(AllDomains().size(), 20u);
}

TEST(DomainsTest, EveryDomainHasValidFks) {
  for (const auto& domain : AllDomains()) {
    for (const auto& fk : domain.fks) {
      bool found_table = false, found_ref = false;
      for (const auto& table : domain.tables) {
        if (table.name == fk.table) found_table = true;
        if (table.name == fk.ref_table) found_ref = true;
      }
      EXPECT_TRUE(found_table) << domain.name << ": " << fk.table;
      EXPECT_TRUE(found_ref) << domain.name << ": " << fk.ref_table;
    }
  }
}

TEST(DomainsTest, FindDomainLocatesSpecials) {
  EXPECT_NE(FindDomain("concerts"), nullptr);
  EXPECT_NE(FindDomain("bank_financials"), nullptr);
  EXPECT_NE(FindDomain("aminer_simplified"), nullptr);
  EXPECT_EQ(FindDomain("nonexistent"), nullptr);
}

TEST(DomainsTest, FirstColumnIsAlwaysSequentialId) {
  for (const auto& domain : AllDomains()) {
    for (const auto& table : domain.tables) {
      ASSERT_FALSE(table.columns.empty());
      EXPECT_EQ(table.columns[0].kind, ValueKind::kSequentialId)
          << domain.name << "." << table.name;
    }
  }
}

// -------------------------------------------------------------- value pool

TEST(ValuePoolTest, KindsMatchDeclaredTypes) {
  Rng rng(1);
  for (ValueKind kind :
       {ValueKind::kPersonName, ValueKind::kYear, ValueKind::kMoney,
        ValueKind::kGender, ValueKind::kDate, ValueKind::kRate}) {
    sql::Value v = DrawValue(kind, 0, rng);
    switch (TypeOfKind(kind)) {
      case sql::DataType::kInteger:
        EXPECT_TRUE(v.is_integer());
        break;
      case sql::DataType::kReal:
        EXPECT_TRUE(v.is_real());
        break;
      case sql::DataType::kText:
        EXPECT_TRUE(v.is_text());
        break;
    }
  }
}

TEST(ValuePoolTest, SequentialIdsFollowRowIndex) {
  Rng rng(2);
  EXPECT_EQ(DrawValue(ValueKind::kSequentialId, 4, rng).AsInteger(), 5);
}

TEST(ValuePoolTest, DatesAreIsoFormatted) {
  Rng rng(3);
  for (int i = 0; i < 20; ++i) {
    std::string d = DrawValue(ValueKind::kDate, i, rng).AsText();
    ASSERT_EQ(d.size(), 10u);
    EXPECT_EQ(d[4], '-');
    EXPECT_EQ(d[7], '-');
  }
}

// ------------------------------------------------------------ db generator

TEST(DbGeneratorTest, SpiderProfileKeepsFullNames) {
  Rng rng(4);
  auto db = GenerateDatabase(AllDomains()[0], DbProfile::Spider(), rng);
  EXPECT_TRUE(db.schema().FindTable("singer").has_value());
  auto t = db.schema().FindTable("singer");
  EXPECT_TRUE(db.schema().tables[*t].FindColumn("country").has_value());
  EXPECT_GT(db.TotalRows(), 0u);
}

TEST(DbGeneratorTest, BirdProfileAbbreviatesWithComments) {
  Rng rng(5);
  auto db = GenerateDatabase(AllDomains()[0], DbProfile::Bird(), rng);
  auto t = db.schema().FindTable("concert");
  ASSERT_TRUE(t.has_value());
  const auto& table = db.schema().tables[*t];
  // "concert_title" abbreviates to "ct" and keeps the phrase in a comment.
  auto ct = table.FindColumn("ct");
  ASSERT_TRUE(ct.has_value());
  EXPECT_EQ(table.columns[*ct].comment, "concert title");
  // Filler columns widen the table.
  EXPECT_GT(table.columns.size(), 6u);
}

TEST(DbGeneratorTest, AbbreviationRules) {
  EXPECT_EQ(AbbreviateIdentifier("road_overtime_losses"), "rol");
  EXPECT_EQ(AbbreviateIdentifier("salary"), "sala");
}

TEST(DbGeneratorTest, ForeignKeysReferenceValidParents) {
  Rng rng(6);
  auto db = GenerateDatabase(AllDomains()[2], DbProfile::Spider(), rng);
  for (const auto& fk : db.schema().foreign_keys) {
    auto ct = db.schema().FindTable(fk.table);
    auto pt = db.schema().FindTable(fk.ref_table);
    ASSERT_TRUE(ct && pt);
    auto cc = db.schema().tables[*ct].FindColumn(fk.column);
    ASSERT_TRUE(cc.has_value());
    size_t parent_rows = db.TableAt(*pt).rows.size();
    for (const auto& row : db.TableAt(*ct).rows) {
      if (row[*cc].is_null()) continue;
      int64_t ref = row[*cc].AsInteger();
      EXPECT_GE(ref, 1);
      EXPECT_LE(ref, static_cast<int64_t>(parent_rows));
    }
  }
}

TEST(DbGeneratorTest, RegenerateContentsPreservesSchema) {
  Rng rng(7);
  auto db = GenerateDatabase(AllDomains()[1], DbProfile::Spider(), rng);
  Rng rng2(8);
  auto fresh = RegenerateContents(db, AllDomains()[1], DbProfile::Spider(),
                                  rng2);
  EXPECT_EQ(fresh.schema().tables.size(), db.schema().tables.size());
  for (size_t t = 0; t < db.schema().tables.size(); ++t) {
    EXPECT_EQ(fresh.schema().tables[t].name, db.schema().tables[t].name);
    EXPECT_EQ(fresh.schema().tables[t].columns.size(),
              db.schema().tables[t].columns.size());
  }
  EXPECT_GT(fresh.TotalRows(), 0u);
}

TEST(DbGeneratorTest, Deterministic) {
  Rng a(9), b(9);
  auto da = GenerateDatabase(AllDomains()[0], DbProfile::Spider(), a);
  auto db = GenerateDatabase(AllDomains()[0], DbProfile::Spider(), b);
  EXPECT_EQ(da.TotalRows(), db.TotalRows());
  EXPECT_EQ(da.TableAt(0).rows[0][1].ToString(),
            db.TableAt(0).rows[0][1].ToString());
}

// --------------------------------------------------------------- templates

TEST(TemplatesTest, LibraryHasAtLeast75Templates) {
  EXPECT_GE(GlobalTemplates().size(), 75);
}

TEST(TemplatesTest, EveryTemplateInstantiatesAndExecutes) {
  Rng rng(10);
  const auto& lib = GlobalTemplates();
  // Across the full domain catalog every template must fire somewhere,
  // always producing executable SQL that re-identifies to itself.
  std::set<int> fired;
  for (size_t d = 0; d < AllDomains().size(); ++d) {
    Rng db_rng = rng.Fork();
    auto db = GenerateDatabase(AllDomains()[d], DbProfile::Spider(), db_rng);
    const ColumnProfile profile(db);
    for (int id = 0; id < lib.size(); ++id) {
      auto inst = lib.Instantiate(id, db, profile, rng);
      if (!inst.has_value()) continue;
      fired.insert(id);
      EXPECT_TRUE(sql::IsExecutable(db, inst->sql_text)) << inst->sql_text;
      EXPECT_EQ(lib.IdentifyTemplate(inst->sql_text), id) << inst->sql_text;
      EXPECT_FALSE(inst->question.empty());
      EXPECT_FALSE(inst->used_items.empty());
    }
  }
  EXPECT_EQ(static_cast<int>(fired.size()), lib.size());
}

TEST(TemplatesTest, IdentifyRejectsUnknownShapes) {
  EXPECT_EQ(GlobalTemplates().IdentifyTemplate("not sql"), -1);
}

TEST(TemplatesTest, SkeletonsExist) {
  const auto& lib = GlobalTemplates();
  for (int id = 0; id < lib.size(); ++id) {
    EXPECT_FALSE(lib.QuestionSkeleton(id).empty());
    EXPECT_FALSE(lib.name(id).empty());
  }
}

TEST(TemplatesTest, GuidanceRestrictsTableChoice) {
  Rng rng(11);
  auto db = GenerateDatabase(AllDomains()[0], DbProfile::Spider(), rng);
  // Force the "concert" table via guidance.
  auto target = db.schema().FindTable("concert");
  ASSERT_TRUE(target.has_value());
  SlotGuidance guidance;
  guidance.table_score = [&](int t) { return t == *target ? 1.0 : -100.0; };
  const auto& lib = GlobalTemplates();
  int count_all = -1;
  for (int id = 0; id < lib.size(); ++id) {
    if (lib.name(id) == "count_all") count_all = id;
  }
  ASSERT_GE(count_all, 0);
  auto inst =
      lib.Instantiate(count_all, db, ColumnProfile(db), rng, &guidance);
  ASSERT_TRUE(inst.has_value());
  EXPECT_NE(inst->sql_text.find("FROM concert"), std::string::npos);
}

TEST(TemplatesTest, GuidedModeNeverInventsValues) {
  // With guidance present but no value sources, value-dependent templates
  // must fail rather than peek at database cells.
  Rng rng(12);
  auto db = GenerateDatabase(AllDomains()[0], DbProfile::Spider(), rng);
  SlotGuidance guidance;  // no filter_value / representative_value
  const auto& lib = GlobalTemplates();
  const ColumnProfile profile(db);
  for (int id = 0; id < lib.size(); ++id) {
    if (lib.name(id) != "where_eq_text") continue;
    auto inst = lib.Instantiate(id, db, profile, rng, &guidance);
    EXPECT_FALSE(inst.has_value());
  }
}

// ----------------------------------------------------- fingerprint property

TEST(FingerprintTest, StableUnderReparse) {
  Rng rng(13);
  auto db = GenerateDatabase(AllDomains()[3], DbProfile::Spider(), rng);
  const auto& lib = GlobalTemplates();
  const ColumnProfile profile(db);
  for (int i = 0; i < 30; ++i) {
    auto inst = lib.InstantiateRandom(db, profile, rng);
    ASSERT_TRUE(inst.has_value());
    auto stmt = sql::ParseSql(inst->sql_text);
    ASSERT_TRUE(stmt.ok());
    auto reparsed = sql::ParseSql((*stmt)->ToSql());
    ASSERT_TRUE(reparsed.ok());
    EXPECT_EQ(sql::FingerprintOf(**stmt).ToKey(),
              sql::FingerprintOf(**reparsed).ToKey());
  }
}

// --------------------------------------------------------------- benchmark

TEST(BenchmarkBuilderTest, TrainDevDomainsAreDisjoint) {
  auto bench = BuildTinySpiderLike(14);
  std::set<int> train_dbs, dev_dbs;
  for (const auto& s : bench.train) train_dbs.insert(s.db_index);
  for (const auto& s : bench.dev) dev_dbs.insert(s.db_index);
  for (int db : train_dbs) EXPECT_EQ(dev_dbs.count(db), 0u);
  EXPECT_FALSE(train_dbs.empty());
  EXPECT_FALSE(dev_dbs.empty());
}

TEST(BenchmarkBuilderTest, AllGoldSqlExecutes) {
  auto bench = BuildTinySpiderLike(15);
  for (const auto& s : bench.train) {
    EXPECT_TRUE(sql::IsExecutable(bench.DbOf(s), s.sql)) << s.sql;
  }
  for (const auto& s : bench.dev) {
    EXPECT_TRUE(sql::IsExecutable(bench.DbOf(s), s.sql)) << s.sql;
  }
}

TEST(BenchmarkBuilderTest, BirdSamplesCarryExternalKnowledge) {
  auto bird = BuildBirdLike(16);
  int with_ek = 0;
  for (const auto& s : bird.dev) {
    if (!s.external_knowledge.empty()) ++with_ek;
  }
  EXPECT_GT(with_ek, static_cast<int>(bird.dev.size()) / 3);
}

TEST(BenchmarkBuilderTest, BirdHidesSomeComments) {
  auto bird = BuildBirdLike(17);
  int hidden = 0, total = 0;
  for (const auto& table : bird.databases[0].schema().tables) {
    for (const auto& col : table.columns) {
      if (col.is_primary_key) continue;
      ++total;
      if (col.comment.empty()) ++hidden;
    }
  }
  EXPECT_GT(hidden, 0);
  EXPECT_LT(hidden, total);
}

TEST(BenchmarkBuilderTest, DomainNamesTrackDatabases) {
  auto bench = BuildTinySpiderLike(18);
  ASSERT_EQ(bench.domain_names.size(), bench.databases.size());
  for (const auto& name : bench.domain_names) {
    EXPECT_NE(FindDomain(name), nullptr);
  }
}

TEST(BenchmarkBuilderTest, UsedItemsResolveAgainstSchema) {
  auto bench = BuildTinySpiderLike(19);
  for (const auto& s : bench.dev) {
    const auto& db = bench.DbOf(s);
    for (const auto& [t, c] : s.used_items) {
      ASSERT_GE(t, 0);
      ASSERT_LT(t, static_cast<int>(db.schema().tables.size()));
      EXPECT_GE(c, -1) << t;
      EXPECT_LT(c, static_cast<int>(db.schema().tables[t].columns.size()))
          << t;
    }
  }
}

}  // namespace
}  // namespace codes
