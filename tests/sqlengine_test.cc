#include <gtest/gtest.h>

#include <atomic>

#include "common/exec_guard.h"
#include "common/failpoint.h"
#include "common/thread_pool.h"
#include "sqlengine/ast.h"
#include "sqlengine/bind.h"
#include "sqlengine/catalog.h"
#include "sqlengine/database.h"
#include "sqlengine/executor.h"
#include "sqlengine/fingerprint.h"
#include "sqlengine/lexer.h"
#include "sqlengine/parser.h"
#include "sqlengine/result_table.h"
#include "sqlengine/value.h"

namespace codes::sql {
namespace {

// ----------------------------------------------------------------- fixture

/// Builds a small two-table database:
///   singer(singer_id PK, name, age, country)
///   song(song_id PK, title, singer_id FK, sales)
Database MakeMusicDb() {
  DatabaseSchema schema;
  schema.name = "music";
  TableDef singer;
  singer.name = "singer";
  singer.columns = {
      {"singer_id", DataType::kInteger, "unique singer id", true},
      {"name", DataType::kText, "singer name", false},
      {"age", DataType::kInteger, "age in years", false},
      {"country", DataType::kText, "country of origin", false},
  };
  TableDef song;
  song.name = "song";
  song.columns = {
      {"song_id", DataType::kInteger, "unique song id", true},
      {"title", DataType::kText, "song title", false},
      {"singer_id", DataType::kInteger, "performer", false},
      {"sales", DataType::kReal, "copies sold", false},
  };
  schema.tables = {singer, song};
  schema.foreign_keys = {{"song", "singer_id", "singer", "singer_id"}};

  Database db(std::move(schema));
  auto ins = [&db](const std::string& t, std::vector<Value> row) {
    ASSERT_TRUE(db.Insert(t, std::move(row)).ok());
  };
  ins("singer", {Value(int64_t{1}), Value("Alice"), Value(int64_t{30}),
                 Value("USA")});
  ins("singer", {Value(int64_t{2}), Value("Bob"), Value(int64_t{45}),
                 Value("Canada")});
  ins("singer", {Value(int64_t{3}), Value("Carol"), Value(int64_t{30}),
                 Value("USA")});
  ins("singer", {Value(int64_t{4}), Value("Dave"), Value(), Value("France")});
  ins("song", {Value(int64_t{10}), Value("Sunrise"), Value(int64_t{1}),
               Value(100.0)});
  ins("song", {Value(int64_t{11}), Value("Moonlight"), Value(int64_t{1}),
               Value(250.5)});
  ins("song", {Value(int64_t{12}), Value("Harbor"), Value(int64_t{2}),
               Value(75.0)});
  ins("song", {Value(int64_t{13}), Value("Echoes"), Value(int64_t{3}),
               Value()});
  return db;
}

ResultTable MustExecute(const Database& db, const std::string& sql) {
  auto result = ExecuteSql(db, sql);
  EXPECT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
  if (!result.ok()) return ResultTable{};
  return std::move(result).value();
}

// ------------------------------------------------------------------- value

TEST(ValueTest, NullOrderingAndEquality) {
  Value null;
  Value one(int64_t{1});
  EXPECT_TRUE(null.is_null());
  EXPECT_LT(null.Compare(one), 0);
  EXPECT_EQ(null.Compare(Value()), 0);
  EXPECT_FALSE(null.SqlEquals(null));  // SQL NULL != NULL
}

TEST(ValueTest, NumericCoercionAcrossIntAndReal) {
  EXPECT_TRUE(Value(int64_t{2}).SqlEquals(Value(2.0)));
  EXPECT_EQ(Value(int64_t{2}).Compare(Value(2.0)), 0);
  EXPECT_LT(Value(1.5).Compare(Value(int64_t{2})), 0);
}

TEST(ValueTest, TextComparison) {
  EXPECT_LT(Value("apple").Compare(Value("banana")), 0);
  EXPECT_TRUE(Value("x").SqlEquals(Value("x")));
  // Numerics sort before text in canonical order.
  EXPECT_LT(Value(int64_t{5}).Compare(Value("5")), 0);
}

TEST(ValueTest, SqlLiteralEscaping) {
  EXPECT_EQ(Value("O'Hara").ToSqlLiteral(), "'O''Hara'");
  EXPECT_EQ(Value(int64_t{7}).ToSqlLiteral(), "7");
  EXPECT_EQ(Value().ToSqlLiteral(), "NULL");
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value(int64_t{2}).Hash(), Value(2.0).Hash());
}

// ------------------------------------------------------------------ lexer

TEST(LexerTest, TokenizesBasicQuery) {
  auto tokens = LexSql("SELECT name FROM singer WHERE age >= 30");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 9u);  // 8 tokens + end
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kKeyword);
  EXPECT_EQ((*tokens)[0].text, "SELECT");
  EXPECT_EQ((*tokens)[5].text, "age");
  EXPECT_EQ((*tokens)[6].text, ">=");
}

TEST(LexerTest, StringEscapes) {
  auto tokens = LexSql("'O''Hara'");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kString);
  EXPECT_EQ((*tokens)[0].text, "O'Hara");
}

TEST(LexerTest, UnterminatedStringFails) {
  auto tokens = LexSql("SELECT 'abc");
  EXPECT_FALSE(tokens.ok());
  EXPECT_EQ(tokens.status().code(), StatusCode::kParseError);
}

TEST(LexerTest, NumbersAndQuotedIdentifiers) {
  auto tokens = LexSql("\"weird name\" 3.25 42");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kIdentifier);
  EXPECT_EQ((*tokens)[0].text, "weird name");
  EXPECT_EQ((*tokens)[1].kind, TokenKind::kReal);
  EXPECT_DOUBLE_EQ((*tokens)[1].real_value, 3.25);
  EXPECT_EQ((*tokens)[2].kind, TokenKind::kInteger);
  EXPECT_EQ((*tokens)[2].int_value, 42);
}

// ------------------------------------------------------------------ parser

TEST(ParserTest, RoundTripsSimpleQuery) {
  auto stmt = ParseSql("SELECT name FROM singer WHERE age > 30");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ((*stmt)->ToSql(), "SELECT name FROM singer WHERE age > 30");
}

TEST(ParserTest, ParsesJoinGroupOrderLimit) {
  const std::string sql =
      "SELECT T1.name, COUNT(*) FROM singer AS T1 JOIN song AS T2 "
      "ON T1.singer_id = T2.singer_id GROUP BY T1.name "
      "HAVING COUNT(*) >= 2 ORDER BY COUNT(*) DESC LIMIT 1";
  auto stmt = ParseSql(sql);
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ((*stmt)->joins.size(), 1u);
  EXPECT_EQ((*stmt)->group_by.size(), 1u);
  ASSERT_TRUE((*stmt)->having != nullptr);
  EXPECT_EQ((*stmt)->order_by.size(), 1u);
  EXPECT_FALSE((*stmt)->order_by[0].ascending);
  EXPECT_EQ((*stmt)->limit, 1);
}

TEST(ParserTest, ParsesSetOps) {
  auto stmt = ParseSql(
      "SELECT name FROM singer UNION SELECT title FROM song");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ((*stmt)->set_op, SetOp::kUnion);
  ASSERT_TRUE((*stmt)->set_rhs != nullptr);
}

TEST(ParserTest, ParsesInSubquery) {
  auto stmt = ParseSql(
      "SELECT name FROM singer WHERE singer_id IN "
      "(SELECT singer_id FROM song)");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_TRUE((*stmt)->where != nullptr);
  EXPECT_EQ((*stmt)->where->kind, ExprKind::kInSubquery);
}

TEST(ParserTest, ParsesBetweenNotLikeIsNull) {
  auto stmt = ParseSql(
      "SELECT name FROM singer WHERE age BETWEEN 20 AND 40 "
      "AND name NOT LIKE 'A%' AND country IS NOT NULL");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
}

TEST(ParserTest, OperatorPrecedence) {
  auto stmt = ParseSql("SELECT 1 + 2 * 3 FROM singer");
  ASSERT_TRUE(stmt.ok());
  const Expr& e = *(*stmt)->select_list[0].expr;
  ASSERT_EQ(e.kind, ExprKind::kBinary);
  EXPECT_EQ(e.binary_op, BinaryOp::kAdd);  // * binds tighter
}

TEST(ParserTest, RejectsGarbage) {
  EXPECT_FALSE(ParseSql("SELECT FROM").ok());
  EXPECT_FALSE(ParseSql("SELEKT x FROM t").ok());
  EXPECT_FALSE(ParseSql("SELECT a FROM t WHERE").ok());
  EXPECT_FALSE(ParseSql("SELECT a FROM t extra junk").ok());
}

TEST(ParserTest, CloneProducesEqualSql) {
  auto stmt = ParseSql(
      "SELECT DISTINCT T1.name FROM singer AS T1 JOIN song AS T2 ON "
      "T1.singer_id = T2.singer_id WHERE T2.sales > 50 ORDER BY T1.name ASC");
  ASSERT_TRUE(stmt.ok());
  auto clone = (*stmt)->Clone();
  EXPECT_EQ(clone->ToSql(), (*stmt)->ToSql());
}

// ---------------------------------------------------------------- executor

TEST(ExecutorTest, SimpleScanAndFilter) {
  Database db = MakeMusicDb();
  auto r = MustExecute(db, "SELECT name FROM singer WHERE age = 30");
  ASSERT_EQ(r.NumRows(), 2u);
}

TEST(ExecutorTest, SelectStarExpandsColumns) {
  Database db = MakeMusicDb();
  auto r = MustExecute(db, "SELECT * FROM singer");
  EXPECT_EQ(r.NumColumns(), 4u);
  EXPECT_EQ(r.NumRows(), 4u);
  EXPECT_EQ(r.column_names[1], "name");
}

TEST(ExecutorTest, HashJoinOnForeignKey) {
  Database db = MakeMusicDb();
  auto r = MustExecute(db,
                       "SELECT T1.name, T2.title FROM singer AS T1 JOIN song "
                       "AS T2 ON T1.singer_id = T2.singer_id");
  EXPECT_EQ(r.NumRows(), 4u);
}

TEST(ExecutorTest, ThetaJoinFallsBackToNestedLoop) {
  Database db = MakeMusicDb();
  auto r = MustExecute(db,
                       "SELECT T1.name FROM singer AS T1 JOIN song AS T2 ON "
                       "T1.singer_id < T2.singer_id");
  EXPECT_GT(r.NumRows(), 0u);
}

TEST(ExecutorTest, GroupByCountHaving) {
  Database db = MakeMusicDb();
  auto r = MustExecute(
      db,
      "SELECT T1.name, COUNT(*) FROM singer AS T1 JOIN song AS T2 ON "
      "T1.singer_id = T2.singer_id GROUP BY T1.name HAVING COUNT(*) >= 2");
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_EQ(r.rows[0][0].AsText(), "Alice");
  EXPECT_EQ(r.rows[0][1].AsInteger(), 2);
}

TEST(ExecutorTest, GlobalAggregatesSkipNulls) {
  Database db = MakeMusicDb();
  auto r = MustExecute(db, "SELECT COUNT(*), COUNT(age), AVG(age) FROM singer");
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInteger(), 4);
  EXPECT_EQ(r.rows[0][1].AsInteger(), 3);  // Dave's age is NULL
  EXPECT_NEAR(r.rows[0][2].ToNumeric(), 35.0, 1e-9);
}

TEST(ExecutorTest, CountDistinct) {
  Database db = MakeMusicDb();
  auto r = MustExecute(db, "SELECT COUNT(DISTINCT country) FROM singer");
  EXPECT_EQ(r.rows[0][0].AsInteger(), 3);
}

TEST(ExecutorTest, GlobalAggregateOnEmptyInput) {
  Database db = MakeMusicDb();
  auto r = MustExecute(db, "SELECT COUNT(*), MAX(age) FROM singer WHERE age > 99");
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInteger(), 0);
  EXPECT_TRUE(r.rows[0][1].is_null());
}

TEST(ExecutorTest, OrderByDescWithLimit) {
  Database db = MakeMusicDb();
  auto r = MustExecute(db,
                       "SELECT name FROM singer WHERE age IS NOT NULL "
                       "ORDER BY age DESC LIMIT 1");
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_EQ(r.rows[0][0].AsText(), "Bob");
}

TEST(ExecutorTest, OrderByAliasAndPosition) {
  Database db = MakeMusicDb();
  auto by_alias = MustExecute(
      db, "SELECT name AS n FROM singer ORDER BY n ASC LIMIT 1");
  ASSERT_EQ(by_alias.NumRows(), 1u);
  EXPECT_EQ(by_alias.rows[0][0].AsText(), "Alice");
  auto by_pos = MustExecute(db, "SELECT name FROM singer ORDER BY 1 DESC LIMIT 1");
  EXPECT_EQ(by_pos.rows[0][0].AsText(), "Dave");
}

TEST(ExecutorTest, DistinctRemovesDuplicates) {
  Database db = MakeMusicDb();
  auto r = MustExecute(db, "SELECT DISTINCT country FROM singer");
  EXPECT_EQ(r.NumRows(), 3u);
}

TEST(ExecutorTest, LikePatterns) {
  Database db = MakeMusicDb();
  auto r = MustExecute(db, "SELECT name FROM singer WHERE name LIKE 'a%'");
  ASSERT_EQ(r.NumRows(), 1u);  // case-insensitive: Alice
  EXPECT_EQ(r.rows[0][0].AsText(), "Alice");
  auto r2 = MustExecute(db, "SELECT name FROM singer WHERE name LIKE '_ob'");
  ASSERT_EQ(r2.NumRows(), 1u);
  EXPECT_EQ(r2.rows[0][0].AsText(), "Bob");
}

TEST(ExecutorTest, InListAndBetween) {
  Database db = MakeMusicDb();
  auto r = MustExecute(
      db, "SELECT name FROM singer WHERE country IN ('USA', 'France')");
  EXPECT_EQ(r.NumRows(), 3u);
  auto r2 = MustExecute(db,
                        "SELECT name FROM singer WHERE age BETWEEN 29 AND 31");
  EXPECT_EQ(r2.NumRows(), 2u);
  auto r3 = MustExecute(
      db, "SELECT name FROM singer WHERE age NOT BETWEEN 29 AND 31");
  EXPECT_EQ(r3.NumRows(), 1u);  // Bob; NULL age row excluded
}

TEST(ExecutorTest, InSubquery) {
  Database db = MakeMusicDb();
  auto r = MustExecute(db,
                       "SELECT name FROM singer WHERE singer_id IN "
                       "(SELECT singer_id FROM song WHERE sales > 80)");
  EXPECT_EQ(r.NumRows(), 1u);  // Alice (two qualifying songs, one singer)
}

TEST(ExecutorTest, ScalarSubqueryComparison) {
  Database db = MakeMusicDb();
  auto r = MustExecute(db,
                       "SELECT name FROM singer WHERE age > "
                       "(SELECT AVG(age) FROM singer)");
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_EQ(r.rows[0][0].AsText(), "Bob");
}

TEST(ExecutorTest, SetOperations) {
  Database db = MakeMusicDb();
  auto u = MustExecute(db,
                       "SELECT country FROM singer UNION SELECT country FROM "
                       "singer");
  EXPECT_EQ(u.NumRows(), 3u);  // deduped
  auto ua = MustExecute(db,
                        "SELECT country FROM singer UNION ALL SELECT country "
                        "FROM singer");
  EXPECT_EQ(ua.NumRows(), 8u);
  auto ex = MustExecute(db,
                        "SELECT country FROM singer EXCEPT SELECT country "
                        "FROM singer WHERE age = 30");
  EXPECT_EQ(ex.NumRows(), 2u);  // Canada, France
  auto in = MustExecute(db,
                        "SELECT country FROM singer INTERSECT SELECT country "
                        "FROM singer WHERE age = 45");
  ASSERT_EQ(in.NumRows(), 1u);
  EXPECT_EQ(in.rows[0][0].AsText(), "Canada");
}

TEST(ExecutorTest, ScalarFunctions) {
  Database db = MakeMusicDb();
  auto r = MustExecute(
      db, "SELECT UPPER(name), LENGTH(name), SUBSTR(name, 1, 2) FROM singer "
          "WHERE singer_id = 1");
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_EQ(r.rows[0][0].AsText(), "ALICE");
  EXPECT_EQ(r.rows[0][1].AsInteger(), 5);
  EXPECT_EQ(r.rows[0][2].AsText(), "Al");
}

TEST(ExecutorTest, CastAndArithmetic) {
  Database db = MakeMusicDb();
  auto r = MustExecute(db,
                       "SELECT CAST(sales AS INTEGER), sales * 2 FROM song "
                       "WHERE song_id = 11");
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInteger(), 250);
  EXPECT_NEAR(r.rows[0][1].ToNumeric(), 501.0, 1e-9);
}

TEST(ExecutorTest, DivisionByZeroYieldsNull) {
  Database db = MakeMusicDb();
  auto r = MustExecute(db, "SELECT 1 / 0 FROM singer LIMIT 1");
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_TRUE(r.rows[0][0].is_null());
}

TEST(ExecutorTest, NullComparisonExcludesRows) {
  Database db = MakeMusicDb();
  // Dave has NULL age: neither = nor != matches him.
  auto eq = MustExecute(db, "SELECT name FROM singer WHERE age = 30");
  auto ne = MustExecute(db, "SELECT name FROM singer WHERE age != 30");
  EXPECT_EQ(eq.NumRows() + ne.NumRows(), 3u);
}

TEST(ExecutorTest, BindErrors) {
  Database db = MakeMusicDb();
  EXPECT_FALSE(ExecuteSql(db, "SELECT nope FROM singer").ok());
  EXPECT_FALSE(ExecuteSql(db, "SELECT name FROM nonexistent").ok());
  // Ambiguous column across joined tables.
  EXPECT_FALSE(ExecuteSql(db,
                          "SELECT singer_id FROM singer JOIN song ON "
                          "singer.singer_id = song.singer_id")
                   .ok());
}

TEST(ExecutorTest, IsExecutablePredicate) {
  Database db = MakeMusicDb();
  EXPECT_TRUE(IsExecutable(db, "SELECT name FROM singer"));
  EXPECT_FALSE(IsExecutable(db, "SELECT bogus FROM singer"));
  EXPECT_FALSE(IsExecutable(db, "not sql at all"));
}

TEST(ExecutorTest, RepeatedExecutionOfSameAst) {
  // Re-running one bound statement (as TimedExecution does for VES) must
  // give the same result every time.
  Database db = MakeMusicDb();
  auto stmt = ParseSql(
      "SELECT country, COUNT(*) FROM singer GROUP BY country ORDER BY "
      "COUNT(*) DESC");
  ASSERT_TRUE(stmt.ok());
  const BoundStatement bound = Bind(std::move(*stmt), db.schema());
  auto first = Execute(db, bound);
  auto second = Execute(db, bound);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(ResultsEquivalent(*first, *second, /*ordered=*/true));
}

// ------------------------------------------------------------------- bind

BoundStatement MustBind(const Database& db, const std::string& sql) {
  auto stmt = ParseSql(sql);
  CODES_CHECK(stmt.ok());
  return Bind(std::move(stmt).value(), db.schema());
}

/// Exact table equality: same column names, same value kinds, same values.
bool SameTable(const ResultTable& a, const ResultTable& b) {
  if (a.column_names != b.column_names || a.rows.size() != b.rows.size()) {
    return false;
  }
  for (size_t r = 0; r < a.rows.size(); ++r) {
    if (a.rows[r].size() != b.rows[r].size()) return false;
    for (size_t c = 0; c < a.rows[r].size(); ++c) {
      const Value& x = a.rows[r][c];
      const Value& y = b.rows[r][c];
      if (x.is_null() != y.is_null() || x.is_integer() != y.is_integer() ||
          x.is_real() != y.is_real() || x.Compare(y) != 0) {
        return false;
      }
    }
  }
  return true;
}

TEST(SqlBindTest, ExecutionLeavesTheBoundStatementUnchanged) {
  Database db = MakeMusicDb();
  for (const char* sql : {
           "SELECT name, age AS x FROM singer ORDER BY 2",
           "SELECT name, age AS x FROM singer ORDER BY x DESC",
           "SELECT country AS c, COUNT(*) FROM singer GROUP BY c",
           "SELECT * FROM singer ORDER BY age",
       }) {
    const BoundStatement bound = MustBind(db, sql);
    const std::string text = bound.statement().ToSql();
    const std::string key = FingerprintOf(bound.statement()).ToKey();
    auto first = Execute(db, bound);
    ASSERT_TRUE(first.ok()) << sql << " -> " << first.status().ToString();
    EXPECT_EQ(bound.statement().ToSql(), text) << sql;
    EXPECT_EQ(FingerprintOf(bound.statement()).ToKey(), key) << sql;
    auto second = Execute(db, bound);
    ASSERT_TRUE(second.ok()) << sql;
    EXPECT_TRUE(SameTable(*first, *second)) << sql;
  }
}

TEST(SqlBindTest, BindRewritesPositionsAliasesAndStars) {
  Database db = MakeMusicDb();
  const BoundStatement by_position =
      MustBind(db, "SELECT name, age AS x FROM singer ORDER BY 2");
  EXPECT_EQ(by_position.statement().order_by[0].expr->ToSql(), "age");
  const BoundStatement by_alias =
      MustBind(db, "SELECT country AS c, COUNT(*) FROM singer GROUP BY c");
  EXPECT_EQ(by_alias.statement().group_by[0]->ToSql(), "country");
  const BoundStatement star = MustBind(db, "SELECT * FROM singer");
  EXPECT_EQ(star.statement().select_list.size(), 4u);

  // Ordered by age with NULL first, as ORDER BY age would be.
  ResultTable rows = Execute(db, by_position).value();
  ASSERT_EQ(rows.NumRows(), 4u);
  EXPECT_EQ(rows.rows[0][0].AsText(), "Dave");
  EXPECT_EQ(rows.rows[3][0].AsText(), "Bob");
}

TEST(SqlBindTest, HavingIntegerLiteralIsAConstantNotAPosition) {
  Database db = MakeMusicDb();
  // Every group passes a truthy constant and none a falsy one, as in
  // SQLite; only ORDER BY and GROUP BY read integers as positions.
  EXPECT_EQ(MustExecute(db, "SELECT country, COUNT(*) FROM singer "
                            "GROUP BY country HAVING 1")
                .NumRows(),
            3u);
  EXPECT_EQ(MustExecute(db, "SELECT country, COUNT(*) FROM singer "
                            "GROUP BY country HAVING 0")
                .NumRows(),
            0u);
  const BoundStatement bound = MustBind(
      db, "SELECT country, COUNT(*) FROM singer GROUP BY 1 HAVING 2");
  EXPECT_EQ(bound.statement().group_by[0]->ToSql(), "country");
  EXPECT_EQ(bound.statement().having->ToSql(), "2");
}

TEST(SqlBindTest, HavingAliasResolvesInsideAnExpression) {
  Database db = MakeMusicDb();
  const BoundStatement bound = MustBind(
      db, "SELECT country, COUNT(*) AS c FROM singer GROUP BY country "
          "HAVING c > 1 AND country != 'Canada'");
  EXPECT_EQ(bound.statement().having->ToSql(),
            "COUNT(*) > 1 AND country != 'Canada'");
  ResultTable rows = Execute(db, bound).value();
  ASSERT_EQ(rows.NumRows(), 1u);
  EXPECT_EQ(rows.rows[0][0].AsText(), "USA");
  EXPECT_EQ(rows.rows[0][1].AsInteger(), 2);

  // A subquery resolves names in its own scope: the outer alias does not
  // leak into it.
  auto leaked = ExecuteSql(
      db, "SELECT country, COUNT(*) AS c FROM singer GROUP BY country "
          "HAVING country IN (SELECT country FROM singer WHERE age > c)");
  ASSERT_FALSE(leaked.ok());
  EXPECT_EQ(leaked.status().message(), "no such column: c");
}

TEST(SqlBindTest, ArmedStepFailpointBeatsABindError) {
  Database db = MakeMusicDb();
  const BoundStatement bound = MustBind(db, "SELECT nope FROM singer");
  ASSERT_TRUE(Failpoints::Configure("executor.step=oneshot", 1).ok());
  {
    FailpointScope scope(7);
    auto faulted = Execute(db, bound);
    ASSERT_FALSE(faulted.ok());
    EXPECT_EQ(faulted.status().ToString(),
              Failpoints::FailStatus(FailpointSite::kExecutorStep)
                  .ToString());
    // The one-shot failpoint is spent; now the bind error shows.
    auto bind_error = Execute(db, bound);
    ASSERT_FALSE(bind_error.ok());
    EXPECT_EQ(bind_error.status().code(), StatusCode::kBindError);
    EXPECT_EQ(bind_error.status().message(), "no such column: nope");
  }
  Failpoints::Clear();
}

TEST(SqlBindTest, SubqueryBindErrorSurfacesOnlyWhenTheSubqueryRuns) {
  const std::string sql =
      "SELECT name FROM singer WHERE singer_id IN (SELECT nope FROM song)";
  Database db = MakeMusicDb();
  auto failed = ExecuteSql(db, sql);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kBindError);
  EXPECT_EQ(failed.status().message(), "no such column: nope");

  // Over an empty outer table the subquery never runs, so neither does
  // its bind error.
  Database empty(db.schema());
  auto ok = ExecuteSql(empty, sql);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->NumRows(), 0u);
}

TEST(SqlBindTest, RightArmBindErrorIsReportedAfterTheLeftArmRan) {
  Database db = MakeMusicDb();
  ExecLimits limits;
  limits.max_rows = 1000;
  ExecGuard left_only(limits);
  ASSERT_TRUE(ExecuteSql(db, "SELECT name FROM singer", &left_only).ok());
  ASSERT_GT(left_only.rows_charged(), 0u);

  ExecGuard guard(limits);
  auto result = ExecuteSql(
      db, "SELECT name FROM singer UNION SELECT nope FROM song", &guard);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kBindError);
  EXPECT_EQ(result.status().message(), "no such column: nope");
  EXPECT_EQ(guard.rows_charged(), left_only.rows_charged());

  // A left-arm bind error wins before anything runs.
  auto left_error =
      ExecuteSql(db, "SELECT bogus FROM singer UNION SELECT nope FROM song");
  ASSERT_FALSE(left_error.ok());
  EXPECT_EQ(left_error.status().message(), "no such column: bogus");
}

TEST(SqlBindConcurrencyTest, OneBoundStatementRunsFromEightThreads) {
  Database db = MakeMusicDb();
  const BoundStatement bound = MustBind(
      db,
      "SELECT country, COUNT(*) AS n, MAX(age) FROM singer "
      "WHERE singer_id IN (SELECT singer_id FROM song) GROUP BY country "
      "HAVING COUNT(*) >= 1 ORDER BY n DESC, 1 "
      "UNION SELECT title, singer_id, sales FROM song");
  auto expected = Execute(db, bound);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  ASSERT_EQ(expected->NumRows(), 6u);

  constexpr int kThreads = 8;
  constexpr int kRunsPerThread = 500;
  std::atomic<int> failed{0};
  std::atomic<int> wrong{0};
  ThreadPool pool(kThreads);
  pool.ParallelFor(kThreads, [&](size_t begin, size_t end) {
    for (size_t t = begin; t < end; ++t) {
      for (int run = 0; run < kRunsPerThread; ++run) {
        auto result = Execute(db, bound);
        if (!result.ok()) {
          failed.fetch_add(1, std::memory_order_relaxed);
        } else if (!SameTable(*result, *expected)) {
          wrong.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  });
  EXPECT_EQ(failed.load(), 0);
  EXPECT_EQ(wrong.load(), 0);
}

// ------------------------------------------------------------ result table

TEST(ResultTableTest, UnorderedEquivalenceIsMultiset) {
  ResultTable a;
  a.column_names = {"x"};
  a.rows = {{Value(int64_t{1})}, {Value(int64_t{2})}, {Value(int64_t{2})}};
  ResultTable b;
  b.column_names = {"y"};  // names ignored
  b.rows = {{Value(int64_t{2})}, {Value(int64_t{1})}, {Value(int64_t{2})}};
  EXPECT_TRUE(ResultsEquivalent(a, b, /*ordered=*/false));
  EXPECT_FALSE(ResultsEquivalent(a, b, /*ordered=*/true));
  // Different multiplicity fails.
  b.rows.pop_back();
  EXPECT_FALSE(ResultsEquivalent(a, b, /*ordered=*/false));
}

TEST(ResultTableTest, NumericToleranceInComparison) {
  ResultTable a;
  a.column_names = {"x"};
  a.rows = {{Value(1.0)}};
  ResultTable b;
  b.column_names = {"x"};
  b.rows = {{Value(1.0 + 1e-9)}};
  EXPECT_TRUE(ResultsEquivalent(a, b, /*ordered=*/false));
}

TEST(ResultTableTest, DifferentColumnCountNotEquivalent) {
  ResultTable a;
  a.column_names = {"x"};
  ResultTable b;
  b.column_names = {"x", "y"};
  EXPECT_FALSE(ResultsEquivalent(a, b, false));
}

// ----------------------------------------------------------------- catalog

TEST(CatalogTest, LookupsAreCaseInsensitive) {
  Database db = MakeMusicDb();
  EXPECT_TRUE(db.schema().FindTable("SINGER").has_value());
  EXPECT_TRUE(db.schema().tables[0].FindColumn("NAME").has_value());
  EXPECT_FALSE(db.schema().FindTable("unknown").has_value());
}

TEST(CatalogTest, DdlMentionsKeysAndComments) {
  Database db = MakeMusicDb();
  std::string ddl = db.schema().ToDdl();
  EXPECT_NE(ddl.find("CREATE TABLE singer"), std::string::npos);
  EXPECT_NE(ddl.find("PRIMARY KEY"), std::string::npos);
  EXPECT_NE(ddl.find("FOREIGN KEY"), std::string::npos);
  EXPECT_NE(ddl.find("-- singer name"), std::string::npos);
}

TEST(DatabaseTest, DistinctValuesProbe) {
  Database db = MakeMusicDb();
  auto values = db.DistinctValues("singer", "country", 2);
  ASSERT_EQ(values.size(), 2u);
  EXPECT_EQ(values[0].AsText(), "USA");
  EXPECT_EQ(values[1].AsText(), "Canada");
}

TEST(DatabaseTest, InsertValidation) {
  Database db = MakeMusicDb();
  EXPECT_FALSE(db.Insert("unknown", {}).ok());
  EXPECT_FALSE(db.Insert("singer", {Value(int64_t{9})}).ok());  // arity
}

TEST(DatabaseTest, CountsValues) {
  Database db = MakeMusicDb();
  EXPECT_EQ(db.TotalRows(), 8u);
  // 32 cells minus 2 NULLs.
  EXPECT_EQ(db.TotalValues(), 30u);
}

// --------------------------------------------------- AST round-trip matrix

/// Asserts ToSql -> parse -> ToSql is a fixpoint and that the reparsed
/// statement is structurally identical (same fingerprint key). This is the
/// same invariant the fuzzer's roundtrip oracle checks on random queries;
/// here each AST node kind gets a deliberate, named instance.
void ExpectRoundTrip(const std::string& sql) {
  auto first = ParseSql(sql);
  ASSERT_TRUE(first.ok()) << sql << " -> " << first.status().ToString();
  std::string canonical = (*first)->ToSql();
  auto second = ParseSql(canonical);
  ASSERT_TRUE(second.ok()) << canonical << " -> "
                           << second.status().ToString();
  EXPECT_EQ((*second)->ToSql(), canonical) << "not a fixpoint for: " << sql;
  EXPECT_EQ(FingerprintOf(**second).ToKey(), FingerprintOf(**first).ToKey())
      << "fingerprint drift for: " << sql;
}

TEST(RoundTripTest, EveryExprKindSurvivesSerialization) {
  const char* kQueries[] = {
      // kLiteral: integer, real, exponent, negative, text, NULL.
      "SELECT 1, 2.5, 1.5e3, -7, 'text', NULL FROM singer",
      // kColumnRef, bare and qualified.
      "SELECT name, singer.age FROM singer",
      // kStar, bare and table-qualified.
      "SELECT * FROM singer",
      "SELECT T1.* FROM singer AS T1 JOIN song AS T2 ON T2.singer_id = "
      "T1.singer_id",
      // kUnary: NOT, negate, IS NULL, IS NOT NULL.
      "SELECT name FROM singer WHERE NOT age > 30",
      "SELECT -age, -(age + 1) FROM singer",
      "SELECT name FROM singer WHERE age IS NULL",
      "SELECT name FROM singer WHERE age IS NOT NULL",
      // kBinary: comparisons, AND/OR nesting, arithmetic, concat, LIKE.
      "SELECT name FROM singer WHERE age = 30 AND (country = 'USA' OR age "
      "< 40)",
      "SELECT (age + 2) * 3 - age / 2 FROM singer",
      "SELECT name || '_x' FROM singer",
      "SELECT name FROM singer WHERE name LIKE 'A%'",
      "SELECT name FROM singer WHERE name NOT LIKE '%z%'",
      // kFunction: aggregates and scalar functions.
      "SELECT COUNT(*), COUNT(DISTINCT country), SUM(age), AVG(age), "
      "MIN(age), MAX(age) FROM singer",
      "SELECT ABS(-age), ROUND(2.567, 1), LENGTH(name), UPPER(name), "
      "LOWER(name) FROM singer",
      // kBetween / NOT BETWEEN.
      "SELECT name FROM singer WHERE age BETWEEN 25 AND 40",
      "SELECT name FROM singer WHERE age NOT BETWEEN -5 AND 25",
      // kInList / NOT IN, with negatives and NULL members.
      "SELECT name FROM singer WHERE age IN (-1, 30, NULL)",
      "SELECT name FROM singer WHERE country NOT IN ('USA', 'Peru')",
      // kInSubquery.
      "SELECT name FROM singer WHERE singer_id IN (SELECT singer_id FROM "
      "song WHERE sales > 80.0)",
      // kScalarSubquery.
      "SELECT name FROM singer WHERE age > (SELECT MIN(sales) FROM song)",
      // kCast to every type.
      "SELECT CAST(age AS REAL), CAST(name AS INTEGER), CAST(age AS TEXT) "
      "FROM singer",
      // Clause coverage: join, group/having, order/limit, distinct, set ops.
      "SELECT T1.name, COUNT(*) FROM singer AS T1 JOIN song AS T2 ON "
      "T2.singer_id = T1.singer_id GROUP BY T1.name HAVING COUNT(*) > 1 "
      "ORDER BY COUNT(*) DESC LIMIT 3",
      "SELECT DISTINCT country FROM singer ORDER BY country",
      "SELECT name FROM singer UNION SELECT title FROM song",
      "SELECT country FROM singer INTERSECT SELECT country FROM singer",
      "SELECT name FROM singer EXCEPT SELECT 'Alice' FROM singer",
  };
  for (const char* sql : kQueries) ExpectRoundTrip(sql);
}

TEST(RoundTripTest, PrecedenceRequiresParentheses) {
  // (1 + 2) * 3 must keep its parentheses; 1 + 2 * 3 must not grow any.
  auto grouped = ParseSql("SELECT (1 + 2) * 3 FROM singer");
  ASSERT_TRUE(grouped.ok());
  EXPECT_EQ((*grouped)->ToSql(), "SELECT (1 + 2) * 3 FROM singer");
  auto natural = ParseSql("SELECT 1 + 2 * 3 FROM singer");
  ASSERT_TRUE(natural.ok());
  EXPECT_EQ((*natural)->ToSql(), "SELECT 1 + 2 * 3 FROM singer");
  auto not_and = ParseSql("SELECT 1 FROM singer WHERE NOT (1 = 1 AND 2 = 2)");
  ASSERT_TRUE(not_and.ok());
  ExpectRoundTrip((*not_and)->ToSql());
}

// --------------------------------------------------------- NULL semantics

/// Schema with NULL-heavy data for three-valued-logic tests:
///   reading(reading_id PK, sensor, level)  — level mostly NULL.
Database MakeNullDb() {
  DatabaseSchema schema;
  schema.name = "nulls";
  TableDef reading;
  reading.name = "reading";
  reading.columns = {
      {"reading_id", DataType::kInteger, "", true},
      {"sensor", DataType::kText, "", false},
      {"level", DataType::kReal, "", false},
  };
  schema.tables = {reading};
  Database db(std::move(schema));
  auto ins = [&db](int64_t id, Value sensor, Value level) {
    ASSERT_TRUE(db.Insert("reading", {Value(id), std::move(sensor),
                                      std::move(level)}).ok());
  };
  ins(1, Value("a"), Value(4.0));
  ins(2, Value("a"), Value());
  ins(3, Value(), Value());
  ins(4, Value(), Value(2.0));
  ins(5, Value("b"), Value());
  return db;
}

TEST(NullSemanticsTest, ComparisonsWithNullNeverMatch) {
  Database db = MakeMusicDb();  // Dave's age is NULL
  struct Case {
    const char* where;
    size_t rows;
  } kCases[] = {
      {"age = NULL", 0},          // = NULL is UNKNOWN, never TRUE
      {"age != NULL", 0},
      {"NOT age = NULL", 0},      // NOT UNKNOWN is still UNKNOWN
      {"age < NULL", 0},
      {"age = 30", 2},
      {"age = 30 OR age = NULL", 2},     // UNKNOWN OR TRUE = TRUE
      {"age = 30 AND age = NULL", 0},    // TRUE AND UNKNOWN = UNKNOWN
      {"age IS NULL", 1},
      {"age IS NOT NULL", 3},
      {"age IN (30, NULL)", 2},          // matches still count
      {"age NOT IN (25, NULL)", 0},      // NULL member poisons NOT IN
      {"age NOT IN (25, 26)", 3},
      {"age BETWEEN NULL AND 50", 0},
  };
  for (const auto& c : kCases) {
    std::string sql =
        std::string("SELECT name FROM singer WHERE ") + c.where;
    ResultTable r = MustExecute(db, sql);
    EXPECT_EQ(r.NumRows(), c.rows) << sql;
  }
}

TEST(NullSemanticsTest, NullGroupByKeysFormOneGroup) {
  Database db = MakeNullDb();
  ResultTable r = MustExecute(
      db, "SELECT sensor, COUNT(*) FROM reading GROUP BY sensor "
          "ORDER BY sensor");
  // Groups: NULL (2 rows), 'a' (2 rows), 'b' (1 row) — NULL sorts first.
  ASSERT_EQ(r.NumRows(), 3u);
  EXPECT_TRUE(r.rows[0][0].is_null());
  EXPECT_EQ(r.rows[0][1].AsInteger(), 2);
  EXPECT_EQ(r.rows[1][0].AsText(), "a");
  EXPECT_EQ(r.rows[1][1].AsInteger(), 2);
  EXPECT_EQ(r.rows[2][0].AsText(), "b");
  EXPECT_EQ(r.rows[2][1].AsInteger(), 1);
}

TEST(NullSemanticsTest, AggregatesSkipNullsAndAllNullInputs) {
  Database db = MakeNullDb();
  // Only readings 1 and 4 have non-NULL levels (4.0 and 2.0).
  ResultTable r = MustExecute(
      db, "SELECT COUNT(*), COUNT(level), SUM(level), AVG(level), "
          "MIN(level), MAX(level) FROM reading");
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInteger(), 5);  // COUNT(*) counts NULL rows
  EXPECT_EQ(r.rows[0][1].AsInteger(), 2);  // COUNT(col) does not
  EXPECT_DOUBLE_EQ(r.rows[0][2].ToNumeric(), 6.0);
  EXPECT_DOUBLE_EQ(r.rows[0][3].ToNumeric(), 3.0);
  EXPECT_DOUBLE_EQ(r.rows[0][4].ToNumeric(), 2.0);
  EXPECT_DOUBLE_EQ(r.rows[0][5].ToNumeric(), 4.0);

  // Over an all-NULL input set, COUNT is 0 and every other aggregate NULL.
  ResultTable empty = MustExecute(
      db, "SELECT COUNT(level), SUM(level), AVG(level), MIN(level), "
          "MAX(level) FROM reading WHERE sensor = 'b'");
  ASSERT_EQ(empty.NumRows(), 1u);
  EXPECT_EQ(empty.rows[0][0].AsInteger(), 0);
  for (size_t c = 1; c < 5; ++c) {
    EXPECT_TRUE(empty.rows[0][c].is_null()) << "aggregate column " << c;
  }
}

TEST(NullSemanticsTest, OrderByPlacesNullsFirstAscLastDesc) {
  Database db = MakeNullDb();
  ResultTable asc =
      MustExecute(db, "SELECT level FROM reading ORDER BY level");
  ASSERT_EQ(asc.NumRows(), 5u);
  EXPECT_TRUE(asc.rows[0][0].is_null());
  EXPECT_TRUE(asc.rows[1][0].is_null());
  EXPECT_TRUE(asc.rows[2][0].is_null());
  EXPECT_DOUBLE_EQ(asc.rows[3][0].ToNumeric(), 2.0);
  EXPECT_DOUBLE_EQ(asc.rows[4][0].ToNumeric(), 4.0);

  ResultTable desc =
      MustExecute(db, "SELECT level FROM reading ORDER BY level DESC");
  EXPECT_DOUBLE_EQ(desc.rows[0][0].ToNumeric(), 4.0);
  EXPECT_DOUBLE_EQ(desc.rows[1][0].ToNumeric(), 2.0);
  EXPECT_TRUE(desc.rows[2][0].is_null());
}

TEST(NullSemanticsTest, NullPropagatesThroughExpressions) {
  Database db = MakeNullDb();
  ResultTable r = MustExecute(
      db, "SELECT level + 1, -level, level || 'x', CAST(level AS INTEGER) "
          "FROM reading WHERE reading_id = 2");
  ASSERT_EQ(r.NumRows(), 1u);
  for (size_t c = 0; c < 4; ++c) {
    EXPECT_TRUE(r.rows[0][c].is_null()) << "column " << c;
  }
}

TEST(NullSemanticsTest, TextNumericCoercionIsDecimalOnly) {
  // 'Nancy' must coerce to 0.0, not NaN: bare strtod accepts "nan"/"inf"
  // prefixes, which poisoned comparisons (the fuzzer's rerun oracle caught
  // this; see tests/fuzz_corpus/engine_bugs.corpus).
  EXPECT_DOUBLE_EQ(Value("Nancy").ToNumeric(), 0.0);
  EXPECT_DOUBLE_EQ(Value("Infinity Falls").ToNumeric(), 0.0);
  EXPECT_DOUBLE_EQ(Value("nan").ToNumeric(), 0.0);
  EXPECT_DOUBLE_EQ(Value("inf").ToNumeric(), 0.0);
  EXPECT_DOUBLE_EQ(Value("0x10").ToNumeric(), 0.0);
  EXPECT_DOUBLE_EQ(Value("  -12.5e1abc").ToNumeric(), -125.0);
  EXPECT_DOUBLE_EQ(Value(".5z").ToNumeric(), 0.5);
  EXPECT_DOUBLE_EQ(Value("+3").ToNumeric(), 3.0);
  EXPECT_DOUBLE_EQ(Value("-").ToNumeric(), 0.0);
  EXPECT_DOUBLE_EQ(Value("").ToNumeric(), 0.0);
}

}  // namespace
}  // namespace codes::sql
