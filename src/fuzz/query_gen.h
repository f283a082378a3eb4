#ifndef CODES_FUZZ_QUERY_GEN_H_
#define CODES_FUZZ_QUERY_GEN_H_

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "sqlengine/ast.h"
#include "sqlengine/database.h"

namespace codes::fuzz {

/// Catalog-driven random SELECT generator. Every query it produces
/// parses, round-trips through ToSql(), and executes without error on
/// the database it was built for; the stream of queries is a pure
/// function of the `Rng` passed to Generate (the generator itself holds
/// no mutable state).
///
/// Tables are aliased T1..Tn and every column reference is
/// alias-qualified, so generated text never depends on name-resolution
/// tie-breaking. Real-valued literals are quantized through
/// Value::ToSqlLiteral so that serialize -> parse preserves them
/// exactly.
class QueryGenerator {
 public:
  explicit QueryGenerator(const sql::Database& db);

  QueryGenerator(QueryGenerator&&) = default;

  /// Generates one random SELECT statement.
  std::unique_ptr<sql::SelectStatement> Generate(Rng& rng) const;

  /// Generates a simple row-local predicate over the tables referenced by
  /// `stmt` (used by the TLP oracle to partition a query's WHERE clause).
  /// The predicate is NULL-heavy by design: IS NULL tests, IN lists
  /// containing NULL, and comparisons against NULL literals are common.
  std::unique_ptr<sql::Expr> GeneratePredicateFor(
      const sql::SelectStatement& stmt, Rng& rng) const;

  const sql::Database& db() const { return db_; }

 private:
  /// A column visible in a statement scope under a binding qualifier.
  struct BoundColumn {
    std::string qualifier;  ///< alias ("T1") or table name
    std::string table;      ///< underlying table name
    const sql::ColumnDef* def = nullptr;
    int table_index = 0;
    int column_index = 0;
  };

  std::vector<BoundColumn> ScopeOf(const sql::SelectStatement& stmt) const;
  void AppendTableColumns(const std::string& qualifier, int table_index,
                          std::vector<BoundColumn>* scope) const;

  const BoundColumn& PickColumn(const std::vector<BoundColumn>& scope,
                                Rng& rng) const;
  const BoundColumn* PickTypedColumn(const std::vector<BoundColumn>& scope,
                                     bool numeric, Rng& rng) const;

  /// A literal drawn from the column's value pool (or NULL).
  std::unique_ptr<sql::Expr> LiteralFor(const BoundColumn& col,
                                        Rng& rng) const;
  sql::Value PoolValue(const BoundColumn& col, Rng& rng) const;

  std::unique_ptr<sql::Expr> ScalarExpr(const std::vector<BoundColumn>& scope,
                                        int depth, Rng& rng) const;
  std::unique_ptr<sql::Expr> Predicate(const std::vector<BoundColumn>& scope,
                                       int depth, Rng& rng) const;
  std::unique_ptr<sql::Expr> LeafPredicate(
      const std::vector<BoundColumn>& scope, Rng& rng) const;
  std::unique_ptr<sql::Expr> AggregateExpr(
      const std::vector<BoundColumn>& scope, Rng& rng) const;

  /// Uncorrelated single-column subquery over a random table.
  std::unique_ptr<sql::SelectStatement> SubquerySelect(sql::DataType type,
                                                       bool scalar,
                                                       Rng& rng) const;

  const sql::Database& db_;
  /// literal_pool_[t][c] = quantized distinct values of column c of table t.
  std::vector<std::vector<std::vector<sql::Value>>> literal_pool_;
};

}  // namespace codes::fuzz

#endif  // CODES_FUZZ_QUERY_GEN_H_
