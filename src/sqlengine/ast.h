#ifndef CODES_SQLENGINE_AST_H_
#define CODES_SQLENGINE_AST_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sqlengine/value.h"

namespace codes::sql {

struct SelectStatement;

/// Expression node kinds.
enum class ExprKind {
  kLiteral,         ///< constant Value
  kColumnRef,       ///< [table.]column
  kStar,            ///< '*' (only valid inside COUNT(*) or SELECT *)
  kUnary,           ///< NOT e, -e, e IS NULL, e IS NOT NULL
  kBinary,          ///< e op e
  kFunction,        ///< f(args) — aggregates and scalar functions
  kBetween,         ///< e BETWEEN lo AND hi
  kInList,          ///< e IN (v1, v2, ...) / NOT IN
  kInSubquery,      ///< e IN (SELECT ...) / NOT IN
  kScalarSubquery,  ///< (SELECT ...) used as a value
  kCast,            ///< CAST(e AS TYPE)
};

enum class UnaryOp { kNot, kNegate, kIsNull, kIsNotNull };

enum class BinaryOp {
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAnd,
  kOr,
  kAdd,
  kSub,
  kMul,
  kDiv,
  kConcat,
  kLike,
  kNotLike,
};

/// Returns the SQL spelling of `op` ("=", "<=", "AND", ...).
const char* BinaryOpName(BinaryOp op);

/// A SQL expression tree node. A single struct (rather than a class
/// hierarchy) keeps the parser, serializer, and executor compact; unused
/// fields are ignored for a given `kind`.
struct Expr {
  ExprKind kind = ExprKind::kLiteral;

  // kLiteral
  Value literal;

  // kColumnRef
  std::string table;   ///< optional qualifier (table name or alias)
  std::string column;

  // kUnary / kBinary
  UnaryOp unary_op = UnaryOp::kNot;
  BinaryOp binary_op = BinaryOp::kEq;

  // Children: unary (1), binary (2), between (3: value, lo, hi),
  // in-list (1 + list handled via `in_list`), function args, cast (1).
  std::vector<std::unique_ptr<Expr>> children;

  // kFunction
  std::string function;       ///< uppercase name, e.g. "COUNT"
  bool distinct_arg = false;  ///< COUNT(DISTINCT x)

  // kInList
  std::vector<Value> in_list;
  bool negated = false;  ///< NOT IN / NOT BETWEEN

  // kInSubquery / kScalarSubquery
  std::unique_ptr<SelectStatement> subquery;

  // kCast
  DataType cast_type = DataType::kText;

  // ----- Bind output (filled once by sql::Bind; see bind.h) -----
  /// kColumnRef: flat index of the column in the working row; -1 when
  /// unbound.
  int resolved_index = -1;
  /// Aggregate call: its slot among the aggregate values its SELECT
  /// computes per group; -1 when unbound or when no group computes it
  /// (WHERE, GROUP BY, inside another aggregate's argument).
  int agg_slot = -1;

  /// Serializes the expression back to SQL text.
  std::string ToSql() const;

  /// Deep copy. A clone is unbound: resolved_index and agg_slot are not
  /// copied, so bind the statement that holds it before executing it.
  std::unique_ptr<Expr> Clone() const;

  /// True if this node is an aggregate function call (COUNT/SUM/...).
  bool IsAggregate() const;

  /// True if any node in the subtree is an aggregate call.
  bool ContainsAggregate() const;

  // ----- Convenience factories -----
  static std::unique_ptr<Expr> MakeLiteral(Value v);
  static std::unique_ptr<Expr> MakeColumn(std::string table, std::string column);
  static std::unique_ptr<Expr> MakeStar();
  static std::unique_ptr<Expr> MakeUnary(UnaryOp op, std::unique_ptr<Expr> e);
  static std::unique_ptr<Expr> MakeBinary(BinaryOp op, std::unique_ptr<Expr> l,
                                          std::unique_ptr<Expr> r);
  static std::unique_ptr<Expr> MakeFunction(std::string name,
                                            std::vector<std::unique_ptr<Expr>> args,
                                            bool distinct = false);
};

/// One item of the SELECT list: expression plus optional alias.
struct SelectItem {
  std::unique_ptr<Expr> expr;
  std::string alias;
};

/// A table reference with optional alias ("singer AS T1").
struct TableRef {
  std::string table;
  std::string alias;

  /// Alias if present, else the table name — the name columns bind to.
  const std::string& BindingName() const { return alias.empty() ? table : alias; }
};

/// An INNER JOIN clause with its ON condition.
struct JoinClause {
  TableRef table;
  std::unique_ptr<Expr> condition;  ///< may be null (cross join)
};

/// One ORDER BY key.
struct OrderItem {
  std::unique_ptr<Expr> expr;
  bool ascending = true;
};

/// Set operation linking two SELECTs.
enum class SetOp { kNone, kUnion, kUnionAll, kIntersect, kExcept };

/// A SELECT statement (possibly with a chained set operation).
struct SelectStatement {
  bool distinct = false;
  std::vector<SelectItem> select_list;
  TableRef from;
  std::vector<JoinClause> joins;
  std::unique_ptr<Expr> where;
  std::vector<std::unique_ptr<Expr>> group_by;
  std::unique_ptr<Expr> having;
  std::vector<OrderItem> order_by;
  std::optional<int64_t> limit;

  SetOp set_op = SetOp::kNone;
  std::unique_ptr<SelectStatement> set_rhs;

  /// Serializes back to SQL text.
  std::string ToSql() const;

  /// Deep copy; like Expr::Clone, the copy is unbound.
  std::unique_ptr<SelectStatement> Clone() const;

  /// True if this query (or a set-op arm) orders its output; execution
  /// results are then compared order-sensitively.
  bool HasOrderBy() const { return !order_by.empty(); }
};

}  // namespace codes::sql

#endif  // CODES_SQLENGINE_AST_H_
