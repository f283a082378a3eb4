#include "fuzz/query_gen.h"

#include <cstdlib>
#include <string>
#include <utility>

#include "common/status.h"

namespace codes::fuzz {

using sql::BinaryOp;
using sql::DataType;
using sql::Expr;
using sql::ExprKind;
using sql::SelectStatement;
using sql::UnaryOp;
using sql::Value;

namespace {

// Shape of the generated queries. Probabilities are independent
// per-feature draws; the mix makes every executor code path (joins,
// grouping, subqueries, set ops, NULL-heavy predicates) appear in a few
// percent of queries.
constexpr int kMaxJoins = 2;            // extra tables beyond FROM
constexpr int kMaxPredicateDepth = 3;   // AND/OR/NOT nesting budget
constexpr double kJoinProbability = 0.4;
constexpr double kWhereProbability = 0.75;
constexpr double kAggregateProbability = 0.3;
constexpr double kGroupByProbability = 0.6;  // given aggregate mode
constexpr double kHavingProbability = 0.4;   // given GROUP BY
constexpr double kOrderByProbability = 0.4;
constexpr double kLimitProbability = 0.3;
constexpr double kDistinctProbability = 0.12;
constexpr double kSetOpProbability = 0.06;
// IN (SELECT ...) and scalar-subquery leaves.
constexpr double kSubqueryProbability = 0.12;
constexpr double kNullLiteralProbability = 0.12;
constexpr double kStarProbability = 0.12;  // '*' or 'T1.*' select list
constexpr int kMaxSelectItems = 4;
constexpr int kMaxInList = 4;
constexpr size_t kMaxLiteralsPerColumn = 8;  // distinct-value pool size

bool IsNumeric(DataType type) {
  return type == DataType::kInteger || type == DataType::kReal;
}

/// Quantizes a value through its own SQL spelling so that a literal built
/// from it survives serialize -> lex -> strtod bit-exactly (the engine
/// prints reals with %.6g, which drops precision past six significant
/// digits).
Value Quantize(const Value& v) {
  if (!v.is_real()) return v;
  std::string text = v.ToSqlLiteral();
  double d = std::strtod(text.c_str(), nullptr);
  if (d == 0.0) d = 0.0;  // normalize -0.0, whose sign survives printing
  return Value(d);
}

/// Builds a literal expression shaped the way the parser would shape it:
/// negative numbers become unary minus over a positive literal, because
/// that is what "-5" re-parses to (a bare negative kLiteral would break
/// the round-trip oracle's structural fingerprint comparison).
std::unique_ptr<Expr> MakeLiteralExpr(Value v) {
  bool negative = (v.is_integer() && v.AsInteger() < 0) ||
                  (v.is_real() && v.AsReal() < 0.0);
  if (!negative) return Expr::MakeLiteral(std::move(v));
  Value positive =
      v.is_integer() ? Value(-v.AsInteger()) : Value(-v.AsReal());
  return Expr::MakeUnary(UnaryOp::kNegate,
                         Expr::MakeLiteral(std::move(positive)));
}

std::string AliasFor(size_t index) { return "T" + std::to_string(index + 1); }

}  // namespace

QueryGenerator::QueryGenerator(const sql::Database& db) : db_(db) {
  const auto& tables = db_.schema().tables;
  literal_pool_.resize(tables.size());
  for (size_t t = 0; t < tables.size(); ++t) {
    literal_pool_[t].resize(tables[t].columns.size());
    for (size_t c = 0; c < tables[t].columns.size(); ++c) {
      auto values = db_.DistinctValues(static_cast<int>(t),
                                       static_cast<int>(c),
                                       kMaxLiteralsPerColumn);
      for (auto& v : values) v = Quantize(v);
      literal_pool_[t][c] = std::move(values);
    }
  }
}

void QueryGenerator::AppendTableColumns(
    const std::string& qualifier, int table_index,
    std::vector<BoundColumn>* scope) const {
  const auto& table = db_.schema().tables[table_index];
  for (size_t c = 0; c < table.columns.size(); ++c) {
    BoundColumn col;
    col.qualifier = qualifier;
    col.table = table.name;
    col.def = &table.columns[c];
    col.table_index = table_index;
    col.column_index = static_cast<int>(c);
    scope->push_back(std::move(col));
  }
}

std::vector<QueryGenerator::BoundColumn> QueryGenerator::ScopeOf(
    const SelectStatement& stmt) const {
  std::vector<BoundColumn> scope;
  auto add = [&](const sql::TableRef& ref) {
    auto idx = db_.schema().FindTable(ref.table);
    if (idx.has_value()) AppendTableColumns(ref.BindingName(), *idx, &scope);
  };
  add(stmt.from);
  for (const auto& join : stmt.joins) add(join.table);
  return scope;
}

const QueryGenerator::BoundColumn& QueryGenerator::PickColumn(
    const std::vector<BoundColumn>& scope, Rng& rng) const {
  return scope[rng.Index(scope.size())];
}

const QueryGenerator::BoundColumn* QueryGenerator::PickTypedColumn(
    const std::vector<BoundColumn>& scope, bool numeric, Rng& rng) const {
  std::vector<const BoundColumn*> matches;
  for (const auto& col : scope) {
    if (IsNumeric(col.def->type) == numeric) matches.push_back(&col);
  }
  if (matches.empty()) return nullptr;
  return matches[rng.Index(matches.size())];
}

Value QueryGenerator::PoolValue(const BoundColumn& col, Rng& rng) const {
  const auto& pool = literal_pool_[col.table_index][col.column_index];
  if (!pool.empty() && !rng.Bernoulli(0.2)) return rng.Pick(pool);
  // Synthesized fallback keeps predicates interesting even for columns
  // whose pool is empty (e.g. an all-NULL column).
  switch (col.def->type) {
    case DataType::kInteger:
      return Value(rng.UniformInt(-5, 50));
    case DataType::kReal:
      return Quantize(Value(rng.UniformDouble(-10.0, 100.0)));
    case DataType::kText:
      return Value(std::string(1, static_cast<char>('a' + rng.Index(26))));
  }
  return Value();
}

std::unique_ptr<Expr> QueryGenerator::LiteralFor(const BoundColumn& col,
                                                 Rng& rng) const {
  if (rng.Bernoulli(kNullLiteralProbability)) {
    return Expr::MakeLiteral(Value());
  }
  return MakeLiteralExpr(PoolValue(col, rng));
}

std::unique_ptr<SelectStatement> QueryGenerator::SubquerySelect(
    DataType type, bool scalar, Rng& rng) const {
  const auto& tables = db_.schema().tables;
  // Find a table owning a column of the requested type; the catalog always
  // has integer primary keys, so an integer request cannot fail.
  std::vector<std::pair<int, int>> candidates;
  for (size_t t = 0; t < tables.size(); ++t) {
    for (size_t c = 0; c < tables[t].columns.size(); ++c) {
      if (tables[t].columns[c].type == type) {
        candidates.emplace_back(static_cast<int>(t), static_cast<int>(c));
      }
    }
  }
  if (candidates.empty()) return nullptr;
  auto [t, c] = candidates[rng.Index(candidates.size())];

  auto stmt = std::make_unique<SelectStatement>();
  stmt->from.table = tables[t].name;

  std::vector<BoundColumn> scope;
  AppendTableColumns(tables[t].name, t, &scope);
  const BoundColumn& target = scope[static_cast<size_t>(c)];

  auto col_expr = Expr::MakeColumn(target.qualifier, target.def->name);
  sql::SelectItem item;
  if (scalar) {
    // A scalar subquery must yield exactly one value; aggregating
    // guarantees that regardless of the table contents.
    std::vector<std::unique_ptr<Expr>> args;
    args.push_back(std::move(col_expr));
    const char* fn = IsNumeric(type) ? (rng.Bernoulli(0.5) ? "MAX" : "MIN")
                                     : "MIN";
    item.expr = Expr::MakeFunction(fn, std::move(args));
  } else {
    item.expr = std::move(col_expr);
  }
  stmt->select_list.push_back(std::move(item));

  if (rng.Bernoulli(0.5)) {
    stmt->where = LeafPredicate(scope, rng);
  }
  return stmt;
}

std::unique_ptr<Expr> QueryGenerator::ScalarExpr(
    const std::vector<BoundColumn>& scope, int depth, Rng& rng) const {
  const BoundColumn& col = PickColumn(scope, rng);
  if (depth <= 0 || rng.Bernoulli(0.55)) {
    return Expr::MakeColumn(col.qualifier, col.def->name);
  }
  switch (rng.Index(6)) {
    case 0: {  // arithmetic on a numeric column
      const BoundColumn* num = PickTypedColumn(scope, /*numeric=*/true, rng);
      if (num == nullptr) break;
      static constexpr BinaryOp kOps[] = {BinaryOp::kAdd, BinaryOp::kSub,
                                          BinaryOp::kMul, BinaryOp::kDiv};
      BinaryOp op = kOps[rng.Index(4)];
      auto lhs = Expr::MakeColumn(num->qualifier, num->def->name);
      auto rhs = rng.Bernoulli(0.5)
                     ? ScalarExpr(scope, depth - 1, rng)
                     : Expr::MakeLiteral(Value(rng.UniformInt(1, 9)));
      return Expr::MakeBinary(op, std::move(lhs), std::move(rhs));
    }
    case 1: {  // unary minus
      const BoundColumn* num = PickTypedColumn(scope, /*numeric=*/true, rng);
      if (num == nullptr) break;
      return Expr::MakeUnary(UnaryOp::kNegate,
                             Expr::MakeColumn(num->qualifier, num->def->name));
    }
    case 2: {  // numeric scalar function
      const BoundColumn* num = PickTypedColumn(scope, /*numeric=*/true, rng);
      if (num == nullptr) break;
      std::vector<std::unique_ptr<Expr>> args;
      args.push_back(Expr::MakeColumn(num->qualifier, num->def->name));
      if (rng.Bernoulli(0.5)) {
        args.push_back(Expr::MakeLiteral(Value(rng.UniformInt(0, 2))));
        return Expr::MakeFunction("ROUND", std::move(args));
      }
      return Expr::MakeFunction("ABS", std::move(args));
    }
    case 3: {  // text scalar function
      const BoundColumn* text = PickTypedColumn(scope, /*numeric=*/false, rng);
      if (text == nullptr) break;
      std::vector<std::unique_ptr<Expr>> args;
      args.push_back(Expr::MakeColumn(text->qualifier, text->def->name));
      static constexpr const char* kFns[] = {"LENGTH", "UPPER", "LOWER"};
      return Expr::MakeFunction(kFns[rng.Index(3)], std::move(args));
    }
    case 4: {  // CAST
      auto inner = Expr::MakeColumn(col.qualifier, col.def->name);
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kCast;
      e->children.push_back(std::move(inner));
      static constexpr DataType kTypes[] = {DataType::kInteger, DataType::kReal,
                                            DataType::kText};
      e->cast_type = kTypes[rng.Index(3)];
      return e;
    }
    case 5: {  // concatenation
      const BoundColumn* text = PickTypedColumn(scope, /*numeric=*/false, rng);
      if (text == nullptr) break;
      auto lhs = Expr::MakeColumn(text->qualifier, text->def->name);
      auto rhs = Expr::MakeLiteral(Value(std::string("_") +
                                         static_cast<char>('a' + rng.Index(26))));
      return Expr::MakeBinary(BinaryOp::kConcat, std::move(lhs),
                              std::move(rhs));
    }
  }
  return Expr::MakeColumn(col.qualifier, col.def->name);
}

std::unique_ptr<Expr> QueryGenerator::LeafPredicate(
    const std::vector<BoundColumn>& scope, Rng& rng) const {
  const BoundColumn& col = PickColumn(scope, rng);
  switch (rng.Index(7)) {
    case 0: {  // IS [NOT] NULL
      auto ref = Expr::MakeColumn(col.qualifier, col.def->name);
      UnaryOp op = rng.Bernoulli(0.5) ? UnaryOp::kIsNull : UnaryOp::kIsNotNull;
      return Expr::MakeUnary(op, std::move(ref));
    }
    case 1: {  // BETWEEN over a numeric column
      const BoundColumn* num = PickTypedColumn(scope, /*numeric=*/true, rng);
      if (num == nullptr) break;
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kBetween;
      e->negated = rng.Bernoulli(0.25);
      e->children.push_back(Expr::MakeColumn(num->qualifier, num->def->name));
      e->children.push_back(LiteralFor(*num, rng));
      e->children.push_back(LiteralFor(*num, rng));
      return e;
    }
    case 2: {  // IN (literal list), NULL member sometimes
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kInList;
      e->negated = rng.Bernoulli(0.3);
      e->children.push_back(Expr::MakeColumn(col.qualifier, col.def->name));
      int n = static_cast<int>(rng.UniformInt(1, kMaxInList));
      for (int i = 0; i < n; ++i) e->in_list.push_back(PoolValue(col, rng));
      if (rng.Bernoulli(0.25)) e->in_list.push_back(Value());
      return e;
    }
    case 3: {  // [NOT] LIKE on a text column
      const BoundColumn* text = PickTypedColumn(scope, /*numeric=*/false, rng);
      if (text == nullptr) break;
      Value sample = PoolValue(*text, rng);
      std::string base = sample.is_text() ? sample.AsText() : "a";
      if (base.empty()) base = "a";
      std::string fragment = base.substr(0, rng.Index(base.size()) + 1);
      std::string pattern;
      switch (rng.Index(3)) {
        case 0: pattern = fragment + "%"; break;
        case 1: pattern = "%" + fragment + "%"; break;
        default: pattern = "%" + fragment; break;
      }
      BinaryOp op = rng.Bernoulli(0.25) ? BinaryOp::kNotLike : BinaryOp::kLike;
      return Expr::MakeBinary(op,
                              Expr::MakeColumn(text->qualifier, text->def->name),
                              Expr::MakeLiteral(Value(std::move(pattern))));
    }
    case 4: {  // [NOT] IN (SELECT ...)
      if (!rng.Bernoulli(kSubqueryProbability * 2)) break;
      auto sub = SubquerySelect(col.def->type, /*scalar=*/false, rng);
      if (sub == nullptr) break;
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kInSubquery;
      e->negated = rng.Bernoulli(0.3);
      e->children.push_back(Expr::MakeColumn(col.qualifier, col.def->name));
      e->subquery = std::move(sub);
      return e;
    }
    case 5: {  // comparison against a scalar subquery
      if (!rng.Bernoulli(kSubqueryProbability * 2)) break;
      const BoundColumn* num = PickTypedColumn(scope, /*numeric=*/true, rng);
      if (num == nullptr) break;
      auto sub = SubquerySelect(num->def->type, /*scalar=*/true, rng);
      if (sub == nullptr) break;
      auto rhs = std::make_unique<Expr>();
      rhs->kind = ExprKind::kScalarSubquery;
      rhs->subquery = std::move(sub);
      static constexpr BinaryOp kOps[] = {BinaryOp::kEq, BinaryOp::kLt,
                                          BinaryOp::kGe};
      return Expr::MakeBinary(kOps[rng.Index(3)],
                              Expr::MakeColumn(num->qualifier, num->def->name),
                              std::move(rhs));
    }
    default:
      break;
  }
  // Plain comparison: column vs literal (common) or vs a same-class column.
  static constexpr BinaryOp kCmp[] = {BinaryOp::kEq, BinaryOp::kNe,
                                      BinaryOp::kLt, BinaryOp::kLe,
                                      BinaryOp::kGt, BinaryOp::kGe};
  BinaryOp op = kCmp[rng.Index(6)];
  auto lhs = Expr::MakeColumn(col.qualifier, col.def->name);
  std::unique_ptr<Expr> rhs;
  const BoundColumn* peer =
      PickTypedColumn(scope, IsNumeric(col.def->type), rng);
  if (peer != nullptr && rng.Bernoulli(0.25)) {
    rhs = Expr::MakeColumn(peer->qualifier, peer->def->name);
  } else {
    rhs = LiteralFor(col, rng);
  }
  return Expr::MakeBinary(op, std::move(lhs), std::move(rhs));
}

std::unique_ptr<Expr> QueryGenerator::Predicate(
    const std::vector<BoundColumn>& scope, int depth, Rng& rng) const {
  if (depth <= 0 || rng.Bernoulli(0.45)) return LeafPredicate(scope, rng);
  switch (rng.Index(3)) {
    case 0:
      return Expr::MakeBinary(BinaryOp::kAnd, Predicate(scope, depth - 1, rng),
                              Predicate(scope, depth - 1, rng));
    case 1:
      return Expr::MakeBinary(BinaryOp::kOr, Predicate(scope, depth - 1, rng),
                              Predicate(scope, depth - 1, rng));
    default:
      return Expr::MakeUnary(UnaryOp::kNot, Predicate(scope, depth - 1, rng));
  }
}

std::unique_ptr<Expr> QueryGenerator::AggregateExpr(
    const std::vector<BoundColumn>& scope, Rng& rng) const {
  switch (rng.Index(5)) {
    case 0: {  // COUNT(*)
      std::vector<std::unique_ptr<Expr>> args;
      args.push_back(Expr::MakeStar());
      return Expr::MakeFunction("COUNT", std::move(args));
    }
    case 1: {  // COUNT([DISTINCT] col)
      const BoundColumn& col = PickColumn(scope, rng);
      std::vector<std::unique_ptr<Expr>> args;
      args.push_back(Expr::MakeColumn(col.qualifier, col.def->name));
      return Expr::MakeFunction("COUNT", std::move(args), rng.Bernoulli(0.3));
    }
    case 2:
    case 3: {  // SUM / AVG over a numeric column
      const BoundColumn* num = PickTypedColumn(scope, /*numeric=*/true, rng);
      if (num == nullptr) break;
      std::vector<std::unique_ptr<Expr>> args;
      args.push_back(Expr::MakeColumn(num->qualifier, num->def->name));
      return Expr::MakeFunction(rng.Bernoulli(0.5) ? "SUM" : "AVG",
                                std::move(args));
    }
    default: {  // MIN / MAX over any column
      const BoundColumn& col = PickColumn(scope, rng);
      std::vector<std::unique_ptr<Expr>> args;
      args.push_back(Expr::MakeColumn(col.qualifier, col.def->name));
      return Expr::MakeFunction(rng.Bernoulli(0.5) ? "MIN" : "MAX",
                                std::move(args));
    }
  }
  std::vector<std::unique_ptr<Expr>> args;
  args.push_back(Expr::MakeStar());
  return Expr::MakeFunction("COUNT", std::move(args));
}

std::unique_ptr<SelectStatement> QueryGenerator::Generate(Rng& rng) const {
  const auto& schema = db_.schema();
  auto stmt = std::make_unique<SelectStatement>();

  // FROM + JOIN chain. Joins follow schema foreign keys so the join graph
  // is always connected and every ON condition is a same-typed equality;
  // aliases T1..Tn keep column references unambiguous.
  size_t from_index = rng.Index(schema.tables.size());
  stmt->from.table = schema.tables[from_index].name;
  stmt->from.alias = AliasFor(0);
  std::vector<std::pair<int, std::string>> used;  // (table index, alias)
  used.emplace_back(static_cast<int>(from_index), stmt->from.alias);

  int join_budget = static_cast<int>(rng.UniformInt(0, kMaxJoins));
  for (int j = 0; j < join_budget; ++j) {
    if (!rng.Bernoulli(kJoinProbability)) break;
    // Candidate FK edges touching a used table on exactly one side.
    struct Edge {
      int new_table;
      std::string new_column;
      std::string used_alias;
      std::string used_column;
    };
    std::vector<Edge> edges;
    for (const auto& fk : schema.foreign_keys) {
      auto t1 = schema.FindTable(fk.table);
      auto t2 = schema.FindTable(fk.ref_table);
      if (!t1.has_value() || !t2.has_value()) continue;
      for (const auto& [used_table, used_alias] : used) {
        if (used_table == *t1) {
          edges.push_back(Edge{*t2, fk.ref_column, used_alias, fk.column});
        }
        if (used_table == *t2) {
          edges.push_back(Edge{*t1, fk.column, used_alias, fk.ref_column});
        }
      }
    }
    if (edges.empty()) break;
    const Edge& edge = edges[rng.Index(edges.size())];
    sql::JoinClause join;
    join.table.table = schema.tables[edge.new_table].name;
    join.table.alias = AliasFor(used.size());
    join.condition = Expr::MakeBinary(
        BinaryOp::kEq, Expr::MakeColumn(join.table.alias, edge.new_column),
        Expr::MakeColumn(edge.used_alias, edge.used_column));
    used.emplace_back(edge.new_table, join.table.alias);
    stmt->joins.push_back(std::move(join));
  }

  std::vector<BoundColumn> scope = ScopeOf(*stmt);

  const bool aggregate_mode = rng.Bernoulli(kAggregateProbability);
  if (aggregate_mode) {
    if (rng.Bernoulli(kGroupByProbability)) {
      int keys = rng.Bernoulli(0.25) ? 2 : 1;
      for (int k = 0; k < keys; ++k) {
        const BoundColumn& col = PickColumn(scope, rng);
        stmt->group_by.push_back(
            Expr::MakeColumn(col.qualifier, col.def->name));
      }
      // Grouped select: the keys followed by one or two aggregates.
      for (const auto& key : stmt->group_by) {
        sql::SelectItem item;
        item.expr = key->Clone();
        stmt->select_list.push_back(std::move(item));
      }
      int aggs = rng.Bernoulli(0.3) ? 2 : 1;
      for (int a = 0; a < aggs; ++a) {
        sql::SelectItem item;
        item.expr = AggregateExpr(scope, rng);
        stmt->select_list.push_back(std::move(item));
      }
      if (rng.Bernoulli(kHavingProbability)) {
        static constexpr BinaryOp kCmp[] = {BinaryOp::kGt, BinaryOp::kGe,
                                            BinaryOp::kLt, BinaryOp::kEq};
        stmt->having = Expr::MakeBinary(
            kCmp[rng.Index(4)], AggregateExpr(scope, rng),
            Expr::MakeLiteral(Value(rng.UniformInt(0, 20))));
      }
    } else {
      // Global aggregation: aggregates only.
      int aggs = rng.Bernoulli(0.3) ? 2 : 1;
      for (int a = 0; a < aggs; ++a) {
        sql::SelectItem item;
        item.expr = AggregateExpr(scope, rng);
        stmt->select_list.push_back(std::move(item));
      }
    }
  } else {
    if (rng.Bernoulli(kStarProbability)) {
      sql::SelectItem item;
      item.expr = Expr::MakeStar();
      if (!stmt->joins.empty() && rng.Bernoulli(0.5)) {
        // Qualified star: expand one table of the join.
        item.expr->table = used[rng.Index(used.size())].second;
      }
      stmt->select_list.push_back(std::move(item));
    } else {
      int items = static_cast<int>(
          rng.UniformInt(1, kMaxSelectItems));
      for (int i = 0; i < items; ++i) {
        sql::SelectItem item;
        item.expr = ScalarExpr(scope, 2, rng);
        if (rng.Bernoulli(0.2)) item.alias = "c" + std::to_string(i + 1);
        stmt->select_list.push_back(std::move(item));
      }
    }
    stmt->distinct = rng.Bernoulli(kDistinctProbability);
  }

  if (rng.Bernoulli(kWhereProbability)) {
    stmt->where = Predicate(scope, kMaxPredicateDepth, rng);
  }

  if (rng.Bernoulli(kOrderByProbability)) {
    // Order keys are clones of select items so the sortedness oracle can
    // check them against the output columns; '*' select lists instead
    // order by a random scope column.
    int keys = rng.Bernoulli(0.25) ? 2 : 1;
    for (int k = 0; k < keys; ++k) {
      sql::OrderItem item;
      const auto& pick =
          stmt->select_list[rng.Index(stmt->select_list.size())];
      if (pick.expr->kind == ExprKind::kStar) {
        const BoundColumn& col = PickColumn(scope, rng);
        item.expr = Expr::MakeColumn(col.qualifier, col.def->name);
      } else {
        item.expr = pick.expr->Clone();
      }
      item.ascending = rng.Bernoulli(0.5);
      stmt->order_by.push_back(std::move(item));
    }
  }

  if (rng.Bernoulli(kLimitProbability)) {
    stmt->limit = rng.UniformInt(0, 25);
  }

  // Set operation: both arms project plain columns so the arities match.
  if (!aggregate_mode && rng.Bernoulli(kSetOpProbability)) {
    bool simple = true;
    for (const auto& item : stmt->select_list) {
      if (item.expr->kind == ExprKind::kStar) simple = false;
    }
    if (simple) {
      size_t rhs_table = rng.Index(schema.tables.size());
      const auto& table = schema.tables[rhs_table];
      if (table.columns.size() >= stmt->select_list.size()) {
        auto rhs = std::make_unique<SelectStatement>();
        rhs->from.table = table.name;
        rhs->from.alias = AliasFor(0);
        std::vector<BoundColumn> rhs_scope = ScopeOf(*rhs);
        for (size_t i = 0; i < stmt->select_list.size(); ++i) {
          sql::SelectItem item;
          size_t c = rng.Index(table.columns.size());
          item.expr = Expr::MakeColumn(rhs->from.alias, table.columns[c].name);
          rhs->select_list.push_back(std::move(item));
        }
        if (rng.Bernoulli(0.5)) rhs->where = LeafPredicate(rhs_scope, rng);
        static constexpr sql::SetOp kOps[] = {
            sql::SetOp::kUnion, sql::SetOp::kUnionAll, sql::SetOp::kIntersect,
            sql::SetOp::kExcept};
        stmt->set_op = kOps[rng.Index(4)];
        stmt->set_rhs = std::move(rhs);
      }
    }
  }

  return stmt;
}

std::unique_ptr<Expr> QueryGenerator::GeneratePredicateFor(
    const SelectStatement& stmt, Rng& rng) const {
  std::vector<BoundColumn> scope = ScopeOf(stmt);
  if (scope.empty()) {
    return Expr::MakeBinary(BinaryOp::kEq,
                            Expr::MakeLiteral(Value(static_cast<int64_t>(1))),
                            Expr::MakeLiteral(Value(static_cast<int64_t>(1))));
  }
  return LeafPredicate(scope, rng);
}

}  // namespace codes::fuzz
