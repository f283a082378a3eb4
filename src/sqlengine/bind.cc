#include "sqlengine/bind.h"

#include <algorithm>
#include <string>

#include "common/string_util.h"

namespace codes::sql {

namespace {

/// One table occurrence of a SELECT's FROM clause, as columns bind to it.
struct ScopeEntry {
  std::string binding;  // lowercase alias-or-table-name
  BoundTable table;
};

/// Name-resolution scope for a single SELECT. Works off the schema alone,
/// so it is backend-independent.
class Scope {
 public:
  Status AddTable(const DatabaseSchema& schema, const TableRef& ref) {
    auto idx = schema.FindTable(ref.table);
    if (!idx.has_value()) {
      return Status::BindError("no such table: " + ref.table);
    }
    ScopeEntry entry;
    entry.binding = ToLower(ref.BindingName());
    for (const auto& existing : entries_) {
      if (existing.binding == entry.binding) {
        return Status::BindError("duplicate table binding: " + entry.binding);
      }
    }
    entry.table = {*idx, width_};
    width_ += static_cast<int>(schema.tables[*idx].columns.size());
    entries_.push_back(std::move(entry));
    return Status::Ok();
  }

  int width() const { return width_; }
  const std::vector<ScopeEntry>& entries() const { return entries_; }

  /// Resolves [qualifier.]column to a flat index. Unqualified names must be
  /// unambiguous across bound tables.
  Result<int> ResolveColumn(const DatabaseSchema& schema,
                            const std::string& qualifier,
                            const std::string& column) const {
    std::string q = ToLower(qualifier);
    std::string c = ToLower(column);
    int found = -1;
    for (const auto& entry : entries_) {
      if (!q.empty() && entry.binding != q) continue;
      const TableDef& def = schema.tables[entry.table.table_index];
      auto col = def.FindColumn(c);
      if (col.has_value()) {
        if (found >= 0) {
          return Status::BindError("ambiguous column: " + column);
        }
        found = entry.table.offset + *col;
      }
    }
    if (found < 0) {
      std::string name = qualifier.empty() ? column : qualifier + "." + column;
      return Status::BindError("no such column: " + name);
    }
    return found;
  }

 private:
  std::vector<ScopeEntry> entries_;
  int width_ = 0;
};

/// Calls `fn` on each top-level expression of one SELECT level, in
/// resolution order (select list, JOIN conditions, WHERE, GROUP BY,
/// HAVING, ORDER BY), and returns the first error.
template <typename Fn>
Status ForEachExpr(SelectStatement& stmt, Fn fn) {
  for (auto& item : stmt.select_list) CODES_RETURN_IF_ERROR(fn(*item.expr));
  for (auto& join : stmt.joins) {
    if (join.condition) CODES_RETURN_IF_ERROR(fn(*join.condition));
  }
  if (stmt.where) CODES_RETURN_IF_ERROR(fn(*stmt.where));
  for (auto& g : stmt.group_by) CODES_RETURN_IF_ERROR(fn(*g));
  if (stmt.having) CODES_RETURN_IF_ERROR(fn(*stmt.having));
  for (auto& o : stmt.order_by) CODES_RETURN_IF_ERROR(fn(*o.expr));
  return Status::Ok();
}

class Binder {
 public:
  Binder(const DatabaseSchema& schema,
         std::vector<std::pair<const SelectStatement*, BoundSelect>>* levels)
      : schema_(schema), levels_(levels) {}

  /// Binds one SELECT level, then its subqueries and its set-op arm.
  void BindLevel(SelectStatement& stmt) {
    Scope scope;
    BoundSelect bound;
    bound.error = BindSelect(stmt, &scope);
    for (const auto& entry : scope.entries()) {
      bound.tables.push_back(entry.table);
    }
    bound.width = scope.width();
    NumberAggregates(stmt, &bound.aggregates);
    levels_->emplace_back(&stmt, std::move(bound));
    ForEachExpr(stmt, [this](Expr& e) { return BindSubqueries(e); });
    if (stmt.set_rhs) BindLevel(*stmt.set_rhs);
  }

 private:
  Status BindSelect(SelectStatement& stmt, Scope* scope) {
    CODES_RETURN_IF_ERROR(scope->AddTable(schema_, stmt.from));
    for (const auto& join : stmt.joins) {
      CODES_RETURN_IF_ERROR(scope->AddTable(schema_, join.table));
    }
    CODES_RETURN_IF_ERROR(ExpandStar(stmt, *scope));
    RewriteReferences(stmt, *scope);
    return ForEachExpr(stmt, [&](Expr& e) { return Resolve(e, *scope); });
  }

  /// Replaces a bare `SELECT *` / `SELECT t.*` with explicit column refs so
  /// downstream stages see a uniform select list.
  Status ExpandStar(SelectStatement& stmt, const Scope& scope) const {
    bool has_star = false;
    for (const auto& item : stmt.select_list) {
      if (item.expr->kind == ExprKind::kStar) has_star = true;
    }
    if (!has_star) return Status::Ok();
    if (stmt.select_list.size() > 1) {
      return Status::BindError("'*' must be the only select item");
    }
    std::string qualifier = ToLower(stmt.select_list[0].expr->table);
    std::vector<SelectItem> expanded;
    for (const auto& entry : scope.entries()) {
      if (!qualifier.empty() && entry.binding != qualifier) continue;
      const TableDef& def = schema_.tables[entry.table.table_index];
      for (const auto& col : def.columns) {
        SelectItem item;
        item.expr = Expr::MakeColumn(entry.binding, col.name);
        item.alias = col.name;
        expanded.push_back(std::move(item));
      }
    }
    if (expanded.empty()) {
      return Status::BindError("'*' expansion produced no columns");
    }
    stmt.select_list = std::move(expanded);
    return Status::Ok();
  }

  /// ORDER BY and GROUP BY may reference select aliases or 1-based
  /// positions, and HAVING may use a select alias anywhere in its
  /// expression; rewrite those references to clones of the select exprs.
  /// An integer literal in HAVING is a constant, not a position (as in
  /// SQLite). Subqueries hang off Expr::subquery, not `children`, so the
  /// HAVING walk never enters one: they resolve names in their own scope.
  void RewriteReferences(SelectStatement& stmt, const Scope& scope) const {
    // Alias reference: unqualified name matching an alias and not a
    // resolvable column.
    auto rewrite_alias = [&](std::unique_ptr<Expr>& e) {
      if (e->kind != ExprKind::kColumnRef || !e->table.empty() ||
          scope.ResolveColumn(schema_, "", e->column).ok()) {
        return false;
      }
      for (const auto& item : stmt.select_list) {
        if (!item.alias.empty() && ToLower(item.alias) == ToLower(e->column)) {
          e = item.expr->Clone();
          return true;
        }
      }
      return false;
    };
    auto rewrite = [&](std::unique_ptr<Expr>& e) {
      if (e->kind == ExprKind::kLiteral && e->literal.is_integer()) {
        int64_t pos = e->literal.AsInteger();
        if (pos >= 1 && pos <= static_cast<int64_t>(stmt.select_list.size())) {
          e = stmt.select_list[pos - 1].expr->Clone();
        }
        return;
      }
      rewrite_alias(e);
    };
    for (auto& o : stmt.order_by) rewrite(o.expr);
    for (auto& g : stmt.group_by) rewrite(g);
    auto rewrite_having = [&](std::unique_ptr<Expr>& e, auto&& self) -> void {
      if (rewrite_alias(e)) return;
      for (auto& child : e->children) self(child, self);
    };
    if (stmt.having) rewrite_having(stmt.having, rewrite_having);
  }

  Status Resolve(Expr& e, const Scope& scope) const {
    if (e.kind == ExprKind::kColumnRef) {
      CODES_ASSIGN_OR_RETURN(e.resolved_index,
                             scope.ResolveColumn(schema_, e.table, e.column));
      return Status::Ok();
    }
    for (auto& child : e.children) {
      CODES_RETURN_IF_ERROR(Resolve(*child, scope));
    }
    return Status::Ok();
  }

  /// Numbers the aggregate calls of the select list, HAVING and ORDER BY
  /// (not those inside another aggregate's argument) into `*slots`; these
  /// are the calls the grouping phase computes.
  static void NumberAggregates(SelectStatement& stmt,
                               std::vector<const Expr*>* slots) {
    auto number = [slots](Expr& e, auto&& self) -> void {
      if (e.IsAggregate()) {
        e.agg_slot = static_cast<int>(slots->size());
        slots->push_back(&e);
        return;
      }
      for (auto& c : e.children) self(*c, self);
    };
    for (auto& item : stmt.select_list) number(*item.expr, number);
    if (stmt.having) number(*stmt.having, number);
    for (auto& o : stmt.order_by) number(*o.expr, number);
  }

  Status BindSubqueries(Expr& e) {
    if (e.subquery) BindLevel(*e.subquery);
    for (auto& child : e.children) BindSubqueries(*child);
    return Status::Ok();
  }

  const DatabaseSchema& schema_;
  std::vector<std::pair<const SelectStatement*, BoundSelect>>* levels_;
};

}  // namespace

const BoundSelect& BoundStatement::Level(const SelectStatement& level) const {
  auto it = std::find_if(levels_.begin(), levels_.end(),
                         [&level](const auto& entry) {
                           return entry.first == &level;
                         });
  CODES_CHECK(it != levels_.end());
  return it->second;
}

BoundStatement Bind(std::unique_ptr<SelectStatement> stmt,
                    const DatabaseSchema& schema) {
  BoundStatement bound;
  Binder(schema, &bound.levels_).BindLevel(*stmt);
  bound.stmt_ = std::move(stmt);
  return bound;
}

}  // namespace codes::sql
