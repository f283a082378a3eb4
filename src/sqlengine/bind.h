#ifndef CODES_SQLENGINE_BIND_H_
#define CODES_SQLENGINE_BIND_H_

#include <memory>
#include <utility>
#include <vector>

#include "common/status.h"
#include "sqlengine/ast.h"
#include "sqlengine/catalog.h"

namespace codes::sql {

/// One FROM or JOIN table of a bound SELECT.
struct BoundTable {
  int table_index = -1;  ///< index in the schema
  int offset = 0;        ///< flat offset of its first column in the row
};

/// What Bind records for one SELECT level: the statement itself, each
/// set-operation arm and each subquery.
struct BoundSelect {
  /// First bind error of this level. Execution reports it when the level
  /// runs, after the executor.step failpoint and the guard check, so a
  /// subquery or right arm that never runs never fails.
  Status error;
  std::vector<BoundTable> tables;  ///< FROM, then each JOIN, in order
  int width = 0;                   ///< columns in the joined working row
  /// The aggregate calls the grouping phase computes, indexed by their
  /// Expr::agg_slot.
  std::vector<const Expr*> aggregates;
};

/// A statement after Bind. It is immutable, so one bound statement may be
/// executed from any number of threads at once; only Bind makes one, so an
/// unbound statement cannot be executed.
class BoundStatement {
 public:
  const SelectStatement& statement() const { return *stmt_; }

  /// Bind record of `level`: the statement, one of its set-operation arms
  /// or one of its subqueries.
  const BoundSelect& Level(const SelectStatement& level) const;

 private:
  friend BoundStatement Bind(std::unique_ptr<SelectStatement> stmt,
                             const DatabaseSchema& schema);
  BoundStatement() = default;

  std::unique_ptr<SelectStatement> stmt_;
  std::vector<std::pair<const SelectStatement*, BoundSelect>> levels_;
};

/// Binds `stmt` against `schema`, in place, for every SELECT level (the
/// statement, each set-operation arm and each subquery): expands `*` into
/// the select list, rewrites alias and 1-based positional references in
/// ORDER BY, GROUP BY and HAVING into copies of the select expressions,
/// fills Expr::resolved_index and numbers the aggregate calls of the
/// select list, HAVING and ORDER BY into Expr::agg_slot. Bind never fails:
/// each level's first error is recorded in its BoundSelect and reported
/// when that level executes. The statement must be executed against a
/// source whose schema equals `schema`.
BoundStatement Bind(std::unique_ptr<SelectStatement> stmt,
                    const DatabaseSchema& schema);

}  // namespace codes::sql

#endif  // CODES_SQLENGINE_BIND_H_
