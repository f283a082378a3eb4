#ifndef CODES_SQLENGINE_DATABASE_H_
#define CODES_SQLENGINE_DATABASE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "sqlengine/catalog.h"
#include "sqlengine/exec_source.h"
#include "sqlengine/value.h"

namespace codes::sql {

/// Row-oriented storage for one table.
struct Table {
  std::vector<std::vector<Value>> rows;
};

/// A fully materialized in-memory database: schema + table contents.
/// This is the engine's unit of execution and the paper's `D` in
/// S = Parser(Q, D). As an ExecSource it is the reference backend the
/// disk-backed storage engine is differentially tested against.
class Database : public ExecSource {
 public:
  Database() = default;
  explicit Database(DatabaseSchema schema);

  const DatabaseSchema& schema() const override { return schema_; }
  DatabaseSchema& mutable_schema() { return schema_; }

  // ExecSource access paths: everything is already materialized, so the
  // direct row vector doubles as the scan and no indexes exist.
  size_t SourceRowCount(int table_index) const override {
    return tables_[table_index].rows.size();
  }
  std::unique_ptr<RowCursor> Scan(int table_index) const override;
  const std::vector<Row>* DirectRows(int table_index) const override {
    return &tables_[table_index].rows;
  }

  /// Appends a row to `table_name`; fails if the table is unknown or the
  /// arity does not match the schema.
  Status Insert(const std::string& table_name, std::vector<Value> row);

  /// Table contents by schema index.
  const Table& TableAt(int index) const { return tables_[index]; }
  Table& MutableTableAt(int index) { return tables_[index]; }

  /// Total rows across all tables.
  size_t TotalRows() const;

  /// Up to `limit` distinct non-null values of column `column` of table
  /// `table` (schema indexes), in first-seen order. Implements the paper's
  /// representative-value probe
  /// "SELECT DISTINCT {COL} FROM {TAB} WHERE {COL} IS NOT NULL LIMIT k".
  std::vector<Value> DistinctValues(int table, int column, size_t limit) const;

  /// Visits every non-null TEXT cell as (table_idx, column_idx, row_idx,
  /// text). Used to build the value retriever's BM25 index.
  template <typename Fn>
  void ForEachTextValue(Fn&& fn) const {
    for (size_t t = 0; t < tables_.size(); ++t) {
      const auto& table = tables_[t];
      for (size_t r = 0; r < table.rows.size(); ++r) {
        const auto& row = table.rows[r];
        for (size_t c = 0; c < row.size(); ++c) {
          if (row[c].is_text()) {
            fn(static_cast<int>(t), static_cast<int>(c), static_cast<int>(r),
               row[c].AsText());
          }
        }
      }
    }
  }

 private:
  DatabaseSchema schema_;
  std::vector<Table> tables_;  // parallel to schema_.tables
};

}  // namespace codes::sql

#endif  // CODES_SQLENGINE_DATABASE_H_
