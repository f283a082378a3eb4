#ifndef CODES_SQLENGINE_CATALOG_H_
#define CODES_SQLENGINE_CATALOG_H_

#include <optional>
#include <string>
#include <vector>

#include "sqlengine/value.h"

namespace codes::sql {

/// Column definition with the metadata the paper's prompt construction
/// consumes: type, human comment (for ambiguous names), and PK flag.
struct ColumnDef {
  std::string name;
  DataType type = DataType::kText;
  std::string comment;          ///< NL description; may be empty.
  bool is_primary_key = false;
};

/// Table definition (columns + optional comment).
struct TableDef {
  std::string name;
  std::string comment;
  std::vector<ColumnDef> columns;

  /// Index of `column_name` (case-insensitive) or nullopt.
  std::optional<int> FindColumn(const std::string& column_name) const;
};

/// A foreign-key edge: `table.column` references `ref_table.ref_column`.
struct ForeignKey {
  std::string table;
  std::string column;
  std::string ref_table;
  std::string ref_column;
};

/// Full database schema: tables, columns, and key relationships. This is
/// the `D_schema`/`D_meta` input of Algorithm 1 in the paper.
struct DatabaseSchema {
  std::string name;
  std::vector<TableDef> tables;
  std::vector<ForeignKey> foreign_keys;

  /// Index of `table_name` (case-insensitive) or nullopt.
  std::optional<int> FindTable(const std::string& table_name) const;

  /// Whether column `column` of table `table` is the referencing side of a
  /// foreign key, names compared case-blind.
  bool IsForeignKeyChild(int table, int column) const;
  /// Whether the column is a key: a primary key, or either side of a
  /// foreign key, names compared case-blind.
  bool IsKeyColumn(int table, int column) const;

  /// Serializes the schema as CREATE TABLE DDL text (used by examples and
  /// the NL-to-code corpus generator).
  std::string ToDdl() const;
};

}  // namespace codes::sql

#endif  // CODES_SQLENGINE_CATALOG_H_
