#include "sqlengine/catalog.h"

#include "common/string_util.h"

namespace codes::sql {

std::optional<int> TableDef::FindColumn(const std::string& column_name) const {
  for (size_t i = 0; i < columns.size(); ++i) {
    if (EqualsIgnoreCase(columns[i].name, column_name)) {
      return static_cast<int>(i);
    }
  }
  return std::nullopt;
}

std::optional<int> DatabaseSchema::FindTable(
    const std::string& table_name) const {
  for (size_t i = 0; i < tables.size(); ++i) {
    if (EqualsIgnoreCase(tables[i].name, table_name)) {
      return static_cast<int>(i);
    }
  }
  return std::nullopt;
}

namespace {

bool NamesColumn(const TableDef& table, const ColumnDef& column,
                 const std::string& table_name,
                 const std::string& column_name) {
  return EqualsIgnoreCase(table.name, table_name) &&
         EqualsIgnoreCase(column.name, column_name);
}

}  // namespace

bool DatabaseSchema::IsForeignKeyChild(int table, int column) const {
  const TableDef& def = tables[table];
  for (const auto& fk : foreign_keys) {
    if (NamesColumn(def, def.columns[column], fk.table, fk.column)) {
      return true;
    }
  }
  return false;
}

bool DatabaseSchema::IsKeyColumn(int table, int column) const {
  const TableDef& def = tables[table];
  const ColumnDef& col = def.columns[column];
  if (col.is_primary_key) return true;
  for (const auto& fk : foreign_keys) {
    if (NamesColumn(def, col, fk.table, fk.column) ||
        NamesColumn(def, col, fk.ref_table, fk.ref_column)) {
      return true;
    }
  }
  return false;
}

std::string DatabaseSchema::ToDdl() const {
  std::string out;
  for (const auto& table : tables) {
    out += "CREATE TABLE " + table.name + " (\n";
    for (size_t i = 0; i < table.columns.size(); ++i) {
      const auto& col = table.columns[i];
      out += "  " + col.name + " " + DataTypeName(col.type);
      if (col.is_primary_key) out += " PRIMARY KEY";
      bool last = (i + 1 == table.columns.size());
      // FK clauses follow all columns.
      if (!last) out += ",";
      if (!col.comment.empty()) out += " -- " + col.comment;
      out += "\n";
    }
    for (const auto& fk : foreign_keys) {
      if (EqualsIgnoreCase(fk.table, table.name)) {
        out += "  , FOREIGN KEY (" + fk.column + ") REFERENCES " +
               fk.ref_table + "(" + fk.ref_column + ")\n";
      }
    }
    out += ");\n";
  }
  return out;
}

}  // namespace codes::sql
