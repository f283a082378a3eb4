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
