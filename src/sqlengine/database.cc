#include "sqlengine/database.h"

namespace codes::sql {
namespace {

// Cursor over an in-memory table's row vector, in insertion order.
class VectorCursor final : public RowCursor {
 public:
  explicit VectorCursor(const std::vector<Row>* rows) : rows_(rows) {}

  bool Next(Row* out) override {
    if (pos_ >= rows_->size()) return false;
    *out = (*rows_)[pos_++];
    return true;
  }

 private:
  const std::vector<Row>* rows_;
  size_t pos_ = 0;
};

}  // namespace

Database::Database(DatabaseSchema schema) : schema_(std::move(schema)) {
  tables_.resize(schema_.tables.size());
}

std::unique_ptr<RowCursor> Database::Scan(int table_index) const {
  return std::make_unique<VectorCursor>(&tables_[table_index].rows);
}

Status Database::Insert(const std::string& table_name,
                        std::vector<Value> row) {
  auto idx = schema_.FindTable(table_name);
  if (!idx.has_value()) {
    return Status::NotFound("no such table: " + table_name);
  }
  const TableDef& def = schema_.tables[*idx];
  if (row.size() != def.columns.size()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) + " does not match table " +
        table_name + " with " + std::to_string(def.columns.size()) +
        " columns");
  }
  tables_[*idx].rows.push_back(std::move(row));
  return Status::Ok();
}

size_t Database::TotalRows() const {
  size_t n = 0;
  for (const auto& t : tables_) n += t.rows.size();
  return n;
}

std::vector<Value> Database::DistinctValues(int table, int column,
                                            size_t limit) const {
  std::vector<Value> out;
  for (const auto& row : tables_[table].rows) {
    const Value& v = row[column];
    if (v.is_null()) continue;
    bool seen = false;
    for (const auto& existing : out) {
      if (existing == v) {
        seen = true;
        break;
      }
    }
    if (!seen) {
      out.push_back(v);
      if (out.size() >= limit) break;
    }
  }
  return out;
}

}  // namespace codes::sql
