#include "dataset/column_profile.h"

#include <string>
#include <string_view>
#include <unordered_set>

#include "common/string_util.h"

namespace codes {

namespace {

/// Whether `name` ends in "_id", case-blind.
bool EndsInId(std::string_view name) {
  return name.size() >= 3 &&
         EqualsIgnoreCase(name.substr(name.size() - 3), "_id");
}

}  // namespace

ColumnProfile::ColumnProfile(const sql::Database& db) {
  const auto& schema = db.schema();
  const size_t table_count = schema.tables.size();
  tables_.resize(table_count);
  column_offset_.assign(table_count + 1, 0);
  for (size_t t = 0; t < table_count; ++t) {
    column_offset_[t + 1] =
        column_offset_[t] + static_cast<int>(schema.tables[t].columns.size());
  }

  key_.assign(static_cast<size_t>(column_count()), 0);
  for (size_t t = 0; t < table_count; ++t) {
    const auto& columns = schema.tables[t].columns;
    TableColumns& out = tables_[t];
    const int ti = static_cast<int>(t);
    for (int c = 0; c < static_cast<int>(columns.size()); ++c) {
      key_[Slot(ti, c)] = schema.IsKeyColumn(ti, c);
      const bool id_like = columns[c].is_primary_key ||
                           EndsInId(columns[c].name) ||
                           schema.IsForeignKeyChild(ti, c);
      if (id_like) continue;
      const sql::DataType type = columns[c].type;
      if (type == sql::DataType::kText) {
        out.text.push_back(c);
      } else if (type == sql::DataType::kInteger ||
                 type == sql::DataType::kReal) {
        out.numeric.push_back(c);
      }
    }

    // One pass over the rows judges every text column: its non-NULL count
    // and distinct values (category), and its first non-NULL value (date).
    const size_t n = out.text.size();
    std::vector<std::unordered_set<std::string_view>> distinct(n);
    std::vector<int> non_null(n, 0);
    std::vector<char> judged(n, 0), is_date(n, 0);
    for (const auto& row : db.TableAt(static_cast<int>(t)).rows) {
      for (size_t k = 0; k < n; ++k) {
        const sql::Value& v = row[out.text[k]];
        if (v.is_null()) continue;
        const std::string& s = v.AsText();
        ++non_null[k];
        distinct[k].insert(s);
        if (!judged[k]) {
          judged[k] = 1;
          is_date[k] = s.size() == 10 && s[4] == '-' && s[7] == '-';
        }
      }
    }
    for (size_t k = 0; k < n; ++k) {
      if (non_null[k] >= 4 &&
          distinct[k].size() * 2 <= static_cast<size_t>(non_null[k])) {
        out.category.push_back(out.text[k]);
      }
      if (is_date[k]) out.date.push_back(out.text[k]);
    }
  }

  for (const auto& fk : schema.foreign_keys) {
    auto ct = schema.FindTable(fk.table);
    auto pt = schema.FindTable(fk.ref_table);
    if (!ct || !pt) continue;
    auto cc = schema.tables[*ct].FindColumn(fk.column);
    auto pc = schema.tables[*pt].FindColumn(fk.ref_column);
    if (!cc || !pc) continue;
    join_edges_.push_back(JoinEdge{*ct, *cc, *pt, *pc});
  }
}

}  // namespace codes
