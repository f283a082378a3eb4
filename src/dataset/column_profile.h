#ifndef CODES_DATASET_COLUMN_PROFILE_H_
#define CODES_DATASET_COLUMN_PROFILE_H_

#include <vector>

#include "sqlengine/database.h"

namespace codes {

/// A foreign-key edge resolved to schema indexes.
struct JoinEdge {
  int child_t, child_c;    // FK side
  int parent_t, parent_c;  // PK side
};

/// The slot-type view of a database that template instantiation reads: per
/// table, the columns that can fill text, numeric, category and date slots;
/// which columns are keys; and the FK join edges.
///
/// A pure function of the database's schema and rows, built with one pass
/// over each table's rows. It holds indexes only, never pointers into the
/// database, but it describes the database as it was when built: rebuild
/// it after mutating the database. The generator builds one per request;
/// the data-generation paths build one per database.
class ColumnProfile {
 public:
  explicit ColumnProfile(const sql::Database& db);

  int table_count() const { return static_cast<int>(tables_.size()); }

  /// Text columns that are not id-like. A column is id-like when it is a
  /// primary key, its name ends in "_id", or it is the child side of an FK.
  const std::vector<int>& text(int t) const { return tables_[t].text; }
  /// INTEGER/REAL columns that are not id-like.
  const std::vector<int>& numeric(int t) const { return tables_[t].numeric; }
  /// Text columns with repeated values (at least 4 non-NULL cells and at
  /// most half as many distinct values): GROUP BY / equality keys.
  const std::vector<int>& category(int t) const { return tables_[t].category; }
  /// Text columns whose first non-NULL value looks like YYYY-MM-DD.
  const std::vector<int>& date(int t) const { return tables_[t].date; }

  /// DatabaseSchema::IsKeyColumn: a primary key, or either side of an FK.
  bool is_key(int t, int c) const { return key_[Slot(t, c)] != 0; }

  const std::vector<JoinEdge>& join_edges() const { return join_edges_; }

  /// Dense index of (t, c) in [0, column_count()), for flat per-column
  /// arrays.
  int Slot(int t, int c) const { return column_offset_[t] + c; }
  int column_count() const { return column_offset_.back(); }

 private:
  struct TableColumns {
    std::vector<int> text, numeric, category, date;
  };

  std::vector<TableColumns> tables_;
  std::vector<int> column_offset_;  // table_count() + 1 prefix sums
  std::vector<char> key_;           // indexed by Slot()
  std::vector<JoinEdge> join_edges_;
};

}  // namespace codes

#endif  // CODES_DATASET_COLUMN_PROFILE_H_
