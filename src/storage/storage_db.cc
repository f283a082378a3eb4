#include "storage/storage_db.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "common/metrics.h"
#include "common/trace.h"
#include "storage/record_codec.h"

namespace codes::storage {

namespace {

// Catalog chain layout (offsets relative to the end of the physical page
// header, page.h). Page 0:
//   [u32 magic][u32 next_page][u32 chunk_len][chunk bytes]
// Continuation pages:
//   [u32 next_page][u32 chunk_len][chunk bytes]
constexpr uint32_t kCatalogMagic = 0x53444331;  // "1CDS"
constexpr PageId kCatalogPageId = 0;
constexpr size_t kHeadHeaderBytes = 12;
constexpr size_t kContHeaderBytes = 8;

Counter& RecoveryRunsCounter() {
  static Counter& c =
      MetricsRegistry::Global().GetCounter("storage.recovery.runs");
  return c;
}
Counter& RecoverySeenCounter() {
  static Counter& c = MetricsRegistry::Global().GetCounter(
      "storage.recovery.wal_records_seen");
  return c;
}
Counter& RecoveryReplayedCounter() {
  static Counter& c =
      MetricsRegistry::Global().GetCounter("storage.recovery.replayed");
  return c;
}
Counter& RecoveryDiscardedCounter() {
  static Counter& c =
      MetricsRegistry::Global().GetCounter("storage.recovery.discarded");
  return c;
}
Counter& CheckpointCounter() {
  static Counter& c =
      MetricsRegistry::Global().GetCounter("storage.checkpoints");
  return c;
}
Counter& CommitCounter() {
  static Counter& c =
      MetricsRegistry::Global().GetCounter("storage.wal.commits");
  return c;
}

uint32_t ValueClassToU32(sql::ColumnIndexStats::ValueClass vc) {
  return static_cast<uint32_t>(vc);
}

Result<sql::ColumnIndexStats::ValueClass> ValueClassFromU32(uint32_t raw) {
  using VC = sql::ColumnIndexStats::ValueClass;
  switch (raw) {
    case 0: return VC::kEmpty;
    case 1: return VC::kNumeric;
    case 2: return VC::kText;
    case 3: return VC::kMixed;
    default: return Status::Internal("corrupt catalog: value class");
  }
}

/// Folds one column value into the running index stats: value-class
/// lattice (empty -> numeric/text -> mixed), min/max, non-NULL count.
/// NaN reals are classified kMixed outright — NaN breaks Value::Compare's
/// total order, so such columns are never indexed.
void ObserveValue(const sql::Value& v, sql::ColumnIndexStats* st) {
  using VC = sql::ColumnIndexStats::ValueClass;
  if (v.is_null()) return;
  VC cls = VC::kMixed;
  if (v.is_numeric()) {
    cls = (v.is_real() && std::isnan(v.AsReal())) ? VC::kMixed : VC::kNumeric;
  } else if (v.is_text()) {
    cls = VC::kText;
  }
  if (st->value_class == VC::kEmpty) {
    st->value_class = cls;
  } else if (st->value_class != cls) {
    st->value_class = VC::kMixed;
  }
  if (st->value_class == VC::kMixed) return;
  if (st->entries == 0) {
    st->min_value = v;
    st->max_value = v;
  } else {
    if (v.Compare(st->min_value) < 0) st->min_value = v;
    if (v.Compare(st->max_value) > 0) st->max_value = v;
  }
  ++st->entries;
}

Result<bool> HasDuplicateKeys(const BPlusTree& tree) {
  CODES_ASSIGN_OR_RETURN(BPlusTree::Iterator it, tree.SeekFirst());
  bool have_prev = false;
  sql::Value prev;
  while (it.Valid()) {
    if (have_prev && prev.Compare(it.key()) == 0) return true;
    prev = it.key();
    have_prev = true;
    CODES_RETURN_IF_ERROR(it.Advance());
  }
  return false;
}

uint64_t IndexKey(int table, int column) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(table)) << 32) |
         static_cast<uint32_t>(column);
}

/// Cursor that reports one terminal error (bad table index, failed range
/// collection) through the RowCursor error channel.
class ErrorCursor final : public sql::RowCursor {
 public:
  explicit ErrorCursor(Status status) : status_(std::move(status)) {}
  bool Next(sql::Row*) override { return false; }
  Status status() const override { return status_; }

 private:
  Status status_;
};

/// Index-scan cursor: fetches heap rows for a pre-collected, pre-sorted
/// RID list. Sorting the RIDs is what restores insertion order (the heap
/// is append-only, so RIDs are monotone with insertion order) and keeps
/// IndexScan's output a pure subsequence of Scan's.
class RidFetchCursor final : public sql::RowCursor {
 public:
  RidFetchCursor(const TableHeap* heap, std::vector<Rid> rids)
      : heap_(heap), rids_(std::move(rids)) {}

  bool Next(sql::Row* out) override {
    if (!status_.ok() || pos_ >= rids_.size()) return false;
    Status fetched = heap_->Fetch(rids_[pos_], out);
    if (!fetched.ok()) {
      status_ = fetched;
      return false;
    }
    ++pos_;
    return true;
  }
  Status status() const override { return status_; }

 private:
  const TableHeap* heap_;
  std::vector<Rid> rids_;
  size_t pos_ = 0;
  Status status_ = Status::Ok();
};

}  // namespace

Result<std::unique_ptr<StorageDb>> StorageDb::Create(
    const sql::ExecSource& src, StorageFiles files, size_t pool_frames) {
  if (files.data == nullptr) {
    return Status::InvalidArgument("Create without a data file");
  }
  if (files.data->size() != 0) {
    return Status::InvalidArgument("Create requires an empty data file");
  }
  std::unique_ptr<StorageDb> db(new StorageDb);
  if (files.wal != nullptr) {
    CODES_ASSIGN_OR_RETURN(db->wal_, Wal::Attach(files.wal));
    if (db->wal_->size_bytes() != 0) {
      return Status::InvalidArgument("Create over a non-empty WAL");
    }
  }
  db->disk_ = std::make_unique<DiskManager>(files.data);
  db->pool_ = std::make_unique<BufferPool>(db->disk_.get(), pool_frames);
  db->schema_ = src.schema();

  {
    // Reserve page 0 for the catalog head before any heap/index pages.
    CODES_ASSIGN_OR_RETURN(PageGuard head, db->pool_->NewPage());
    if (head.page_id() != kCatalogPageId) {
      return Status::Internal("catalog head not at page 0");
    }
  }

  using VC = sql::ColumnIndexStats::ValueClass;
  const int num_tables = static_cast<int>(db->schema_.tables.size());
  for (int t = 0; t < num_tables; ++t) {
    CODES_ASSIGN_OR_RETURN(TableHeap heap, TableHeap::Create(db->pool_.get()));
    const auto& cols = db->schema_.tables[t].columns;
    const size_t width = cols.size();
    std::vector<std::vector<std::pair<sql::Value, Rid>>> col_entries(width);
    std::vector<sql::ColumnIndexStats> col_stats(width);

    std::unique_ptr<sql::RowCursor> cursor = src.Scan(t);
    sql::Row row;
    while (cursor->Next(&row)) {
      if (row.size() != width) {
        return Status::Internal("row arity does not match schema");
      }
      CODES_ASSIGN_OR_RETURN(Rid rid, heap.Append(row));
      for (size_t c = 0; c < width; ++c) {
        ObserveValue(row[c], &col_stats[c]);
        if (!row[c].is_null()) col_entries[c].emplace_back(row[c], rid);
      }
    }
    CODES_RETURN_IF_ERROR(cursor->status());
    db->tables_.push_back(TableInfo{heap});

    for (size_t c = 0; c < width; ++c) {
      if (col_stats[c].value_class == VC::kMixed) continue;  // unindexable
      IndexInfo info;
      info.table = static_cast<uint32_t>(t);
      info.column = static_cast<uint32_t>(c);
      info.stats = col_stats[c];
      if (!col_entries[c].empty()) {
        BPlusTree tree(db->pool_.get());
        bool abandoned = false;
        for (const auto& [value, rid] : col_entries[c]) {
          Status inserted = tree.Insert(value, rid);
          if (inserted.code() == StatusCode::kInvalidArgument) {
            abandoned = true;  // oversized key: skip this index entirely
            break;
          }
          CODES_RETURN_IF_ERROR(inserted);
        }
        if (abandoned) continue;
        info.root = tree.root();
        if (cols[c].is_primary_key) {
          CODES_ASSIGN_OR_RETURN(bool dups, HasDuplicateKeys(tree));
          info.stats.unique = !dups;
        }
      }
      db->index_lookup_[IndexKey(t, static_cast<int>(c))] =
          db->indexes_.size();
      db->indexes_.push_back(std::move(info));
    }
  }

  CODES_RETURN_IF_ERROR(db->WriteCatalog());
  CODES_RETURN_IF_ERROR(db->Flush());
  if (db->wal_ != nullptr) {
    // The flush synced the bulk load, so an empty log is consistent; the
    // checkpoint marker stamps that fact into it.
    db->pool_->AttachWal(db->wal_.get());
    CODES_ASSIGN_OR_RETURN(Lsn lsn, db->wal_->AppendCheckpoint());
    (void)lsn;
    CODES_RETURN_IF_ERROR(db->wal_->Sync());
  }
  return db;
}

Result<std::unique_ptr<StorageDb>> StorageDb::CreateInMemoryFrom(
    const sql::ExecSource& src, size_t pool_frames) {
  auto env = std::make_unique<SimEnv>();
  CODES_ASSIGN_OR_RETURN(
      std::unique_ptr<StorageDb> db,
      Create(src, StorageFiles{env->GetFile("memory.db")}, pool_frames));
  db->memory_env_ = std::move(env);
  return db;
}

Result<std::unique_ptr<StorageDb>> StorageDb::Open(StorageFiles files,
                                                   size_t pool_frames) {
  if (files.data == nullptr) {
    return Status::InvalidArgument("Open without a data file");
  }
  std::unique_ptr<StorageDb> db(new StorageDb);
  db->disk_ = std::make_unique<DiskManager>(files.data);
  if (files.wal != nullptr) {
    CODES_ASSIGN_OR_RETURN(db->wal_, Wal::Attach(files.wal));
    CODES_RETURN_IF_ERROR(Recover(db->disk_.get(), db->wal_.get()));
  }
  if (db->disk_->page_count() == 0) {
    return Status::InvalidArgument("database file has no catalog page");
  }
  db->pool_ = std::make_unique<BufferPool>(db->disk_.get(), pool_frames);
  if (db->wal_ != nullptr) db->pool_->AttachWal(db->wal_.get());
  CODES_RETURN_IF_ERROR(db->ReadCatalog());
  return db;
}

Status StorageDb::Recover(DiskManager* disk, Wal* wal) {
  CODES_TRACE_SPAN(span, "storage.recovery.replay");
  RecoveryRunsCounter().Increment();
  CODES_ASSIGN_OR_RETURN(Wal::ScanResult scan, wal->ReadAll());
  const uint64_t seen = scan.records.size() + scan.torn_tail_records;
  RecoverySeenCounter().Increment(seen);

  // The committed prefix ends at the last commit/checkpoint marker; page
  // images after it belong to a batch whose commit never became durable.
  size_t end = 0;  // one past the last marker
  for (size_t i = 0; i < scan.records.size(); ++i) {
    if (scan.records[i].type == WalRecordType::kCommit ||
        scan.records[i].type == WalRecordType::kCheckpoint) {
      end = i + 1;
    }
  }
  uint64_t replayed = 0;
  for (size_t i = 0; i < end; ++i) {
    const WalRecord& rec = scan.records[i];
    if (rec.type == WalRecordType::kPageImage) {
      if (rec.payload.size() != kPageSize) {
        return Status::DataLoss("WAL page image of wrong size");
      }
      CODES_RETURN_IF_ERROR(
          disk->EnsurePageCount(static_cast<size_t>(rec.page) + 1));
      CODES_RETURN_IF_ERROR(disk->WritePage(rec.page, rec.payload.data()));
    }
    ++replayed;
  }
  const uint64_t discarded =
      (scan.records.size() - end) + scan.torn_tail_records;
  RecoveryReplayedCounter().Increment(replayed);
  RecoveryDiscardedCounter().Increment(discarded);

  // Materialize the recovered state and reset the log so a crash during
  // (or right after) recovery re-runs it from an equally valid prefix —
  // replay is idempotent page-image overwriting either way.
  CODES_RETURN_IF_ERROR(disk->Sync());
  CODES_RETURN_IF_ERROR(wal->Truncate());
  CODES_ASSIGN_OR_RETURN(Lsn lsn, wal->AppendCheckpoint());
  (void)lsn;
  CODES_RETURN_IF_ERROR(wal->Sync());
  CheckpointCounter().Increment();
  return Status::Ok();
}

Status StorageDb::Flush() {
  CODES_RETURN_IF_ERROR(pool_->FlushAll());
  return disk_->Sync();
}

Status StorageDb::AppendRows(int table_index,
                             const std::vector<sql::Row>& rows) {
  if (table_index < 0 || table_index >= static_cast<int>(tables_.size())) {
    return Status::InvalidArgument("AppendRows: table index out of range");
  }
  using VC = sql::ColumnIndexStats::ValueClass;
  TableHeap& heap = tables_[table_index].heap;
  const size_t width = schema_.tables[table_index].columns.size();
  for (const sql::Row& row : rows) {
    if (row.size() != width) {
      return Status::InvalidArgument("AppendRows: row arity mismatch");
    }
    CODES_ASSIGN_OR_RETURN(Rid rid, heap.Append(row));
    for (size_t c = 0; c < width; ++c) {
      auto it = index_lookup_.find(IndexKey(table_index, static_cast<int>(c)));
      if (it == index_lookup_.end()) continue;
      size_t position = it->second;
      IndexInfo& info = indexes_[position];
      ObserveValue(row[c], &info.stats);
      if (info.stats.value_class == VC::kMixed) {
        // The column no longer has a total order the tree can maintain.
        DropIndex(position);
        continue;
      }
      if (row[c].is_null()) continue;
      BPlusTree tree(pool_.get(), info.root);
      if (info.stats.unique && info.root != kInvalidPageId) {
        // A single equal-key probe keeps the uniqueness bit honest
        // without a full-index rescan per batch.
        CODES_ASSIGN_OR_RETURN(BPlusTree::Iterator probe, tree.Seek(row[c]));
        if (probe.Valid() && probe.key().Compare(row[c]) == 0) {
          info.stats.unique = false;
        }
      }
      Status inserted = tree.Insert(row[c], rid);
      if (inserted.code() == StatusCode::kInvalidArgument) {
        DropIndex(position);  // oversized key: abandon, like Create
        continue;
      }
      CODES_RETURN_IF_ERROR(inserted);
      info.root = tree.root();
    }
  }
  return Status::Ok();
}

Status StorageDb::CommitBatch() {
  if (wal_ == nullptr) {
    return Status::InvalidArgument("CommitBatch without a WAL");
  }
  CODES_TRACE_SPAN(span, "storage.wal.commit");
  // Catalog first so its dirty pages are part of the same logged batch.
  CODES_RETURN_IF_ERROR(WriteCatalog());
  CODES_RETURN_IF_ERROR(pool_->CommitDirtyToWal());
  CODES_ASSIGN_OR_RETURN(Lsn lsn, wal_->AppendCommit());
  (void)lsn;
  CODES_RETURN_IF_ERROR(wal_->Sync());
  CommitCounter().Increment();
  return Status::Ok();
}

Status StorageDb::Checkpoint() {
  if (wal_ == nullptr) {
    return Status::InvalidArgument("Checkpoint without a WAL");
  }
  CODES_TRACE_SPAN(span, "storage.checkpoint");
  CODES_RETURN_IF_ERROR(CommitBatch());
  CODES_RETURN_IF_ERROR(pool_->FlushAll());
  CODES_RETURN_IF_ERROR(disk_->Sync());
  CODES_RETURN_IF_ERROR(wal_->Truncate());
  CODES_ASSIGN_OR_RETURN(Lsn lsn, wal_->AppendCheckpoint());
  (void)lsn;
  CODES_RETURN_IF_ERROR(wal_->Sync());
  CheckpointCounter().Increment();
  return Status::Ok();
}

size_t StorageDb::SourceRowCount(int table_index) const {
  if (table_index < 0 || table_index >= static_cast<int>(tables_.size())) {
    return 0;
  }
  return tables_[table_index].heap.row_count();
}

std::unique_ptr<sql::RowCursor> StorageDb::Scan(int table_index) const {
  if (table_index < 0 || table_index >= static_cast<int>(tables_.size())) {
    return std::make_unique<ErrorCursor>(
        Status::Internal("table index out of range"));
  }
  return tables_[table_index].heap.Scan();
}

const StorageDb::IndexInfo* StorageDb::FindIndex(int table_index,
                                                 int column_index) const {
  auto it = index_lookup_.find(IndexKey(table_index, column_index));
  if (it == index_lookup_.end()) return nullptr;
  return &indexes_[it->second];
}

void StorageDb::DropIndex(size_t position) {
  // The tree's pages are abandoned (no free list); the catalog rewrite at
  // the next commit makes the drop durable.
  indexes_.erase(indexes_.begin() + static_cast<ptrdiff_t>(position));
  index_lookup_.clear();
  for (size_t i = 0; i < indexes_.size(); ++i) {
    index_lookup_[IndexKey(static_cast<int>(indexes_[i].table),
                           static_cast<int>(indexes_[i].column))] = i;
  }
}

bool StorageDb::IndexStats(int table_index, int column_index,
                           sql::ColumnIndexStats* out) const {
  if (!index_scans_enabled()) return false;
  const IndexInfo* idx = FindIndex(table_index, column_index);
  if (idx == nullptr) return false;
  *out = idx->stats;
  return true;
}

std::unique_ptr<sql::RowCursor> StorageDb::IndexScan(
    int table_index, int column_index, const sql::IndexBound& lo,
    const sql::IndexBound& hi) const {
  if (!index_scans_enabled()) return nullptr;
  if (table_index < 0 || table_index >= static_cast<int>(tables_.size())) {
    return nullptr;
  }
  const IndexInfo* idx = FindIndex(table_index, column_index);
  if (idx == nullptr) return nullptr;
  std::vector<Rid> rids;
  if (idx->root != kInvalidPageId) {
    BPlusTree tree(pool_.get(), idx->root);
    Status collected = tree.CollectRange(lo, hi, &rids);
    if (!collected.ok()) {
      return std::make_unique<ErrorCursor>(collected);
    }
  }
  std::sort(rids.begin(), rids.end());  // key order -> insertion order
  return std::make_unique<RidFetchCursor>(&tables_[table_index].heap,
                                          std::move(rids));
}

Result<std::vector<sql::Row>> StorageDb::Materialize(int table_index) const {
  std::vector<sql::Row> rows;
  std::unique_ptr<sql::RowCursor> cursor = Scan(table_index);
  sql::Row row;
  while (cursor->Next(&row)) rows.push_back(std::move(row));
  CODES_RETURN_IF_ERROR(cursor->status());
  return rows;
}

std::string StorageDb::SerializeCatalog() const {
  std::string blob;
  AppendString(schema_.name, &blob);
  AppendU32(static_cast<uint32_t>(schema_.tables.size()), &blob);
  for (const auto& table : schema_.tables) {
    AppendString(table.name, &blob);
    AppendString(table.comment, &blob);
    AppendU32(static_cast<uint32_t>(table.columns.size()), &blob);
    for (const auto& col : table.columns) {
      AppendString(col.name, &blob);
      AppendU32(static_cast<uint32_t>(col.type), &blob);
      AppendString(col.comment, &blob);
      AppendU32(col.is_primary_key ? 1 : 0, &blob);
    }
  }
  AppendU32(static_cast<uint32_t>(schema_.foreign_keys.size()), &blob);
  for (const auto& fk : schema_.foreign_keys) {
    AppendString(fk.table, &blob);
    AppendString(fk.column, &blob);
    AppendString(fk.ref_table, &blob);
    AppendString(fk.ref_column, &blob);
  }
  for (const auto& table : tables_) {
    AppendU32(table.heap.first_page(), &blob);
    AppendU32(table.heap.last_page(), &blob);
    AppendU64(table.heap.row_count(), &blob);
  }
  AppendU32(static_cast<uint32_t>(indexes_.size()), &blob);
  for (const auto& idx : indexes_) {
    AppendU32(idx.table, &blob);
    AppendU32(idx.column, &blob);
    AppendU32(idx.root, &blob);
    AppendU64(idx.stats.entries, &blob);
    AppendU32(ValueClassToU32(idx.stats.value_class), &blob);
    AppendU32(idx.stats.unique ? 1 : 0, &blob);
    AppendValue(idx.stats.min_value, &blob);
    AppendValue(idx.stats.max_value, &blob);
  }
  return blob;
}

Status StorageDb::ParseCatalog(const std::string& blob) {
  size_t pos = 0;
  CODES_RETURN_IF_ERROR(ParseString(blob, &pos, &schema_.name));
  uint32_t num_tables = 0;
  CODES_RETURN_IF_ERROR(ParseU32(blob, &pos, &num_tables));
  schema_.tables.resize(num_tables);
  for (auto& table : schema_.tables) {
    CODES_RETURN_IF_ERROR(ParseString(blob, &pos, &table.name));
    CODES_RETURN_IF_ERROR(ParseString(blob, &pos, &table.comment));
    uint32_t num_cols = 0;
    CODES_RETURN_IF_ERROR(ParseU32(blob, &pos, &num_cols));
    table.columns.resize(num_cols);
    for (auto& col : table.columns) {
      CODES_RETURN_IF_ERROR(ParseString(blob, &pos, &col.name));
      uint32_t type = 0;
      CODES_RETURN_IF_ERROR(ParseU32(blob, &pos, &type));
      if (type > static_cast<uint32_t>(sql::DataType::kText)) {
        return Status::Internal("corrupt catalog: column type");
      }
      col.type = static_cast<sql::DataType>(type);
      CODES_RETURN_IF_ERROR(ParseString(blob, &pos, &col.comment));
      uint32_t pk = 0;
      CODES_RETURN_IF_ERROR(ParseU32(blob, &pos, &pk));
      col.is_primary_key = pk != 0;
    }
  }
  uint32_t num_fks = 0;
  CODES_RETURN_IF_ERROR(ParseU32(blob, &pos, &num_fks));
  schema_.foreign_keys.resize(num_fks);
  for (auto& fk : schema_.foreign_keys) {
    CODES_RETURN_IF_ERROR(ParseString(blob, &pos, &fk.table));
    CODES_RETURN_IF_ERROR(ParseString(blob, &pos, &fk.column));
    CODES_RETURN_IF_ERROR(ParseString(blob, &pos, &fk.ref_table));
    CODES_RETURN_IF_ERROR(ParseString(blob, &pos, &fk.ref_column));
  }
  tables_.clear();
  tables_.reserve(num_tables);
  for (uint32_t t = 0; t < num_tables; ++t) {
    uint32_t first = kInvalidPageId;
    uint32_t last = kInvalidPageId;
    uint64_t rows = 0;
    CODES_RETURN_IF_ERROR(ParseU32(blob, &pos, &first));
    CODES_RETURN_IF_ERROR(ParseU32(blob, &pos, &last));
    CODES_RETURN_IF_ERROR(ParseU64(blob, &pos, &rows));
    tables_.push_back(TableInfo{TableHeap(pool_.get(), first, last, rows)});
  }
  uint32_t num_indexes = 0;
  CODES_RETURN_IF_ERROR(ParseU32(blob, &pos, &num_indexes));
  indexes_.clear();
  index_lookup_.clear();
  indexes_.reserve(num_indexes);
  for (uint32_t i = 0; i < num_indexes; ++i) {
    IndexInfo info;
    CODES_RETURN_IF_ERROR(ParseU32(blob, &pos, &info.table));
    CODES_RETURN_IF_ERROR(ParseU32(blob, &pos, &info.column));
    CODES_RETURN_IF_ERROR(ParseU32(blob, &pos, &info.root));
    CODES_RETURN_IF_ERROR(ParseU64(blob, &pos, &info.stats.entries));
    uint32_t vc = 0;
    CODES_RETURN_IF_ERROR(ParseU32(blob, &pos, &vc));
    CODES_ASSIGN_OR_RETURN(info.stats.value_class, ValueClassFromU32(vc));
    uint32_t unique = 0;
    CODES_RETURN_IF_ERROR(ParseU32(blob, &pos, &unique));
    info.stats.unique = unique != 0;
    CODES_RETURN_IF_ERROR(ParseValue(blob, &pos, &info.stats.min_value));
    CODES_RETURN_IF_ERROR(ParseValue(blob, &pos, &info.stats.max_value));
    if (info.table >= num_tables ||
        info.column >= schema_.tables[info.table].columns.size()) {
      return Status::Internal("corrupt catalog: index target");
    }
    index_lookup_[IndexKey(static_cast<int>(info.table),
                           static_cast<int>(info.column))] = indexes_.size();
    indexes_.push_back(std::move(info));
  }
  return Status::Ok();
}

Status StorageDb::WriteCatalog() {
  const std::string blob = SerializeCatalog();
  size_t pos = 0;
  PageId current = kCatalogPageId;
  bool first = true;
  for (;;) {
    const size_t header = first ? kHeadHeaderBytes : kContHeaderBytes;
    const size_t capacity = kPageSize - kPageHeaderBytes - header;
    const size_t chunk = std::min(capacity, blob.size() - pos);
    const bool more = pos + chunk < blob.size();
    PageId next = kInvalidPageId;
    if (more) {
      CODES_ASSIGN_OR_RETURN(PageGuard fresh, pool_->NewPage());
      next = fresh.page_id();
    }
    CODES_ASSIGN_OR_RETURN(PageGuard guard, pool_->Fetch(current));
    std::byte* p = guard.data() + kPageHeaderBytes;
    size_t off = 0;
    if (first) {
      StoreU32(p + off, kCatalogMagic);
      off += 4;
    }
    StoreU32(p + off, next);
    StoreU32(p + off + 4, static_cast<uint32_t>(chunk));
    std::memcpy(p + off + 8, blob.data() + pos, chunk);
    guard.MarkDirty();
    pos += chunk;
    if (!more) break;
    current = next;
    first = false;
  }
  return Status::Ok();
}

Status StorageDb::ReadCatalog() {
  std::string blob;
  PageId current = kCatalogPageId;
  bool first = true;
  // Page-count bound makes a corrupt next-pointer cycle terminate.
  for (size_t hops = 0; hops <= disk_->page_count(); ++hops) {
    CODES_ASSIGN_OR_RETURN(PageGuard guard, pool_->Fetch(current));
    const std::byte* p = guard.data() + kPageHeaderBytes;
    size_t off = 0;
    if (first) {
      if (LoadU32(p) != kCatalogMagic) {
        return Status::InvalidArgument("not a codes database file");
      }
      off = 4;
    }
    PageId next = LoadU32(p + off);
    uint32_t len = LoadU32(p + off + 4);
    if (len > kPageSize - kPageHeaderBytes - off - 8) {
      return Status::Internal("corrupt catalog: chunk length");
    }
    blob.append(reinterpret_cast<const char*>(p + off + 8), len);
    if (next == kInvalidPageId) {
      return ParseCatalog(blob);
    }
    current = next;
    first = false;
  }
  return Status::Internal("corrupt catalog: page cycle");
}

}  // namespace codes::storage
