#ifndef CODES_STORAGE_STORAGE_DB_H_
#define CODES_STORAGE_STORAGE_DB_H_

// Disk-backed database engine: the second sql::ExecSource backend. A
// StorageDb holds the same logical content as an in-memory sql::Database —
// schema, tables in insertion order — but stores rows in slotted table-heap
// pages behind a buffer pool, with B+ tree indexes over every clean-class
// column (see ColumnIndexStats::ValueClass).
//
// Files: a database runs on a data file and, optionally, a write-ahead
// log, each one File (file.h) — a PosixFile for a real database, a SimFile
// in the crash campaign. The caller opens both and owns them; the database
// borrows them. Create bulk-loads an empty data file; Open reopens one.
// CreateInMemoryFrom is Create over a private SimEnv the database owns.
//
// File layout: page 0 heads a chained catalog (schema + per-table heap
// extents + per-index roots and stats); heap and index pages follow in
// allocation order. Open() is LAZY: it reads only the catalog chain, so
// cold-open cost is independent of row count — heap/index pages fault in
// through the buffer pool on first access (a regression test pins this).
//
// Crash safety (DESIGN.md section 15): with a WAL attached, mutations are
// batched — AppendRows stages rows in the buffer pool (no-steal: nothing
// uncommitted reaches the data file), CommitBatch logs page images + a
// commit marker and group-flushes the WAL, Checkpoint materializes the
// data file and truncates the log. Open with a WAL runs redo recovery
// first: replay every page image up to the last commit/checkpoint
// marker, discard the uncommitted/torn tail, checkpoint. Instrumented as
// storage.wal.* / storage.recovery.* metrics and spans.
//
// Lifecycle contract: build (Create) and mutation
// (AppendRows/CommitBatch/Checkpoint) are single-threaded; between
// mutation batches the database is read-consistent and every accessor —
// Scan/IndexScan/IndexStats/Materialize — is safe to call from any number
// of threads concurrently (the buffer pool serializes frame bookkeeping).

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "sqlengine/exec_source.h"
#include "storage/btree.h"
#include "storage/buffer_pool.h"
#include "storage/crash_sim.h"
#include "storage/disk_manager.h"
#include "storage/page.h"
#include "storage/table_heap.h"
#include "storage/wal.h"

namespace codes::storage {

/// The files a StorageDb runs on, borrowed from the caller.
struct StorageFiles {
  File* data = nullptr;
  File* wal = nullptr;  ///< optional; null for a read-only database
};

class StorageDb : public sql::ExecSource {
 public:
  /// Default buffer-pool size for general use; tests shrink it to force
  /// eviction traffic.
  static constexpr size_t kDefaultPoolFrames = 64;

  /// Bulk-loads every table (and index) of `src` into the empty data file
  /// and syncs it. With a WAL file (which must hold no records) the
  /// database accepts mutation batches, and the log starts with a
  /// checkpoint marker, so the bulk load is durable on return.
  static Result<std::unique_ptr<StorageDb>> Create(
      const sql::ExecSource& src, StorageFiles files,
      size_t pool_frames = kDefaultPoolFrames);

  /// Reopens a database. With a WAL file, redo recovery runs before the
  /// catalog is read and the database accepts mutation batches; without
  /// one it is read-only. Reads ONLY the catalog chain; row data faults
  /// in lazily on first access.
  static Result<std::unique_ptr<StorageDb>> Open(
      StorageFiles files, size_t pool_frames = kDefaultPoolFrames);

  /// Create over a private in-memory file, no WAL — the form the
  /// differential harness and fuzz oracle use (no filesystem traffic).
  static Result<std::unique_ptr<StorageDb>> CreateInMemoryFrom(
      const sql::ExecSource& src, size_t pool_frames = kDefaultPoolFrames);

  /// Writes all committed dirty pages back and syncs the file.
  Status Flush();

  // --- mutation batches (WAL required except for AppendRows staging) ---

  /// Appends `rows` to table `table_index`, maintaining every index and
  /// its stats. Changes are staged in the buffer pool until CommitBatch.
  /// A column whose new values break index ordering (mixed value classes
  /// or oversized keys) drops its index, mirroring Create's abandon
  /// semantics.
  Status AppendRows(int table_index, const std::vector<sql::Row>& rows);

  /// Makes every staged change durable: rewrites the catalog, logs page
  /// images for all unlogged dirty pages, appends a commit marker, and
  /// group-flushes the WAL. On return the batch survives any crash.
  Status CommitBatch();

  /// Materializes committed state into the data file and truncates the
  /// WAL (bounding replay work). Implies CommitBatch for staged changes.
  Status Checkpoint();

  // --- sql::ExecSource ---
  const sql::DatabaseSchema& schema() const override { return schema_; }
  size_t SourceRowCount(int table_index) const override;
  std::unique_ptr<sql::RowCursor> Scan(int table_index) const override;
  bool IndexStats(int table_index, int column_index,
                  sql::ColumnIndexStats* out) const override;
  std::unique_ptr<sql::RowCursor> IndexScan(
      int table_index, int column_index, const sql::IndexBound& lo,
      const sql::IndexBound& hi) const override;

  /// Bench/test knob: when false, IndexStats reports no indexes, forcing
  /// the executor onto sequential scans (used to measure the index-scan
  /// speedup and to diff the two access paths against each other).
  void set_index_scans_enabled(bool enabled) {
    index_scans_enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool index_scans_enabled() const {
    return index_scans_enabled_.load(std::memory_order_relaxed);
  }

  /// Eagerly reads one whole table (testing/inspection helper).
  Result<std::vector<sql::Row>> Materialize(int table_index) const;

  const DiskManager& disk() const { return *disk_; }
  /// Mutable disk access for corruption-injection tests.
  DiskManager& mutable_disk() { return *disk_; }
  const BufferPool& buffer_pool() const { return *pool_; }
  size_t index_count() const { return indexes_.size(); }
  const Wal* wal() const { return wal_.get(); }

 private:
  struct TableInfo {
    TableHeap heap;
  };

  struct IndexInfo {
    uint32_t table = 0;
    uint32_t column = 0;
    PageId root = kInvalidPageId;
    sql::ColumnIndexStats stats;
  };

  StorageDb() = default;

  Status WriteCatalog();
  Status ReadCatalog();
  std::string SerializeCatalog() const;
  Status ParseCatalog(const std::string& blob);
  const IndexInfo* FindIndex(int table_index, int column_index) const;
  void DropIndex(size_t position);

  /// Redo recovery: replays `wal` into `disk` up to the last commit or
  /// checkpoint marker, discards the tail, then checkpoints (sync data,
  /// truncate log). Runs before any catalog read.
  static Status Recover(DiskManager* disk, Wal* wal);

  /// Set by CreateInMemoryFrom: the database owns its in-memory file.
  /// Declared first so it outlives the disk, WAL and pool that use it.
  std::unique_ptr<SimEnv> memory_env_;
  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<Wal> wal_;  ///< null for read-only databases
  std::unique_ptr<BufferPool> pool_;
  sql::DatabaseSchema schema_;
  std::vector<TableInfo> tables_;
  std::vector<IndexInfo> indexes_;
  /// (table << 32 | column) -> position in indexes_.
  std::unordered_map<uint64_t, size_t> index_lookup_;
  std::atomic<bool> index_scans_enabled_{true};
};

}  // namespace codes::storage

#endif  // CODES_STORAGE_STORAGE_DB_H_
