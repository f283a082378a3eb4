// Unit tests for the disk-backed storage engine: record codec round-trips,
// disk-manager file persistence, table-heap append/scan/fetch, buffer-pool
// hit/miss/eviction/pin accounting, and the StorageDb facade (bulk load,
// catalog persistence, lazy cold-open, index stats, access-path scans).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "scoped_temp_dir.h"

#include "sqlengine/database.h"
#include "sqlengine/executor.h"
#include "sqlengine/result_table.h"
#include "storage/buffer_pool.h"
#include "storage/crash_sim.h"
#include "storage/disk_manager.h"
#include "storage/file.h"
#include "storage/page.h"
#include "storage/record_codec.h"
#include "storage/storage_db.h"
#include "storage/table_heap.h"

namespace codes::storage {
namespace {

using sql::DataType;
using sql::Database;
using sql::DatabaseSchema;
using sql::TableDef;
using sql::Value;

/// Byte-exact cell equality: same null/integer/real/text kind and same
/// content (a stricter check than ResultsEquivalent's tolerant compare).
bool CellExact(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (a.is_integer() != b.is_integer() || a.is_real() != b.is_real() ||
      a.is_text() != b.is_text()) {
    return false;
  }
  if (a.is_text()) return a.AsText() == b.AsText();
  return a.Compare(b) == 0;
}

bool TablesExact(const sql::ResultTable& a, const sql::ResultTable& b) {
  if (a.column_names != b.column_names) return false;
  if (a.rows.size() != b.rows.size()) return false;
  for (size_t r = 0; r < a.rows.size(); ++r) {
    if (a.rows[r].size() != b.rows[r].size()) return false;
    for (size_t c = 0; c < a.rows[r].size(); ++c) {
      if (!CellExact(a.rows[r][c], b.rows[r][c])) return false;
    }
  }
  return true;
}

/// singer(singer_id PK, name, age, country) with a NULL and duplicates.
Database MakeSingerDb() {
  DatabaseSchema schema;
  schema.name = "music";
  TableDef singer;
  singer.name = "singer";
  singer.columns = {
      {"singer_id", DataType::kInteger, "unique singer id", true},
      {"name", DataType::kText, "singer name", false},
      {"age", DataType::kInteger, "age in years", false},
      {"country", DataType::kText, "country of origin", false},
  };
  schema.tables = {singer};
  Database db(std::move(schema));
  auto ins = [&db](std::vector<Value> row) {
    ASSERT_TRUE(db.Insert("singer", std::move(row)).ok());
  };
  ins({Value(int64_t{1}), Value("Alice"), Value(int64_t{30}), Value("USA")});
  ins({Value(int64_t{2}), Value("Bob"), Value(int64_t{45}), Value("Canada")});
  ins({Value(int64_t{3}), Value("Carol"), Value(int64_t{30}), Value("USA")});
  ins({Value(int64_t{4}), Value("Dave"), Value(), Value("France")});
  return db;
}

// ------------------------------------------------------------ record codec

TEST(RecordCodecTest, RowRoundTripPreservesTypesAndNulls) {
  std::vector<Value> row = {Value(), Value(int64_t{-42}), Value(3.25),
                            Value(int64_t{7}), Value(std::string("hi\0x", 4)),
                            Value("")};
  std::string buf;
  AppendRow(row, &buf);
  std::vector<Value> parsed;
  ASSERT_TRUE(ParseRow(buf.data(), buf.size(), &parsed).ok());
  ASSERT_EQ(parsed.size(), row.size());
  EXPECT_TRUE(parsed[0].is_null());
  EXPECT_TRUE(parsed[1].is_integer());
  EXPECT_EQ(parsed[1].AsInteger(), -42);
  EXPECT_TRUE(parsed[2].is_real());
  EXPECT_EQ(parsed[2].AsReal(), 3.25);
  // INTEGER stays INTEGER (no silent widening to REAL).
  EXPECT_TRUE(parsed[3].is_integer());
  EXPECT_EQ(parsed[4].AsText(), std::string("hi\0x", 4));
  EXPECT_EQ(parsed[5].AsText(), "");
}

TEST(RecordCodecTest, TruncatedRecordIsAnErrorNotACrash) {
  std::string buf;
  AppendRow({Value(int64_t{1}), Value("abcdef")}, &buf);
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    std::vector<Value> parsed;
    EXPECT_FALSE(ParseRow(buf.data(), cut, &parsed).ok()) << "cut=" << cut;
  }
}

// ------------------------------------------------------------ disk manager

TEST(StorageDiskManagerTest, FilePersistsPagesAcrossReopen) {
  ScopedTempDir dir;
  const std::string path = dir.File("diskmgr.db");
  {
    auto created = PosixFile::Create(path);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    auto disk = std::make_unique<DiskManager>(created->get());
    auto p0 = disk->Allocate();
    auto p1 = disk->Allocate();
    ASSERT_TRUE(p0.ok() && p1.ok());
    EXPECT_EQ(*p0, 0u);
    EXPECT_EQ(*p1, 1u);
    std::byte page[kPageSize] = {};
    // Bytes [0, kPageHeaderBytes) are the physical header (checksum/LSN);
    // payload starts after it.
    page[kPageHeaderBytes] = std::byte{0xAB};
    page[kPageSize - 1] = std::byte{0xCD};
    ASSERT_TRUE(disk->WritePage(*p1, page).ok());
    ASSERT_TRUE(disk->Sync().ok());
  }
  auto opened = PosixFile::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  DiskManager disk(opened->get());
  EXPECT_EQ(disk.page_count(), 2u);
  std::byte page[kPageSize];
  ASSERT_TRUE(disk.ReadPage(1, page).ok());
  EXPECT_EQ(page[kPageHeaderBytes], std::byte{0xAB});
  EXPECT_EQ(page[kPageSize - 1], std::byte{0xCD});
}

TEST(StorageDiskManagerTest, SimFileNeedsNoFilesystem) {
  SimEnv env;
  auto disk = std::make_unique<DiskManager>(env.GetFile("t.db"));
  auto p = disk->Allocate();
  ASSERT_TRUE(p.ok());
  std::byte page[kPageSize];
  ASSERT_TRUE(disk->ReadPage(*p, page).ok());
  EXPECT_EQ(page[17], std::byte{0});  // zeroed on allocation
  EXPECT_FALSE(disk->ReadPage(99, page).ok());
}

// -------------------------------------------------------------- table heap

TEST(StorageTableHeapTest, AppendScanFetchRoundTrip) {
  SimEnv env;
  auto disk = std::make_unique<DiskManager>(env.GetFile("t.db"));
  BufferPool pool(disk.get(), 4);
  auto heap = TableHeap::Create(&pool);
  ASSERT_TRUE(heap.ok());

  std::vector<Rid> rids;
  for (int i = 0; i < 500; ++i) {
    std::vector<Value> row = {Value(int64_t{i}),
                              Value("row-" + std::to_string(i))};
    auto rid = heap->Append(row);
    ASSERT_TRUE(rid.ok()) << rid.status().ToString();
    rids.push_back(*rid);
  }
  EXPECT_EQ(heap->row_count(), 500u);
  EXPECT_GT(disk->page_count(), 1u);  // must have chained pages

  // RIDs are monotone with insertion order (append-only contract).
  for (size_t i = 1; i < rids.size(); ++i) {
    EXPECT_TRUE(rids[i - 1] < rids[i]);
  }

  // Scan yields all rows in insertion order.
  auto cursor = heap->Scan();
  sql::Row row;
  int n = 0;
  while (cursor->Next(&row)) {
    ASSERT_EQ(row.size(), 2u);
    EXPECT_EQ(row[0].AsInteger(), n);
    ++n;
  }
  EXPECT_EQ(n, 500);
  EXPECT_TRUE(cursor->status().ok());

  // Point fetch by RID.
  std::vector<Value> fetched;
  ASSERT_TRUE(heap->Fetch(rids[123], &fetched).ok());
  EXPECT_EQ(fetched[1].AsText(), "row-123");
}

TEST(StorageTableHeapTest, OversizedRowIsRejected) {
  SimEnv env;
  auto disk = std::make_unique<DiskManager>(env.GetFile("t.db"));
  BufferPool pool(disk.get(), 4);
  auto heap = TableHeap::Create(&pool);
  ASSERT_TRUE(heap.ok());
  std::vector<Value> row = {Value(std::string(kPageSize, 'x'))};
  auto rid = heap->Append(row);
  ASSERT_FALSE(rid.ok());
  EXPECT_EQ(rid.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(heap->row_count(), 0u);
}

// -------------------------------------------------------------- buffer pool

TEST(BufferPoolTest, HitMissEvictionAndPinAccounting) {
  SimEnv env;
  auto disk = std::make_unique<DiskManager>(env.GetFile("t.db"));
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(disk->Allocate().ok());
  BufferPool pool(disk.get(), 2);

  {
    auto g0 = pool.Fetch(0);
    ASSERT_TRUE(g0.ok());
    EXPECT_EQ(pool.pinned_frames(), 1u);
    auto g0_again = pool.Fetch(0);
    ASSERT_TRUE(g0_again.ok());
    EXPECT_EQ(pool.hit_count(), 1u);   // second fetch hits
    EXPECT_EQ(pool.miss_count(), 1u);  // first fetch missed
    EXPECT_EQ(pool.pinned_frames(), 1u);  // same frame, pin count 2
  }
  EXPECT_EQ(pool.pinned_frames(), 0u);  // guards released

  // Touch more distinct pages than frames: evictions must occur.
  for (PageId id = 0; id < 6; ++id) {
    auto g = pool.Fetch(id);
    ASSERT_TRUE(g.ok());
  }
  EXPECT_GT(pool.eviction_count(), 0u);
  EXPECT_EQ(pool.pinned_frames(), 0u);
}

TEST(BufferPoolTest, AllFramesPinnedIsResourceExhausted) {
  SimEnv env;
  auto disk = std::make_unique<DiskManager>(env.GetFile("t.db"));
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(disk->Allocate().ok());
  BufferPool pool(disk.get(), 2);
  auto g0 = pool.Fetch(0);
  auto g1 = pool.Fetch(1);
  ASSERT_TRUE(g0.ok() && g1.ok());
  auto g2 = pool.Fetch(2);
  ASSERT_FALSE(g2.ok());
  EXPECT_EQ(g2.status().code(), StatusCode::kResourceExhausted);
  g0->Release();
  auto retry = pool.Fetch(2);
  EXPECT_TRUE(retry.ok());
}

TEST(BufferPoolTest, DirtyPageSurvivesEviction) {
  SimEnv env;
  auto disk = std::make_unique<DiskManager>(env.GetFile("t.db"));
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(disk->Allocate().ok());
  BufferPool pool(disk.get(), 1);
  {
    auto g = pool.Fetch(0);
    ASSERT_TRUE(g.ok());
    g->data()[100] = std::byte{0x5A};
    g->MarkDirty();
  }
  // Force page 0 out of the single frame, then bring it back.
  { auto g = pool.Fetch(1); ASSERT_TRUE(g.ok()); }
  auto back = pool.Fetch(0);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->data()[100], std::byte{0x5A});
}

// ---------------------------------------------------------------- StorageDb

TEST(StorageDbTest, BulkLoadMatchesSourceAndBuildsIndexes) {
  Database db = MakeSingerDb();
  auto built = StorageDb::CreateInMemoryFrom(db);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  StorageDb& sdb = **built;

  EXPECT_EQ(sdb.schema().name, "music");
  EXPECT_EQ(sdb.SourceRowCount(0), 4u);
  // All four columns are clean-class (no mixed columns) -> four indexes.
  EXPECT_EQ(sdb.index_count(), 4u);

  auto rows = sdb.Materialize(0);
  ASSERT_TRUE(rows.ok());
  const auto& direct = *db.DirectRows(0);
  ASSERT_EQ(rows->size(), direct.size());
  for (size_t r = 0; r < direct.size(); ++r) {
    for (size_t c = 0; c < direct[r].size(); ++c) {
      EXPECT_EQ((*rows)[r][c].Compare(direct[r][c]), 0)
          << "cell " << r << "," << c;
    }
  }

  sql::ColumnIndexStats stats;
  ASSERT_TRUE(sdb.IndexStats(0, 0, &stats));
  EXPECT_EQ(stats.value_class, sql::ColumnIndexStats::ValueClass::kNumeric);
  EXPECT_TRUE(stats.unique);  // PK with distinct values
  EXPECT_EQ(stats.entries, 4u);
  EXPECT_EQ(stats.min_value.AsInteger(), 1);
  EXPECT_EQ(stats.max_value.AsInteger(), 4);

  // age has a NULL: indexed entries exclude it.
  ASSERT_TRUE(sdb.IndexStats(0, 2, &stats));
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_FALSE(stats.unique);  // not a PK

  // The knob turns the index access path off entirely.
  sdb.set_index_scans_enabled(false);
  EXPECT_FALSE(sdb.IndexStats(0, 0, &stats));
  EXPECT_EQ(sdb.IndexScan(0, 0, {}, {}), nullptr);
  sdb.set_index_scans_enabled(true);
}

TEST(StorageDbTest, IndexScanYieldsMatchingRowsInInsertionOrder) {
  Database db = MakeSingerDb();
  auto built = StorageDb::CreateInMemoryFrom(db);
  ASSERT_TRUE(built.ok());
  StorageDb& sdb = **built;

  // country = 'USA' -> rows 0 and 2, in insertion order.
  Value usa("USA");
  sql::IndexBound lo{&usa, true};
  sql::IndexBound hi{&usa, true};
  auto cursor = sdb.IndexScan(0, 3, lo, hi);
  ASSERT_NE(cursor, nullptr);
  sql::Row row;
  std::vector<std::string> names;
  while (cursor->Next(&row)) names.push_back(row[1].AsText());
  ASSERT_TRUE(cursor->status().ok());
  EXPECT_EQ(names, (std::vector<std::string>{"Alice", "Carol"}));

  // Range scan: age <= 30 (NULL age must never appear).
  Value thirty(int64_t{30});
  auto range = sdb.IndexScan(0, 2, {}, {&thirty, true});
  ASSERT_NE(range, nullptr);
  names.clear();
  while (range->Next(&row)) names.push_back(row[1].AsText());
  ASSERT_TRUE(range->status().ok());
  EXPECT_EQ(names, (std::vector<std::string>{"Alice", "Carol"}));
}

TEST(StorageDbTest, ExecutorRunsIdenticallyOverBothBackends) {
  Database db = MakeSingerDb();
  auto built = StorageDb::CreateInMemoryFrom(db);
  ASSERT_TRUE(built.ok());
  const StorageDb& sdb = **built;

  const char* queries[] = {
      "SELECT name FROM singer WHERE singer_id = 2",
      "SELECT name, age FROM singer WHERE age <= 30 ORDER BY singer_id",
      "SELECT COUNT(*), MAX(age) FROM singer",
      "SELECT country, COUNT(*) FROM singer GROUP BY country ORDER BY country",
      "SELECT name FROM singer WHERE country = 'USA' AND age = 30",
  };
  for (const char* q : queries) {
    auto mem = sql::ExecuteSql(db, q);
    auto disk = sql::ExecuteSql(sdb, q);
    ASSERT_TRUE(mem.ok()) << q;
    ASSERT_TRUE(disk.ok()) << q << " -> " << disk.status().ToString();
    EXPECT_TRUE(TablesExact(*mem, *disk)) << q << "\nmem:\n"
                                          << mem->ToString() << "disk:\n"
                                          << disk->ToString();
  }
}

TEST(StorageDbTest, PersistsToFileAndColdOpens) {
  ScopedTempDir dir;
  const std::string path = dir.File("persist.db");
  Database db = MakeSingerDb();
  {
    auto file = PosixFile::Create(path);
    ASSERT_TRUE(file.ok());
    auto built = StorageDb::Create(db, {file->get()});
    ASSERT_TRUE(built.ok()) << built.status().ToString();
  }
  auto file = PosixFile::Open(path);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  auto opened = StorageDb::Open({file->get()});
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  StorageDb& sdb = **opened;
  EXPECT_EQ(sdb.schema().tables[0].name, "singer");
  EXPECT_EQ(sdb.SourceRowCount(0), 4u);
  EXPECT_EQ(sdb.index_count(), 4u);

  auto result = sql::ExecuteSql(sdb, "SELECT name FROM singer WHERE age > 29");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->NumRows(), 3u);
}

TEST(StorageDbTest, ColdOpenCostIsIndependentOfRowCount) {
  ScopedTempDir dir;
  auto build = [&dir](int rows, const std::string& tag) {
    DatabaseSchema schema;
    schema.name = "sized";
    TableDef t;
    t.name = "items";
    t.columns = {{"id", DataType::kInteger, "", true},
                 {"label", DataType::kText, "", false}};
    schema.tables = {t};
    Database db(std::move(schema));
    for (int i = 0; i < rows; ++i) {
      EXPECT_TRUE(db.Insert("items", {Value(int64_t{i}),
                                      Value("label-" + std::to_string(i))})
                      .ok());
    }
    const std::string path = dir.File(tag + ".db");
    auto file = PosixFile::Create(path);
    EXPECT_TRUE(file.ok());
    auto built = StorageDb::Create(db, {file->get()});
    EXPECT_TRUE(built.ok());
    return path;
  };
  const std::string small_path = build(20, "cold_small");
  const std::string large_path = build(5000, "cold_large");

  auto open_reads = [](const std::string& path) {
    auto file = PosixFile::Open(path);
    EXPECT_TRUE(file.ok());
    auto opened = StorageDb::Open({file->get()});
    EXPECT_TRUE(opened.ok());
    return (*opened)->disk().read_count();
  };
  uint64_t small_reads = open_reads(small_path);
  uint64_t large_reads = open_reads(large_path);
  // Lazy open touches only the catalog chain: identical page-read counts
  // no matter how many rows the heap holds.
  EXPECT_EQ(small_reads, large_reads);
  EXPECT_GT(small_reads, 0u);
}

TEST(StorageDbTest, MixedClassColumnsAreNotIndexed) {
  DatabaseSchema schema;
  schema.name = "mixed";
  TableDef t;
  t.name = "junk";
  t.columns = {{"id", DataType::kInteger, "", true},
               {"blob", DataType::kText, "", false}};
  schema.tables = {t};
  Database db(std::move(schema));
  // TEXT-typed column holding both a number and a string: mixed class.
  ASSERT_TRUE(db.Insert("junk", {Value(int64_t{1}), Value("text")}).ok());
  ASSERT_TRUE(db.Insert("junk", {Value(int64_t{2}), Value(int64_t{9})}).ok());
  auto built = StorageDb::CreateInMemoryFrom(db);
  ASSERT_TRUE(built.ok());
  sql::ColumnIndexStats stats;
  EXPECT_TRUE((*built)->IndexStats(0, 0, &stats));   // id is clean
  EXPECT_FALSE((*built)->IndexStats(0, 1, &stats));  // blob is mixed
}

}  // namespace
}  // namespace codes::storage
