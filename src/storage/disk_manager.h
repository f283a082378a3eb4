#ifndef CODES_STORAGE_DISK_MANAGER_H_
#define CODES_STORAGE_DISK_MANAGER_H_

// Page-granular I/O under the buffer pool, over one borrowed File
// (file.h): a PosixFile for a real database file, a SimFile for the crash
// campaign and the in-memory store.
//
// Every page carries a physical header (page.h): WritePage stamps a CRC-32
// over bytes [4, kPageSize) and ReadPage verifies it, so torn writes and
// bit rot surface as a typed kDataLoss status instead of garbage rows. An
// all-zero page is accepted as valid (allocated but never written).
// Failpoints: storage.page_read injects media read errors,
// storage.torn_write silently persists only a page prefix (the write
// reports success; the tear surfaces on a later read), storage.sync
// injects durability-barrier failures.

#include <cstdint>
#include <mutex>

#include "common/status.h"
#include "storage/file.h"
#include "storage/page.h"

namespace codes::storage {

class DiskManager {
 public:
  /// Runs on `file`, which must outlive the manager. The page count comes
  /// from the file size, rounded down: a trailing partial page (torn
  /// final-page write) is ignored, and recovery re-extends the file as the
  /// WAL dictates.
  explicit DiskManager(File* file);

  DiskManager(const DiskManager&) = delete;
  DiskManager& operator=(const DiskManager&) = delete;

  /// Appends one zeroed page and returns its id.
  Result<PageId> Allocate();

  /// Extends the file with zeroed pages until `count` pages exist. Used by
  /// recovery when the WAL references pages past a truncated data file.
  Status EnsurePageCount(size_t count);

  /// Reads page `id` into `out` (kPageSize bytes) and verifies its
  /// checksum; a mismatch returns kDataLoss.
  Status ReadPage(PageId id, std::byte* out);

  /// Stamps the checksum of `data` (kPageSize bytes) and writes it to page
  /// `id`. The caller's buffer is not modified.
  Status WritePage(PageId id, const std::byte* data);

  /// Durability barrier (File::Sync). Evaluates the storage.sync
  /// failpoint.
  Status Sync();

  /// Test-only fault injection: XOR-flips one stored byte of page `id`
  /// WITHOUT restamping the checksum, so the next ReadPage on it reports
  /// kDataLoss (unless the flip lands in the checksum field itself — pass
  /// an offset >= kPageHeaderBytes to corrupt payload).
  Status CorruptPageForTest(PageId id, size_t offset);

  size_t page_count() const;

  /// Physical I/O counters (reads include failpoint-failed attempts).
  uint64_t read_count() const;
  uint64_t write_count() const;

 private:
  /// Writes a zeroed page at the end of the file and counts it.
  Status AppendZeroPageLocked();

  mutable std::mutex mu_;
  File* file_;
  size_t page_count_ = 0;
  uint64_t reads_ = 0;
  uint64_t writes_ = 0;
};

}  // namespace codes::storage

#endif  // CODES_STORAGE_DISK_MANAGER_H_
