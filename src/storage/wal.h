#ifndef CODES_STORAGE_WAL_H_
#define CODES_STORAGE_WAL_H_

// Write-ahead log with page-image redo records (DESIGN.md section 15).
//
// Record wire format (all integers host-order, like pages):
//
//   [u32 crc][u32 payload_len][u64 lsn][u8 type][u8 pad x3][u32 page]
//   [payload_len payload bytes]
//
// The 24-byte header's crc covers bytes [4, 24 + payload_len) — the whole
// record except the crc field itself. kPageImage records carry a full
// kPageSize page image (redo only: the buffer pool is no-steal, so an
// uncommitted page never reaches the data file and undo is unnecessary).
// kCommit marks every preceding image as committed; kCheckpoint marks the
// data file as a consistent materialization of everything before it.
//
// The log lives in one borrowed File (file.h), real or simulated.
// Durability: Append* writes buffer through the OS (or the crash sim's
// volatile region); Sync() is the group-flush barrier that makes every
// appended record durable at once and advances durable_lsn. The
// WAL-before-data rule lives in BufferPool: a dirty page may be written
// back only when its page LSN is <= durable_lsn.
//
// Torn tails: a crash can persist a prefix of an appended record. The
// recovery scan (ReadAll) stops at the first record whose header or crc
// does not verify and reports the remainder as a discarded torn tail;
// Attach positions the append offset at the end of the valid prefix, so the
// torn bytes are overwritten by the next append.
//
// Threading: confined to the storage engine's single-mutator lifecycle
// (same contract as StorageDb mutation); no internal locks.

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "storage/file.h"
#include "storage/page.h"

namespace codes::storage {

enum class WalRecordType : uint8_t {
  kPageImage = 1,
  kCommit = 2,
  kCheckpoint = 3,
};

struct WalRecord {
  Lsn lsn = 0;
  WalRecordType type = WalRecordType::kPageImage;
  PageId page = kInvalidPageId;    ///< kPageImage only
  std::vector<std::byte> payload;  ///< page image for kPageImage
};

class Wal {
 public:
  /// Runs the log on `file`, which must outlive the Wal, scanning it to
  /// position the append offset after the last valid record.
  static Result<std::unique_ptr<Wal>> Attach(File* file);

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Appends a redo record carrying the full image of `page` (kPageSize
  /// bytes). Buffered until Sync().
  Result<Lsn> AppendPageImage(PageId page, const std::byte* data);

  /// Appends a commit marker. Buffered until Sync().
  Result<Lsn> AppendCommit();

  /// Appends a checkpoint marker. Buffered until Sync().
  Result<Lsn> AppendCheckpoint();

  /// Group-flush durability barrier; on success every appended record is
  /// durable and durable_lsn catches up to the last appended LSN.
  /// Evaluates the storage.wal.sync failpoint.
  Status Sync();

  /// Discards the whole log (checkpoint protocol: the data file is synced
  /// first, making the log redundant). Durable immediately.
  Status Truncate();

  /// Full scan from the start for recovery.
  struct ScanResult {
    std::vector<WalRecord> records;  ///< valid records, in LSN order
    uint64_t torn_tail_records = 0;  ///< 1 when a torn/corrupt tail was cut
    uint64_t valid_bytes = 0;        ///< log prefix the records occupy
  };
  Result<ScanResult> ReadAll() const;

  Lsn durable_lsn() const { return durable_lsn_; }
  Lsn last_appended_lsn() const { return next_lsn_ - 1; }
  uint64_t size_bytes() const { return append_off_; }

 private:
  explicit Wal(File* file) : file_(file) {}

  Result<Lsn> AppendRecord(WalRecordType type, PageId page,
                           const std::byte* payload, size_t payload_len);

  File* file_;
  uint64_t append_off_ = 0;
  Lsn next_lsn_ = 1;
  Lsn durable_lsn_ = 0;
};

}  // namespace codes::storage

#endif  // CODES_STORAGE_WAL_H_
