#include "storage/wal.h"

#include "common/crc32.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace codes::storage {

namespace {

constexpr size_t kRecordHeader = 24;
constexpr size_t kCrcOff = 0;
constexpr size_t kLenOff = 4;
constexpr size_t kLsnOff = 8;
constexpr size_t kTypeOff = 16;
constexpr size_t kPageOff = 20;

Counter& RecordCounter() {
  static Counter& c =
      MetricsRegistry::Global().GetCounter("storage.wal.records");
  return c;
}
Counter& SyncCounter() {
  static Counter& c =
      MetricsRegistry::Global().GetCounter("storage.wal.syncs");
  return c;
}
Counter& TruncateCounter() {
  static Counter& c =
      MetricsRegistry::Global().GetCounter("storage.wal.truncates");
  return c;
}
Counter& BytesCounter() {
  static Counter& c =
      MetricsRegistry::Global().GetCounter("storage.wal.bytes_appended");
  return c;
}

bool ValidType(uint8_t t) {
  return t == static_cast<uint8_t>(WalRecordType::kPageImage) ||
         t == static_cast<uint8_t>(WalRecordType::kCommit) ||
         t == static_cast<uint8_t>(WalRecordType::kCheckpoint);
}

}  // namespace

Result<std::unique_ptr<Wal>> Wal::Attach(File* file) {
  std::unique_ptr<Wal> wal(new Wal(file));
  CODES_ASSIGN_OR_RETURN(ScanResult scan, wal->ReadAll());
  wal->append_off_ = scan.valid_bytes;
  if (!scan.records.empty()) {
    wal->next_lsn_ = scan.records.back().lsn + 1;
    // Bytes already in the log at open survived whatever wrote them; they
    // are durable by definition once the scan validates them.
    wal->durable_lsn_ = scan.records.back().lsn;
  }
  return wal;
}

Result<Wal::ScanResult> Wal::ReadAll() const {
  ScanResult out;
  uint64_t size = file_->size();
  uint64_t off = 0;
  Lsn prev_lsn = 0;
  std::byte header[kRecordHeader];
  while (off + kRecordHeader <= size) {
    CODES_RETURN_IF_ERROR(file_->Read(off, header, kRecordHeader));
    uint32_t stored_crc = LoadU32(header + kCrcOff);
    uint32_t len = LoadU32(header + kLenOff);
    Lsn lsn = LoadU64(header + kLsnOff);
    uint8_t type = static_cast<uint8_t>(header[kTypeOff]);
    // Structural sanity before trusting `len` for the payload read: an
    // insane length, bad type, or non-increasing LSN means these bytes
    // are not a record head (torn tail / stale garbage past the tail).
    if (len > kPageSize || !ValidType(type) || lsn <= prev_lsn ||
        off + kRecordHeader + len > size) {
      break;
    }
    WalRecord rec;
    rec.lsn = lsn;
    rec.type = static_cast<WalRecordType>(type);
    rec.page = LoadU32(header + kPageOff);
    rec.payload.resize(len);
    if (len > 0) {
      CODES_RETURN_IF_ERROR(
          file_->Read(off + kRecordHeader, rec.payload.data(), len));
    }
    uint32_t crc = Crc32(header + kLenOff, kRecordHeader - kLenOff);
    if (len > 0) crc = Crc32(rec.payload.data(), len, crc);
    if (crc != stored_crc) break;
    out.records.push_back(std::move(rec));
    prev_lsn = lsn;
    off += kRecordHeader + len;
  }
  out.valid_bytes = off;
  if (off < size) out.torn_tail_records = 1;
  return out;
}

Result<Lsn> Wal::AppendRecord(WalRecordType type, PageId page,
                              const std::byte* payload, size_t payload_len) {
  Lsn lsn = next_lsn_;
  std::vector<std::byte> rec(kRecordHeader);
  rec.reserve(kRecordHeader + payload_len);
  StoreU32(rec.data() + kLenOff, static_cast<uint32_t>(payload_len));
  StoreU64(rec.data() + kLsnOff, lsn);
  rec[kTypeOff] = static_cast<std::byte>(type);
  StoreU32(rec.data() + kPageOff, page);
  rec.insert(rec.end(), payload, payload + payload_len);
  StoreU32(rec.data() + kCrcOff,
           Crc32(rec.data() + kLenOff, rec.size() - kLenOff));
  CODES_RETURN_IF_ERROR(file_->Write(append_off_, rec.data(), rec.size()));
  append_off_ += rec.size();
  next_lsn_ = lsn + 1;
  RecordCounter().Increment();
  BytesCounter().Increment(rec.size());
  return lsn;
}

Result<Lsn> Wal::AppendPageImage(PageId page, const std::byte* data) {
  return AppendRecord(WalRecordType::kPageImage, page, data, kPageSize);
}

Result<Lsn> Wal::AppendCommit() {
  return AppendRecord(WalRecordType::kCommit, kInvalidPageId, nullptr, 0);
}

Result<Lsn> Wal::AppendCheckpoint() {
  return AppendRecord(WalRecordType::kCheckpoint, kInvalidPageId, nullptr, 0);
}

Status Wal::Sync() {
  CODES_TRACE_SPAN(span, "storage.wal.sync");
  if (Failpoints::ShouldFail(FailpointSite::kStorageWalSync)) {
    return Failpoints::FailStatus(FailpointSite::kStorageWalSync);
  }
  CODES_RETURN_IF_ERROR(file_->Sync());
  durable_lsn_ = next_lsn_ - 1;
  SyncCounter().Increment();
  return Status::Ok();
}

Status Wal::Truncate() {
  CODES_RETURN_IF_ERROR(file_->Truncate(0));
  CODES_RETURN_IF_ERROR(file_->Sync());
  append_off_ = 0;
  // LSNs stay monotone across truncation: durable state is simply
  // "everything", since an empty log has nothing pending.
  durable_lsn_ = next_lsn_ - 1;
  TruncateCounter().Increment();
  return Status::Ok();
}

}  // namespace codes::storage
