#include "storage/disk_manager.h"

#include <cstring>
#include <string>

#include "common/crc32.h"
#include "common/failpoint.h"
#include "common/metrics.h"

namespace codes::storage {

namespace {

Counter& PageReadCounter() {
  static Counter& c =
      MetricsRegistry::Global().GetCounter("storage.page_reads");
  return c;
}

Counter& PageWriteCounter() {
  static Counter& c =
      MetricsRegistry::Global().GetCounter("storage.page_writes");
  return c;
}

Counter& ChecksumFailureCounter() {
  static Counter& c =
      MetricsRegistry::Global().GetCounter("storage.checksum_failures");
  return c;
}

/// Bytes a torn write persists when storage.torn_write fires: enough to
/// cover the checksum field and part of the payload, so the tear is
/// guaranteed to be detectable (stale tail under a fresh checksum).
constexpr size_t kTornWriteBytes = kPageSize / 2;

bool IsAllZero(const std::byte* p, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (p[i] != std::byte{0}) return false;
  }
  return true;
}

uint64_t Offset(uint64_t page) { return page * kPageSize; }

}  // namespace

DiskManager::DiskManager(File* file)
    : file_(file), page_count_(file->size() / kPageSize) {}

Status DiskManager::AppendZeroPageLocked() {
  std::byte zeros[kPageSize];
  std::memset(zeros, 0, kPageSize);
  CODES_RETURN_IF_ERROR(file_->Write(Offset(page_count_), zeros, kPageSize));
  ++page_count_;
  return Status::Ok();
}

Result<PageId> DiskManager::Allocate() {
  std::lock_guard<std::mutex> lock(mu_);
  if (page_count_ >= kInvalidPageId) {
    return Status::ResourceExhausted("page id space exhausted");
  }
  PageId id = static_cast<PageId>(page_count_);
  CODES_RETURN_IF_ERROR(AppendZeroPageLocked());
  return id;
}

Status DiskManager::EnsurePageCount(size_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  while (page_count_ < count) {
    CODES_RETURN_IF_ERROR(AppendZeroPageLocked());
  }
  return Status::Ok();
}

Status DiskManager::ReadPage(PageId id, std::byte* out) {
  if (Failpoints::ShouldFail(FailpointSite::kStoragePageRead)) {
    return Failpoints::FailStatus(FailpointSite::kStoragePageRead);
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (id >= page_count_) {
    return Status::Internal("read of unallocated page " + std::to_string(id));
  }
  ++reads_;
  PageReadCounter().Increment();
  CODES_RETURN_IF_ERROR(file_->Read(Offset(id), out, kPageSize));
  // Verify the physical header checksum. An all-zero page is an allocated
  // page that was never written — valid by definition (and a nonzero CRC
  // over zero payload means it cannot be confused with a stamped page).
  uint32_t stored = LoadU32(out + kPageChecksumOff);
  uint32_t actual =
      Crc32(out + kPageFlagsOff, kPageSize - kPageFlagsOff);
  if (stored != actual && !(stored == 0 && IsAllZero(out, kPageSize))) {
    ChecksumFailureCounter().Increment();
    return Status::DataLoss(
        "page " + std::to_string(id) + " checksum mismatch (stored " +
        std::to_string(stored) + ", computed " + std::to_string(actual) +
        "): torn write or corruption");
  }
  return Status::Ok();
}

Status DiskManager::WritePage(PageId id, const std::byte* data) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id >= page_count_) {
    return Status::Internal("write of unallocated page " +
                            std::to_string(id));
  }
  ++writes_;
  PageWriteCounter().Increment();
  // Stamp the checksum into a scratch image so the caller's buffer (a
  // buffer-pool frame) is never mutated here.
  std::byte stamped[kPageSize];
  std::memcpy(stamped, data, kPageSize);
  StoreU32(stamped + kPageChecksumOff,
           Crc32(stamped + kPageFlagsOff, kPageSize - kPageFlagsOff));
  if (Failpoints::ShouldFail(FailpointSite::kStorageTornWrite)) {
    // Persist only a prefix and report success: the lie every torn write
    // tells. The stale suffix fails checksum verification on read.
    CODES_RETURN_IF_ERROR(file_->Write(Offset(id), stamped, kTornWriteBytes));
    return Status::Ok();
  }
  return file_->Write(Offset(id), stamped, kPageSize);
}

Status DiskManager::Sync() {
  if (Failpoints::ShouldFail(FailpointSite::kStorageSync)) {
    return Failpoints::FailStatus(FailpointSite::kStorageSync);
  }
  std::lock_guard<std::mutex> lock(mu_);
  return file_->Sync();
}

Status DiskManager::CorruptPageForTest(PageId id, size_t offset) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id >= page_count_ || offset >= kPageSize) {
    return Status::InvalidArgument("corruption target out of range");
  }
  std::byte page[kPageSize];
  CODES_RETURN_IF_ERROR(file_->Read(Offset(id), page, kPageSize));
  page[offset] ^= std::byte{0xFF};
  return file_->Write(Offset(id), page, kPageSize);
}

size_t DiskManager::page_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return page_count_;
}

uint64_t DiskManager::read_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reads_;
}

uint64_t DiskManager::write_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return writes_;
}

}  // namespace codes::storage
