#ifndef CODES_STORAGE_FILE_H_
#define CODES_STORAGE_FILE_H_

// The one byte-file interface under the storage engine (DESIGN.md
// section 15). DiskManager and Wal each run on one File and never ask
// what kind it is. Two implementations:
//
//   PosixFile  a real file (below) — the only code in the engine that
//              calls the operating system's file API
//   SimFile    the crash simulator's file (crash_sim.h); a SimFile in a
//              private SimEnv is also the in-memory store
//
// Ownership: whoever opens a file owns it. DiskManager, Wal and StorageDb
// only borrow the File*, so it must outlive them.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "common/status.h"

namespace codes::storage {

class File {
 public:
  File() = default;
  virtual ~File() = default;
  File(const File&) = delete;
  File& operator=(const File&) = delete;

  /// Reads exactly `n` bytes at `off`; a short read is an error.
  virtual Status Read(uint64_t off, void* out, size_t n) const = 0;

  /// Writes `n` bytes at `off`, zero-extending any gap past the end.
  virtual Status Write(uint64_t off, const void* data, size_t n) = 0;

  /// Durability barrier: every earlier Write/Truncate survives power loss.
  virtual Status Sync() = 0;

  /// Shrinks or zero-extends the file to `new_size` bytes.
  virtual Status Truncate(uint64_t new_size) = 0;

  virtual uint64_t size() const = 0;
};

class PosixFile final : public File {
 public:
  /// Creates `path`, truncating an existing file to zero bytes.
  static Result<std::unique_ptr<PosixFile>> Create(const std::string& path);

  /// Opens the existing file at `path`; kNotFound when there is none.
  static Result<std::unique_ptr<PosixFile>> Open(const std::string& path);

  ~PosixFile() override;

  Status Read(uint64_t off, void* out, size_t n) const override;
  Status Write(uint64_t off, const void* data, size_t n) override;
  /// fdatasync.
  Status Sync() override;
  Status Truncate(uint64_t new_size) override;
  uint64_t size() const override;

 private:
  PosixFile(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}
  static Result<std::unique_ptr<PosixFile>> OpenWithFlags(
      const std::string& path, int flags);

  int fd_;
  std::string path_;
};

}  // namespace codes::storage

#endif  // CODES_STORAGE_FILE_H_
