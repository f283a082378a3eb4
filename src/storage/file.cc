#include "storage/file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace codes::storage {

Result<std::unique_ptr<PosixFile>> PosixFile::Create(const std::string& path) {
  return OpenWithFlags(path, O_RDWR | O_CREAT | O_TRUNC);
}

Result<std::unique_ptr<PosixFile>> PosixFile::Open(const std::string& path) {
  return OpenWithFlags(path, O_RDWR);
}

Result<std::unique_ptr<PosixFile>> PosixFile::OpenWithFlags(
    const std::string& path, int flags) {
  int fd = ::open(path.c_str(), flags | O_CLOEXEC, 0644);
  if (fd < 0) {
    std::string why = "cannot open " + path + ": " + std::strerror(errno);
    if (errno == ENOENT) return Status::NotFound(why);
    return Status::Internal(why);
  }
  return std::unique_ptr<PosixFile>(new PosixFile(fd, path));
}

PosixFile::~PosixFile() { ::close(fd_); }

Status PosixFile::Read(uint64_t off, void* out, size_t n) const {
  auto* dst = static_cast<char*>(out);
  while (n > 0) {
    ssize_t got = ::pread(fd_, dst, n, static_cast<off_t>(off));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return Status::Internal("short read from " + path_);
    dst += got;
    off += static_cast<uint64_t>(got);
    n -= static_cast<size_t>(got);
  }
  return Status::Ok();
}

Status PosixFile::Write(uint64_t off, const void* data, size_t n) {
  const auto* src = static_cast<const char*>(data);
  while (n > 0) {
    ssize_t put = ::pwrite(fd_, src, n, static_cast<off_t>(off));
    if (put < 0 && errno == EINTR) continue;
    if (put <= 0) return Status::Internal("short write to " + path_);
    src += put;
    off += static_cast<uint64_t>(put);
    n -= static_cast<size_t>(put);
  }
  return Status::Ok();
}

Status PosixFile::Sync() {
  if (::fdatasync(fd_) != 0) {
    return Status::Internal("fdatasync failed on " + path_);
  }
  return Status::Ok();
}

Status PosixFile::Truncate(uint64_t new_size) {
  if (::ftruncate(fd_, static_cast<off_t>(new_size)) != 0) {
    return Status::Internal("cannot truncate " + path_);
  }
  return Status::Ok();
}

uint64_t PosixFile::size() const {
  struct stat st;
  if (::fstat(fd_, &st) != 0) return 0;
  return static_cast<uint64_t>(st.st_size);
}

}  // namespace codes::storage
