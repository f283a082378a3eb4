#ifndef CODES_COMMON_SERIAL_H_
#define CODES_COMMON_SERIAL_H_

// Minimal binary (de)serialization substrate for persisted serving
// artifacts (fleet tenant snapshots: BM25 value indexes, classifier
// weights, demonstration pools).
//
// Format philosophy: fixed-width little-endian-as-stored integers and
// bit-cast doubles appended to a std::string. Snapshots are a cache, not
// an interchange format — they are written and read by the same build on
// the same machine, and a reader that finds anything unexpected returns
// kDataLoss so the caller falls back to rebuilding the artifact from its
// source of truth (the database). That contract is what keeps the readers
// simple: every Read* is bounds-checked, nothing is ever trusted.

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/status.h"

namespace codes {
namespace serial {

inline void PutU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

inline void PutU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

inline void PutI32(std::string* out, int32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

/// Bit-cast: the reader restores the exact bit pattern, so round-tripped
/// doubles compare bitwise-equal (the fleet equivalence tests rely on it).
inline void PutDouble(std::string* out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

inline void PutString(std::string* out, std::string_view s) {
  PutU64(out, s.size());
  out->append(s.data(), s.size());
}

/// Bounds-checked sequential reader over a serialized buffer. Every
/// accessor returns false once the buffer is exhausted or malformed;
/// callers surface that as kDataLoss and rebuild from source.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  bool ReadU32(uint32_t* v) { return ReadRaw(v, sizeof(*v)); }
  bool ReadU64(uint64_t* v) { return ReadRaw(v, sizeof(*v)); }
  bool ReadI32(int32_t* v) { return ReadRaw(v, sizeof(*v)); }

  bool ReadDouble(double* v) {
    uint64_t bits;
    if (!ReadU64(&bits)) return false;
    std::memcpy(v, &bits, sizeof(*v));
    return true;
  }

  bool ReadString(std::string* s) {
    uint64_t size;
    if (!ReadU64(&size)) return false;
    if (size > data_.size() - pos_) return false;
    s->assign(data_.data() + pos_, size);
    pos_ += size;
    return true;
  }

  size_t remaining() const { return data_.size() - pos_; }
  size_t pos() const { return pos_; }
  bool Done() const { return pos_ == data_.size(); }

 private:
  bool ReadRaw(void* out, size_t n) {
    if (n > data_.size() - pos_) return false;
    std::memcpy(out, data_.data() + pos_, n);
    pos_ += n;
    return true;
  }

  std::string_view data_;
  size_t pos_ = 0;
};

/// Shared helper for snapshot headers: a 4-byte magic plus a version word.
inline void PutMagic(std::string* out, uint32_t magic, uint32_t version) {
  PutU32(out, magic);
  PutU32(out, version);
}

inline bool ReadMagic(Reader* reader, uint32_t magic, uint32_t version) {
  uint32_t m = 0, v = 0;
  return reader->ReadU32(&m) && reader->ReadU32(&v) && m == magic &&
         v == version;
}

}  // namespace serial
}  // namespace codes

#endif  // CODES_COMMON_SERIAL_H_
