#ifndef CODES_COMMON_FLAT_HASH_H_
#define CODES_COMMON_FLAT_HASH_H_

// Open-addressing hash primitives for the hot-path speed campaign.
//
// The serving hot paths (BM25 scoring, n-gram LM probing) were originally
// built on nested std::unordered_map<std::string, ...>: every probe paid a
// heap-allocated key build, a string hash, and a cache-hostile bucket chain
// walk. The two classes here are the shared replacement substrate:
//
//  * FlatHash64<V>  — uint64 keys (callers pack IDs into the key) to a
//    trivially copyable value, linear probing over a power-of-two table.
//  * StringInterner — string -> dense uint32 id with all key bytes stored
//    in one contiguous arena, so lookups compare against cache-resident
//    memory and ids index plain vectors afterwards.
//
// Both are deliberately minimal: no erase, value types are trivially
// copyable, and iteration order is never part of any observable contract
// (the equivalence tests in tests/speed_equivalence_test.cc pin that the
// rewritten components built on these produce byte-identical results to
// the pinned map-based references).

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/serial.h"
#include "common/status.h"

namespace codes {

/// SplitMix64 finalizer: a full-avalanche 64->64 mixer.
inline uint64_t HashMix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

/// 64-bit FNV-1a over the bytes of `s`, continuing from `h`. Stable across
/// platforms, unlike std::hash: the pipeline's per-question seeds and every
/// campaign digest use it. The default start value, 1469598103934665603,
/// is one digit short of the published FNV offset basis
/// (14695981039346656037); every recorded digest and seed depends on it,
/// so it stays.
inline uint64_t Fnv1a64(std::string_view s,
                        uint64_t h = 1469598103934665603ULL) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Streaming FNV-1a: `value` after Add(a), Add(b) equals Fnv1a64(a + b).
struct Fnv1aDigest {
  uint64_t value = Fnv1a64("");
  void Add(std::string_view s) { value = Fnv1a64(s, value); }
};

/// FNV-1a over the bytes, finished with HashMix64 so short keys still
/// spread across the whole table.
inline uint64_t HashBytes(std::string_view s) {
  return HashMix64(Fnv1a64(s));
}

/// Open-addressing (linear probe) hash map from uint64 keys to a small
/// trivially copyable value. The all-ones key is reserved as the empty
/// slot marker; callers pack dense IDs into keys, so it is unreachable.
template <typename V>
class FlatHash64 {
 public:
  static constexpr uint64_t kEmptyKey = ~0ULL;

  FlatHash64() = default;

  size_t size() const { return size_; }

  /// Pointer to the value for `key`, or nullptr when absent.
  const V* Find(uint64_t key) const {
    if (slots_.empty()) return nullptr;
    size_t idx = HashMix64(key) & mask_;
    while (true) {
      const Slot& slot = slots_[idx];
      if (slot.key == key) return &slot.value;
      if (slot.key == kEmptyKey) return nullptr;
      idx = (idx + 1) & mask_;
    }
  }
  V* Find(uint64_t key) {
    return const_cast<V*>(static_cast<const FlatHash64*>(this)->Find(key));
  }

  /// Returns the value slot for `key`, inserting `init` first when absent.
  /// `inserted`, when non-null, reports whether an insert happened.
  V& FindOrInsert(uint64_t key, V init, bool* inserted = nullptr) {
    CODES_CHECK(key != kEmptyKey);
    if (slots_.empty() || (size_ + 1) * 10 > slots_.size() * 7) Grow();
    size_t idx = HashMix64(key) & mask_;
    while (true) {
      Slot& slot = slots_[idx];
      if (slot.key == key) {
        if (inserted != nullptr) *inserted = false;
        return slot.value;
      }
      if (slot.key == kEmptyKey) {
        slot.key = key;
        slot.value = init;
        ++size_;
        if (inserted != nullptr) *inserted = true;
        return slot.value;
      }
      idx = (idx + 1) & mask_;
    }
  }

  /// Pre-sizes the table for `n` keys (amortizes Grow during bulk loads).
  void Reserve(size_t n) {
    size_t needed = 16;
    while (n * 10 > needed * 7) needed <<= 1;
    if (needed > slots_.size()) Rehash(needed);
  }

 private:
  struct Slot {
    uint64_t key = kEmptyKey;
    V value{};
  };

  void Grow() { Rehash(slots_.empty() ? 16 : slots_.size() * 2); }

  void Rehash(size_t capacity) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(capacity, Slot{});
    mask_ = capacity - 1;
    for (const Slot& slot : old) {
      if (slot.key == kEmptyKey) continue;
      size_t idx = HashMix64(slot.key) & mask_;
      while (slots_[idx].key != kEmptyKey) idx = (idx + 1) & mask_;
      slots_[idx] = slot;
    }
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  size_t size_ = 0;
};

/// Interns strings into dense uint32 ids. Key bytes live in a single
/// growable arena (no per-key heap node), and the id space is dense from
/// 0, so callers attach per-key payloads as plain vectors indexed by id.
class StringInterner {
 public:
  /// Returned by Find for absent keys; never a valid id.
  static constexpr uint32_t kNpos = ~0U;

  /// Id of `s`, interning it first when new.
  uint32_t Intern(std::string_view s) {
    if (slots_.empty() || (spans_.size() + 1) * 10 > slots_.size() * 7) Grow();
    uint64_t hash = HashBytes(s);
    size_t idx = hash & mask_;
    while (true) {
      uint32_t id = slots_[idx];
      if (id == kNpos) break;
      if (hashes_[id] == hash && View(id) == s) return id;
      idx = (idx + 1) & mask_;
    }
    uint32_t id = static_cast<uint32_t>(spans_.size());
    spans_.push_back(Span{arena_.size(), static_cast<uint32_t>(s.size())});
    hashes_.push_back(hash);
    arena_.append(s.data(), s.size());
    slots_[idx] = id;
    return id;
  }

  /// Id of `s`, or kNpos when it was never interned. Never mutates, so the
  /// const scoring paths can probe with query tokens safely.
  uint32_t Find(std::string_view s) const {
    if (slots_.empty()) return kNpos;
    uint64_t hash = HashBytes(s);
    size_t idx = hash & mask_;
    while (true) {
      uint32_t id = slots_[idx];
      if (id == kNpos) return kNpos;
      if (hashes_[id] == hash && View(id) == s) return id;
      idx = (idx + 1) & mask_;
    }
  }

  /// The interned bytes of `id` (valid while the interner lives).
  std::string_view View(uint32_t id) const {
    const Span& span = spans_[id];
    return std::string_view(arena_.data() + span.offset, span.length);
  }

  /// Number of distinct interned strings (== the smallest unused id).
  size_t size() const { return spans_.size(); }

  /// Resident cost in bytes (arena plus tables) — the figure the fleet
  /// manager charges against its memory budget.
  size_t ApproxBytes() const {
    return arena_.size() + spans_.size() * sizeof(Span) +
           hashes_.size() * sizeof(uint64_t) +
           slots_.size() * sizeof(uint32_t);
  }

  /// Serializes the interner (arena + spans; hashes and the probe table
  /// are derived on load). Ids are preserved exactly — callers index
  /// parallel vectors by id, so the mapping must survive a round trip.
  void SaveTo(std::string* out) const {
    serial::PutString(out, arena_);
    serial::PutU64(out, spans_.size());
    for (const Span& span : spans_) {
      serial::PutU64(out, span.offset);
      serial::PutU32(out, span.length);
    }
  }

  /// Restores from SaveTo bytes. On any malformation the interner is left
  /// empty and false is returned.
  bool LoadFrom(serial::Reader* reader) {
    *this = StringInterner();
    if (!reader->ReadString(&arena_)) return false;
    uint64_t n = 0;
    if (!reader->ReadU64(&n)) return false;
    spans_.reserve(n);
    hashes_.reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
      uint64_t offset = 0;
      uint32_t length = 0;
      if (!reader->ReadU64(&offset) || !reader->ReadU32(&length) ||
          offset > arena_.size() || length > arena_.size() - offset) {
        *this = StringInterner();
        return false;
      }
      spans_.push_back(Span{static_cast<size_t>(offset), length});
      hashes_.push_back(HashBytes(
          std::string_view(arena_.data() + offset, length)));
    }
    // Rebuild the probe table at the same growth thresholds Intern uses.
    if (!spans_.empty()) {
      size_t capacity = 16;
      while (spans_.size() * 10 > capacity * 7) capacity <<= 1;
      slots_.assign(capacity, kNpos);
      mask_ = capacity - 1;
      for (uint32_t id = 0; id < spans_.size(); ++id) {
        size_t idx = hashes_[id] & mask_;
        while (slots_[idx] != kNpos) idx = (idx + 1) & mask_;
        slots_[idx] = id;
      }
    }
    return true;
  }

 private:
  struct Span {
    size_t offset;
    uint32_t length;
  };

  void Grow() {
    size_t capacity = slots_.empty() ? 16 : slots_.size() * 2;
    slots_.assign(capacity, kNpos);
    mask_ = capacity - 1;
    for (uint32_t id = 0; id < spans_.size(); ++id) {
      size_t idx = hashes_[id] & mask_;
      while (slots_[idx] != kNpos) idx = (idx + 1) & mask_;
      slots_[idx] = id;
    }
  }

  std::string arena_;
  std::vector<Span> spans_;
  std::vector<uint64_t> hashes_;
  std::vector<uint32_t> slots_;
  size_t mask_ = 0;
};

}  // namespace codes

#endif  // CODES_COMMON_FLAT_HASH_H_
