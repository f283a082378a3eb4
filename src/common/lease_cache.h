#ifndef CODES_COMMON_LEASE_CACHE_H_
#define CODES_COMMON_LEASE_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>

namespace codes {

/// A bounded, thread-safe LRU of immutable values handed out as
/// shared_ptr leases. It is the one eviction policy for per-database
/// serving state: the pipeline's value-index cache and the fleet's tenant
/// bundles both keep their entries here.
///
/// - Every entry is priced in bytes by whoever inserts it.
/// - Recency is a logical-clock stamp; every hit stores the next tick.
/// - After an insert, the entry with the smallest stamp is evicted until
///   both the entry cap and the byte cap hold (0 = no cap). The entry just
///   inserted is never evicted, so a value larger than the whole budget
///   still serves: a cache that can hold nothing would serve nothing.
/// - On a same-key race the first Insert wins; a later Insert gets the
///   winner's lease back with `inserted == false`. Callers count a miss
///   only for a winning insert, so hit/miss totals are the same at any
///   thread count.
/// - Eviction and Clear drop the cache's reference only. An outstanding
///   lease keeps its value alive until the holder releases it.
///
/// Thread-safety: every method may be called concurrently. Lookup takes
/// the shared lock and does not allocate: a hit costs one clock tick and
/// one relaxed store. Insert and Clear take the exclusive lock.
template <typename Key, typename Value>
class LeaseCache {
 public:
  using Lease = std::shared_ptr<const Value>;

  struct Limits {
    size_t max_entries = 0;  ///< 0 = no entry cap
    size_t max_bytes = 0;    ///< 0 = no byte cap
  };

  struct InsertResult {
    Lease lease;            ///< the cached value for the key
    bool inserted = false;  ///< true only for the winning insert (a miss)
    size_t evicted = 0;     ///< entries evicted by this insert
  };

  explicit LeaseCache(Limits limits) : limits_(limits) {}
  LeaseCache(const LeaseCache&) = delete;
  LeaseCache& operator=(const LeaseCache&) = delete;

  /// The cached value for `key`, marked most recently used; null on miss.
  Lease Lookup(const Key& key) {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it == entries_.end()) return nullptr;
    Touch(*it->second);
    return it->second->value;
  }

  /// Caches `value` (priced at `bytes`) under `key` unless another insert
  /// got there first, then evicts down to the limits.
  InsertResult Insert(const Key& key, Lease value, size_t bytes) {
    auto entry = std::make_unique<Entry>();
    entry->value = std::move(value);
    entry->bytes = bytes;
    std::unique_lock<std::shared_mutex> lock(mu_);
    InsertResult result;
    // A losing insert (key already present) drops its own entry.
    auto [it, inserted] = entries_.try_emplace(key, std::move(entry));
    Touch(*it->second);
    result.lease = it->second->value;
    if (!inserted) return result;
    bytes_ += bytes;
    result.inserted = true;
    while (entries_.size() > 1 && OverLimits()) {
      // entries_.size() > 1 guarantees a victim other than `it`; erasing
      // it leaves `it` valid.
      auto victim = entries_.end();
      uint64_t oldest = UINT64_MAX;
      for (auto e = entries_.begin(); e != entries_.end(); ++e) {
        if (e == it) continue;
        uint64_t stamp = e->second->stamp.load(std::memory_order_relaxed);
        if (stamp < oldest) {
          oldest = stamp;
          victim = e;
        }
      }
      bytes_ -= victim->second->bytes;
      entries_.erase(victim);
      ++result.evicted;
    }
    return result;
  }

  /// Drops every entry; returns how many there were.
  size_t Clear() {
    std::unique_lock<std::shared_mutex> lock(mu_);
    size_t dropped = entries_.size();
    entries_.clear();
    bytes_ = 0;
    return dropped;
  }

  size_t size() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return entries_.size();
  }

  /// Sum of the resident entries' prices.
  size_t bytes() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return bytes_;
  }

 private:
  struct Entry {
    Lease value;
    size_t bytes = 0;
    std::atomic<uint64_t> stamp{0};
  };

  void Touch(Entry& entry) {
    entry.stamp.store(clock_.fetch_add(1, std::memory_order_relaxed) + 1,
                      std::memory_order_relaxed);
  }

  bool OverLimits() const {
    return (limits_.max_entries != 0 &&
            entries_.size() > limits_.max_entries) ||
           (limits_.max_bytes != 0 && bytes_ > limits_.max_bytes);
  }

  const Limits limits_;
  mutable std::shared_mutex mu_;
  std::unordered_map<Key, std::unique_ptr<Entry>> entries_;
  size_t bytes_ = 0;
  std::atomic<uint64_t> clock_{0};
};

}  // namespace codes

#endif  // CODES_COMMON_LEASE_CACHE_H_
