#ifndef SPRITE_CACHE_LRU_CACHE_H_
#define SPRITE_CACHE_LRU_CACHE_H_

#include <cstddef>
#include <functional>
#include <list>
#include <unordered_map>
#include <utility>

namespace sprite::cache {

// Capacity limits of one cache instance.
struct CacheLimits {
  size_t max_entries = 0;  // 0: unlimited
  size_t max_bytes = 0;    // 0: unlimited
};

// An LRU map with dual capacity limits (entries and bytes), generic over
// the key type (interned ids in production; anything hashable in tests).
// Entries never expire; they leave by eviction or Erase. The cache keeps no
// statistics of its own; every operation reports what happened so the
// owner (CacheManager) can aggregate counts across many per-peer instances
// without double bookkeeping.
template <typename K, typename V, typename Hash = std::hash<K>>
class LruCache {
 public:
  explicit LruCache(CacheLimits limits) : limits_(limits) {}

  // Looks up `key`: nullptr on a miss; a hit moves the entry to the MRU
  // position.
  V* Get(const K& key) {
    auto it = map_.find(key);
    if (it == map_.end()) return nullptr;
    lru_.splice(lru_.begin(), lru_, it->second);
    return &it->second->value;
  }

  struct PutOutcome {
    bool replaced = false;  // overwrote an existing entry
    size_t evicted = 0;     // LRU entries pushed out by the capacity limits
  };
  // Inserts (or refreshes) `key` at the MRU position. `entry_bytes` is the
  // caller's estimate of the full entry footprint — payload plus the wire
  // form of the key (an interned key still charges what its spelling would
  // occupy on the wire, so byte caps are representation-independent). The
  // newest entry is never evicted by its own insertion, even when it alone
  // exceeds max_bytes.
  PutOutcome Put(const K& key, V value, size_t entry_bytes) {
    PutOutcome outcome;
    auto it = map_.find(key);
    if (it != map_.end()) {
      bytes_ -= it->second->bytes;
      lru_.erase(it->second);
      map_.erase(it);
      outcome.replaced = true;
    }
    lru_.push_front(Entry{key, std::move(value), entry_bytes});
    map_[key] = lru_.begin();
    bytes_ += entry_bytes;
    while (lru_.size() > 1 && OverCapacity()) {
      auto victim = std::prev(lru_.end());
      bytes_ -= victim->bytes;
      map_.erase(victim->key);
      lru_.erase(victim);
      ++outcome.evicted;
    }
    return outcome;
  }

  // Drops `key` (invalidation). Returns whether it was present.
  bool Erase(const K& key) {
    auto it = map_.find(key);
    if (it == map_.end()) return false;
    bytes_ -= it->second->bytes;
    lru_.erase(it->second);
    map_.erase(it);
    return true;
  }

  size_t entries() const { return map_.size(); }
  size_t bytes() const { return bytes_; }

  void Clear() {
    lru_.clear();
    map_.clear();
    bytes_ = 0;
  }

 private:
  struct Entry {
    K key;
    V value;
    size_t bytes = 0;
  };

  bool OverCapacity() const {
    return (limits_.max_entries > 0 && map_.size() > limits_.max_entries) ||
           (limits_.max_bytes > 0 && bytes_ > limits_.max_bytes);
  }

  CacheLimits limits_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<K, typename std::list<Entry>::iterator, Hash> map_;
  size_t bytes_ = 0;
};

}  // namespace sprite::cache

#endif  // SPRITE_CACHE_LRU_CACHE_H_
