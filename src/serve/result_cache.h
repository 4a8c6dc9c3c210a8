#ifndef SATO_SERVE_RESULT_CACHE_H_
#define SATO_SERVE_RESULT_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "serve/fault_injector.h"
#include "table/semantic_type.h"
#include "table/table.h"

namespace sato::serve {

/// 128-bit content-addressed cache key: two independent 64-bit FNV-1a
/// streams (different offset basis / finalizer) over the canonical table
/// content plus the caller seed and the model version. 128 bits makes an
/// accidental collision -- which would silently serve another table's
/// prediction -- astronomically unlikely rather than merely rare.
struct CacheKey {
  uint64_t lo = 0;
  uint64_t hi = 0;

  bool operator==(const CacheKey& other) const {
    return lo == other.lo && hi == other.hi;
  }
};

struct CacheKeyHash {
  size_t operator()(const CacheKey& key) const {
    // lo is already a mixed 64-bit hash; xor folds hi in for map bucketing.
    return static_cast<size_t>(key.lo ^ (key.hi * 0x9E3779B97F4A7C15ull));
  }
};

/// Canonical table-content hash. The key covers EXACTLY the inputs the
/// standing determinism guarantee names -- every prediction is a pure
/// function of (table, caller seed, model version) -- so a cache hit is
/// byte-identical to the cold prediction by construction:
///   - column count, per-column value count, and every cell's bytes
///     (length-prefixed, so {"ab","c"} never aliases {"a","bc"});
///   - the caller-supplied seed;
///   - the registry version the response would be served on.
/// Table id and headers are EXCLUDED: SatoPredictor never consults them
/// (headers are ground-truth labels only, paper section 2), so two tables
/// differing only there must share a cache line.
CacheKey ComputeCacheKey(const Table& table, uint64_t seed,
                         uint64_t model_version);

struct ResultCacheOptions {
  /// Total retained entries across all shards. Clamped to >= 1.
  size_t capacity_entries = 4096;
  /// Lock shards; rounded up to a power of two, clamped to [1, 256].
  /// Each shard holds ceil(capacity / shards) entries under its own mutex,
  /// so concurrent producers on different keys rarely contend.
  size_t num_shards = 8;
  /// Fault injection (kCacheLookupMiss forces a miss, kCacheInsertDrop
  /// drops an insert): both degrade to a recompute -- by the determinism
  /// contract the cache can only ever lose speed, never correctness.
  /// Borrowed; nullptr (default) disables.
  FaultInjector* fault_injector = nullptr;
};

/// Aggregated counters over every shard (Stats() takes each shard lock in
/// turn; the snapshot is per-shard consistent, not globally atomic).
struct ResultCacheStats {
  uint64_t lookups = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;        ///< LRU capacity evictions
  uint64_t version_purged = 0;   ///< entries dropped by PurgeVersionsOtherThan
  uint64_t entries = 0;          ///< currently resident
  uint64_t bytes = 0;            ///< resident payload footprint (approx.)
};

/// Sharded LRU result cache in front of inference.
///
/// Keys are content hashes (ComputeCacheKey), values are the predicted
/// type-id sequences. Because the model version is part of the key, a
/// registry Publish invalidates the whole cache *semantically* at the
/// moment it swaps -- post-swap lookups hash to new keys and miss, so the
/// cache can never serve a stale version. PurgeVersionsOtherThan() is the
/// space-reclamation half: it drops the now-unreachable entries eagerly
/// instead of waiting for LRU pressure to age them out.
///
/// Thread-safe; every operation takes exactly one shard mutex (Stats,
/// Clear and PurgeVersionsOtherThan take them one at a time).
class ResultCache {
 public:
  explicit ResultCache(const ResultCacheOptions& options = {});

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// True on hit; copies the cached prediction into `*type_ids` and
  /// promotes the entry to most-recently-used. `type_ids` must be non-null.
  bool Lookup(const CacheKey& key, std::vector<TypeId>* type_ids);

  /// Inserts (or refreshes) one prediction. Re-inserting an existing key
  /// overwrites and promotes -- concurrent producers racing on the same
  /// key write identical bytes (determinism guarantee), so last-write-wins
  /// is safe. Evicts least-recently-used entries past shard capacity.
  void Insert(const CacheKey& key, uint64_t model_version,
              const std::vector<TypeId>& type_ids);

  /// Drops every entry whose model version differs from `version` --
  /// called after a hot swap so superseded results free their space
  /// immediately (they are already unreachable through lookups).
  void PurgeVersionsOtherThan(uint64_t version);

  /// Drops everything (counters other than entries/bytes are kept).
  void Clear();

  ResultCacheStats Stats() const;

  size_t capacity_entries() const { return capacity_entries_; }
  size_t num_shards() const { return shards_.size(); }

 private:
  struct Entry {
    CacheKey key;
    uint64_t model_version = 0;
    std::vector<TypeId> type_ids;
  };

  struct Shard {
    mutable std::mutex mutex;
    std::list<Entry> lru;  // front = most recently used
    std::unordered_map<CacheKey, std::list<Entry>::iterator, CacheKeyHash>
        index;
    uint64_t lookups = 0;
    uint64_t hits = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
    uint64_t version_purged = 0;
    uint64_t bytes = 0;
  };

  static size_t EntryBytes(const Entry& entry) {
    return sizeof(Entry) + entry.type_ids.size() * sizeof(TypeId);
  }

  Shard& ShardFor(const CacheKey& key) {
    return *shards_[key.hi & shard_mask_];
  }

  size_t capacity_entries_;
  size_t shard_capacity_;
  size_t shard_mask_;
  std::vector<std::unique_ptr<Shard>> shards_;
  FaultInjector* fault_injector_ = nullptr;
};

}  // namespace sato::serve

#endif  // SATO_SERVE_RESULT_CACHE_H_
