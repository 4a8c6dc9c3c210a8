#include "serve/result_cache.h"

#include <algorithm>

#include "util/rng.h"

namespace sato::serve {

namespace {

// Two independent FNV-1a 64-bit streams. The second stream uses a
// different offset basis and a splitmix64 finalizer, so the pair behaves
// like one 128-bit hash for collision purposes.
constexpr uint64_t kFnvPrime = 0x100000001B3ull;
constexpr uint64_t kFnvBasisLo = 0xCBF29CE484222325ull;
constexpr uint64_t kFnvBasisHi = 0x84222325CBF29CE4ull;

struct HashPair {
  uint64_t lo = kFnvBasisLo;
  uint64_t hi = kFnvBasisHi;

  void Mix(const void* data, size_t n) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      lo = (lo ^ p[i]) * kFnvPrime;
      hi = (hi ^ (p[i] + 0x9Eu)) * kFnvPrime;
    }
  }

  void MixU64(uint64_t v) {
    unsigned char bytes[8];
    for (int i = 0; i < 8; ++i) bytes[i] = static_cast<unsigned char>(v >> (8 * i));
    Mix(bytes, sizeof(bytes));
  }
};

}  // namespace

CacheKey ComputeCacheKey(const Table& table, uint64_t seed,
                         uint64_t model_version) {
  HashPair h;
  h.MixU64(table.num_columns());
  for (const Column& column : table.columns()) {
    // Length-prefix every cell so concatenation ambiguity cannot alias two
    // different tables onto one key; headers and the table id stay out of
    // the hash (prediction never reads them).
    h.MixU64(column.values.size());
    for (const std::string& value : column.values) {
      h.MixU64(value.size());
      h.Mix(value.data(), value.size());
    }
  }
  h.MixU64(seed);
  h.MixU64(model_version);
  CacheKey key;
  key.lo = util::Mix64(h.lo);
  key.hi = util::Mix64(h.hi);
  return key;
}

ResultCache::ResultCache(const ResultCacheOptions& options)
    : fault_injector_(options.fault_injector) {
  capacity_entries_ = std::max<size_t>(1, options.capacity_entries);
  size_t shards = std::clamp<size_t>(options.num_shards, 1, 256);
  size_t rounded = 1;
  while (rounded < shards) rounded <<= 1;
  shard_mask_ = rounded - 1;
  shard_capacity_ = (capacity_entries_ + rounded - 1) / rounded;
  shards_.reserve(rounded);
  for (size_t i = 0; i < rounded; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

bool ResultCache::Lookup(const CacheKey& key, std::vector<TypeId>* type_ids) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  ++shard.lookups;
  // A forced miss degrades to a recompute downstream; determinism makes
  // that byte-identical, so this point can only ever cost latency.
  if (MaybeInject(fault_injector_, FaultPoint::kCacheLookupMiss)) {
    return false;
  }
  auto it = shard.index.find(key);
  if (it == shard.index.end()) return false;
  ++shard.hits;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);  // promote
  *type_ids = it->second->type_ids;
  return true;
}

void ResultCache::Insert(const CacheKey& key, uint64_t model_version,
                         const std::vector<TypeId>& type_ids) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  if (MaybeInject(fault_injector_, FaultPoint::kCacheInsertDrop)) {
    return;
  }
  ++shard.insertions;
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    shard.bytes -= EntryBytes(*it->second);
    it->second->model_version = model_version;
    it->second->type_ids = type_ids;
    shard.bytes += EntryBytes(*it->second);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  shard.lru.push_front(Entry{key, model_version, type_ids});
  shard.index.emplace(key, shard.lru.begin());
  shard.bytes += EntryBytes(shard.lru.front());
  while (shard.lru.size() > shard_capacity_) {
    const Entry& victim = shard.lru.back();
    shard.bytes -= EntryBytes(victim);
    shard.index.erase(victim.key);
    shard.lru.pop_back();
    ++shard.evictions;
  }
}

void ResultCache::PurgeVersionsOtherThan(uint64_t version) {
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (auto it = shard.lru.begin(); it != shard.lru.end();) {
      if (it->model_version != version) {
        shard.bytes -= EntryBytes(*it);
        shard.index.erase(it->key);
        it = shard.lru.erase(it);
        ++shard.version_purged;
      } else {
        ++it;
      }
    }
  }
}

void ResultCache::Clear() {
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.lru.clear();
    shard.index.clear();
    shard.bytes = 0;
  }
}

ResultCacheStats ResultCache::Stats() const {
  ResultCacheStats stats;
  for (const auto& shard_ptr : shards_) {
    const Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mutex);
    stats.lookups += shard.lookups;
    stats.hits += shard.hits;
    stats.insertions += shard.insertions;
    stats.evictions += shard.evictions;
    stats.version_purged += shard.version_purged;
    stats.entries += shard.lru.size();
    stats.bytes += shard.bytes;
  }
  stats.misses = stats.lookups - stats.hits;
  return stats;
}

}  // namespace sato::serve
