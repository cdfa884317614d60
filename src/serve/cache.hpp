// Sharded LRU result cache, content-addressed by the canonical request form.
//
// Keys are (fnv1a64 hash, canonical JSON string); the full canonical string
// is stored and compared on lookup, so a 64-bit hash collision degrades to a
// miss instead of serving a wrong result. Values are the serialized response
// payloads — caching the exact bytes is what makes cached and cold responses
// byte-identical by construction.
//
// Sharding: the hash selects one of N independently-locked LRU shards, so
// concurrent pool workers rarely contend. Capacity is split evenly across
// shards (per-shard LRU, not global — an intentionally cheap approximation;
// a pathological key distribution can evict earlier than a global LRU
// would, which costs a re-evaluation, never a wrong answer).
//
// Two bounds hold in every shard: its share of the entry capacity and its
// share of a byte budget over keys plus payloads (kResultCacheBytes), so a
// stream of distinct requests with large keys or replies (a grid netlist's
// canonical key, a pareto reply) cannot grow the process without limit. An
// entry larger than its shard's byte share is not cached at all; its reply
// is still served (and written through to the durable store) by the caller.
//
// Counter discipline: hit/miss/eviction tallies are std::atomic — bumped at
// event time but *read* lock-free by stats(), so concurrent clients polling
// the "stats"/"metrics" ops never contend with the lookup path and never
// read torn values. Every event is also routed to
// the process metrics registry ("serve.cache.*"), which aggregates across
// all caches in the process; the per-instance CacheStats remain the
// per-Service snapshot the batch transport diffs between passes.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace ivory::serve {

/// Byte budget of a ResultCache across all its shards: canonical keys plus
/// payloads.
inline constexpr std::size_t kResultCacheBytes = std::size_t{8} << 20;

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t entries = 0;
  std::uint64_t bytes = 0;  ///< keys + payloads held
  std::uint64_t capacity = 0;
};

class ResultCache {
 public:
  /// `capacity` is the total entry budget across all shards (min 1); each
  /// shard gets an even share of it and of kResultCacheBytes. `shards` is
  /// clamped so every shard holds at least one entry.
  explicit ResultCache(std::size_t capacity, std::size_t shards = 8);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Returns the cached payload and promotes the entry to most-recent, or
  /// nullopt (counting a miss).
  std::optional<std::string> lookup(std::uint64_t key_hash, std::string_view canonical_key);

  /// lookup() for a caller that looks again before evaluating on a miss: a
  /// hit counts and promotes as in lookup(), a miss counts nothing.
  std::optional<std::string> probe(std::uint64_t key_hash, std::string_view canonical_key);

  /// Inserts (or refreshes) an entry, evicting the shard's least-recently
  /// used entries until both its entry and its byte share hold. An entry
  /// larger than the shard's byte share is not inserted.
  void insert(std::uint64_t key_hash, std::string canonical_key, std::string payload);

  CacheStats stats() const;
  void clear();

 private:
  struct Entry {
    std::string key;
    std::string payload;
  };
  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  ///< front = most recently used
    /// Views point into Entry::key of lru nodes (stable across splice).
    std::unordered_map<std::string_view, std::list<Entry>::iterator> index;
    /// Written under mu, read lock-free by stats().
    std::atomic<std::uint64_t> hits{0}, misses{0}, evictions{0};
    std::atomic<std::uint64_t> entries{0};  ///< == lru.size(), mirrored on change
    std::atomic<std::uint64_t> bytes{0};    ///< keys + payloads in lru, mirrored
  };

  Shard& shard_for(std::uint64_t key_hash) {
    return shards_[key_hash % shards_.size()];
  }

  std::size_t per_shard_capacity_;
  std::size_t per_shard_bytes_;
  std::vector<Shard> shards_;
};

}  // namespace ivory::serve
