#include "serve/cache.hpp"

#include <algorithm>

#include "common/metrics.hpp"

namespace ivory::serve {

namespace {

// Process-wide cache counters (sum over every ResultCache instance). The
// references are resolved once; recording is the registry's lock-free path.
metrics::Counter& g_hits() {
  static metrics::Counter& c = metrics::registry().counter("serve.cache.hits");
  return c;
}
metrics::Counter& g_misses() {
  static metrics::Counter& c = metrics::registry().counter("serve.cache.misses");
  return c;
}
metrics::Counter& g_evictions() {
  static metrics::Counter& c = metrics::registry().counter("serve.cache.evictions");
  return c;
}

}  // namespace

ResultCache::ResultCache(std::size_t capacity, std::size_t shards) {
  capacity = std::max<std::size_t>(1, capacity);
  shards = std::max<std::size_t>(1, std::min(shards, capacity));
  per_shard_capacity_ = std::max<std::size_t>(1, capacity / shards);
  per_shard_bytes_ = kResultCacheBytes / shards;
  shards_ = std::vector<Shard>(shards);
}

std::optional<std::string> ResultCache::lookup(std::uint64_t key_hash,
                                               std::string_view canonical_key) {
  std::optional<std::string> hit = probe(key_hash, canonical_key);
  if (!hit) {
    shard_for(key_hash).misses.fetch_add(1, std::memory_order_relaxed);
    g_misses().add();
  }
  return hit;
}

std::optional<std::string> ResultCache::probe(std::uint64_t key_hash,
                                              std::string_view canonical_key) {
  Shard& s = shard_for(key_hash);
  std::lock_guard<std::mutex> lock(s.mu);
  const auto it = s.index.find(canonical_key);
  if (it == s.index.end()) return std::nullopt;
  s.hits.fetch_add(1, std::memory_order_relaxed);
  g_hits().add();
  s.lru.splice(s.lru.begin(), s.lru, it->second);  // promote; iterators stay valid
  return it->second->payload;
}

void ResultCache::insert(std::uint64_t key_hash, std::string canonical_key,
                         std::string payload) {
  Shard& s = shard_for(key_hash);
  std::lock_guard<std::mutex> lock(s.mu);
  const auto it = s.index.find(std::string_view(canonical_key));
  if (it != s.index.end()) {
    // Concurrent evaluation of the same request already published the (by
    // construction identical) payload; just promote.
    s.lru.splice(s.lru.begin(), s.lru, it->second);
    return;
  }
  const std::size_t size = canonical_key.size() + payload.size();
  if (size > per_shard_bytes_) return;  // Served, never held.
  std::uint64_t bytes = s.bytes.load(std::memory_order_relaxed);
  while (s.lru.size() >= per_shard_capacity_ || bytes + size > per_shard_bytes_) {
    const Entry& victim = s.lru.back();
    bytes -= victim.key.size() + victim.payload.size();
    s.index.erase(std::string_view(victim.key));
    s.lru.pop_back();
    s.evictions.fetch_add(1, std::memory_order_relaxed);
    g_evictions().add();
  }
  s.lru.push_front(Entry{std::move(canonical_key), std::move(payload)});
  s.index.emplace(std::string_view(s.lru.front().key), s.lru.begin());
  s.entries.store(s.lru.size(), std::memory_order_relaxed);
  s.bytes.store(bytes + size, std::memory_order_relaxed);
}

CacheStats ResultCache::stats() const {
  // Lock-free aggregation: relaxed reads of the atomic tallies. Counters
  // may be mid-update while clients poll, but each read is a whole value —
  // never torn — and monotonicity makes interleaved snapshots meaningful.
  CacheStats out;
  out.capacity = per_shard_capacity_ * shards_.size();
  for (const Shard& s : shards_) {
    out.hits += s.hits.load(std::memory_order_relaxed);
    out.misses += s.misses.load(std::memory_order_relaxed);
    out.evictions += s.evictions.load(std::memory_order_relaxed);
    out.entries += s.entries.load(std::memory_order_relaxed);
    out.bytes += s.bytes.load(std::memory_order_relaxed);
  }
  return out;
}

void ResultCache::clear() {
  for (Shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mu);
    s.index.clear();
    s.lru.clear();
    s.entries.store(0, std::memory_order_relaxed);
    s.bytes.store(0, std::memory_order_relaxed);
  }
}

}  // namespace ivory::serve
