#include "engine/path_cache.hpp"

#include <utility>

#include "obs/obs.hpp"

namespace upsim::engine {

std::size_t PathQueryKeyHash::operator()(const PathQueryKey& k) const noexcept {
  auto mix = [](std::size_t state, std::size_t v) noexcept {
    state ^= v + 0x9E3779B97F4A7C15ULL + (state << 6) + (state >> 2);
    state *= 0xBF58476D1CE4E5B9ULL;
    return state ^ (state >> 31);
  };
  std::size_t h = pathdisc::hash_value(k.options);
  h = mix(h, static_cast<std::size_t>(graph::index(k.source)));
  h = mix(h, static_cast<std::size_t>(graph::index(k.target)));
  h = mix(h, static_cast<std::size_t>(k.epoch));
  return h;
}

PathSetCache::PathSetCache() {
  shards_.reserve(kCacheShards);
  for (std::size_t i = 0; i < kCacheShards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

PathSetCache::Shard& PathSetCache::shard_for(
    const PathQueryKey& key) const noexcept {
  return *shards_[PathQueryKeyHash{}(key) % shards_.size()];
}

std::shared_ptr<const pathdisc::PathSet> PathSetCache::get_or_compute(
    const PathQueryKey& key,
    const std::function<pathdisc::PathSet()>& compute, bool* missed) {
  Shard& shard = shard_for(key);
  if (missed != nullptr) *missed = false;
  {
    std::lock_guard lock(shard.mutex);
    const auto it = shard.entries.find(key);
    if (it != shard.entries.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      if (obs::enabled()) {
        obs::Registry::global().counter("engine.cache.hits").add(1);
      }
      return it->second;
    }
  }
  // Miss: discover with no lock held, then publish.  If another thread
  // published first, its entry wins and ours is dropped.
  if (missed != nullptr) *missed = true;
  auto computed = std::make_shared<const pathdisc::PathSet>(compute());
  misses_.fetch_add(1, std::memory_order_relaxed);
  if (obs::enabled()) {
    obs::Registry::global().counter("engine.cache.misses").add(1);
  }
  std::lock_guard lock(shard.mutex);
  const auto [it, inserted] = shard.entries.emplace(key, std::move(computed));
  (void)inserted;
  return it->second;
}

std::shared_ptr<const pathdisc::PathSet> PathSetCache::find(
    const PathQueryKey& key) const {
  const Shard& shard = shard_for(key);
  std::lock_guard lock(shard.mutex);
  const auto it = shard.entries.find(key);
  return it == shard.entries.end() ? nullptr : it->second;
}

std::size_t PathSetCache::evict_stale(std::uint64_t current_epoch) {
  std::size_t evicted = 0;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    for (auto it = shard->entries.begin(); it != shard->entries.end();) {
      if (it->first.epoch != current_epoch) {
        it = shard->entries.erase(it);
        ++evicted;
      } else {
        ++it;
      }
    }
  }
  note_evictions(evicted);
  return evicted;
}

std::size_t PathSetCache::evict_keys(const std::vector<PathQueryKey>& keys) {
  std::size_t evicted = 0;
  for (const PathQueryKey& key : keys) {
    Shard& shard = shard_for(key);
    std::lock_guard lock(shard.mutex);
    evicted += shard.entries.erase(key);
  }
  note_evictions(evicted);
  return evicted;
}

void PathSetCache::clear() {
  std::size_t evicted = 0;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    evicted += shard->entries.size();
    shard->entries.clear();
  }
  note_evictions(evicted);
}

void PathSetCache::note_evictions(std::size_t n) {
  if (n == 0) return;
  evictions_.fetch_add(n, std::memory_order_relaxed);
  if (obs::enabled()) {
    obs::Registry::global().counter("engine.cache.evictions").add(n);
  }
}

std::size_t PathSetCache::size() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    n += shard->entries.size();
  }
  return n;
}

CacheStats PathSetCache::stats() const {
  CacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.size = size();
  return s;
}

}  // namespace upsim::engine
