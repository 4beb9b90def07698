#include "engine/reverse_index.hpp"

#include <functional>

namespace upsim::engine {

ReverseDependencyIndex::ReverseDependencyIndex() {
  shards_.reserve(kCacheShards);
  for (std::size_t i = 0; i < kCacheShards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

ReverseDependencyIndex::Shard& ReverseDependencyIndex::shard_for(
    const std::string& element) const noexcept {
  return *shards_[std::hash<std::string>{}(element) % shards_.size()];
}

void ReverseDependencyIndex::add(const PathQueryKey& key,
                                 const std::vector<std::string>& elements) {
  for (const std::string& element : elements) {
    Shard& shard = shard_for(element);
    std::lock_guard lock(shard.mutex);
    shard.buckets[element].insert(key);
  }
}

std::vector<PathQueryKey> ReverseDependencyIndex::lookup(
    const std::vector<std::string>& elements) const {
  std::unordered_set<PathQueryKey, PathQueryKeyHash> seen;
  for (const std::string& element : elements) {
    const Shard& shard = shard_for(element);
    std::lock_guard lock(shard.mutex);
    const auto it = shard.buckets.find(element);
    if (it == shard.buckets.end()) continue;
    seen.insert(it->second.begin(), it->second.end());
  }
  return {seen.begin(), seen.end()};
}

std::vector<PathQueryKey> ReverseDependencyIndex::take(
    const std::vector<std::string>& elements) {
  std::unordered_set<PathQueryKey, PathQueryKeyHash> seen;
  for (const std::string& element : elements) {
    Shard& shard = shard_for(element);
    std::lock_guard lock(shard.mutex);
    const auto it = shard.buckets.find(element);
    if (it == shard.buckets.end()) continue;
    seen.insert(it->second.begin(), it->second.end());
    shard.buckets.erase(it);
  }
  return {seen.begin(), seen.end()};
}

void ReverseDependencyIndex::clear() {
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    shard->buckets.clear();
  }
}

std::size_t ReverseDependencyIndex::element_count() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    n += shard->buckets.size();
  }
  return n;
}

std::size_t ReverseDependencyIndex::link_count() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    for (const auto& [element, keys] : shard->buckets) n += keys.size();
  }
  return n;
}

}  // namespace upsim::engine
