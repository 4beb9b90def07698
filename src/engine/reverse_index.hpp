// Reverse dependency index: element name -> the path-cache keys whose
// cached path sets traverse that element.
//
// The engine's epoch-keyed invalidation answers "something changed" by
// retiring every cached discovery at once.  Most change events of the
// paper's Sec. V-A3 catalogue touch one component or link, and Table I
// shows how localized the blast radius really is: a failing edge switch
// concerns the handful of user perspectives routed through it, not the
// whole campus.  This index records, as path sets are computed, which
// elements each (requester, provider, options, epoch) key depends on —
// every vertex on any discovered path plus every parallel link of every
// hop — so an event naming its affected elements can be answered with
// exactly the dependent keys.
//
// Soundness contract: a lookup for element E returns every key whose
// *cached paths contain* E.  That is exact for events that degrade or
// remove connectivity through named elements (failures, repairs against a
// baseline, property changes) because a pair's result can only change if
// some stored path crosses the element.  It is NOT sufficient for
// structural *additions*: a brand-new link can create paths for a pair
// whose cached set never touched either endpoint.  Additive changes must
// keep the coarse epoch flush (PerspectiveEngine documents which notify
// overload to use).
//
// Concurrency: striped like PathSetCache; add/lookup take one shard lock
// per element.  Entries may go stale when the cache drops a key for
// unrelated reasons — harmless, since evicting an absent key is a no-op —
// and clear() resets the index whenever the epoch flushes everything.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "engine/path_cache.hpp"

namespace upsim::engine {

class ReverseDependencyIndex {
 public:
  ReverseDependencyIndex();

  ReverseDependencyIndex(const ReverseDependencyIndex&) = delete;
  ReverseDependencyIndex& operator=(const ReverseDependencyIndex&) = delete;

  /// Registers `key` as dependent on each of `elements`.  Idempotent, so
  /// racing duplicate discoveries may both register.
  void add(const PathQueryKey& key, const std::vector<std::string>& elements);

  /// Every key registered for any of `elements`, deduplicated.
  [[nodiscard]] std::vector<PathQueryKey> lookup(
      const std::vector<std::string>& elements) const;

  /// lookup() + drops the consulted element buckets (their keys are about
  /// to be evicted and will re-register on recompute).
  std::vector<PathQueryKey> take(const std::vector<std::string>& elements);

  void clear();

  /// Live element buckets.
  [[nodiscard]] std::size_t element_count() const;
  /// Total (element, key) links — the index's memory footprint driver.
  [[nodiscard]] std::size_t link_count() const;

 private:
  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<std::string,
                       std::unordered_set<PathQueryKey, PathQueryKeyHash>>
        buckets;
  };

  [[nodiscard]] Shard& shard_for(const std::string& element) const noexcept;

  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace upsim::engine
