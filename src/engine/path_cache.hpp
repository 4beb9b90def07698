// Sharded, striped-lock memo of path discovery results.
//
// Table I of the paper shows why this exists: all five atomic services of
// the printing composite route through the same (p2, printS) provider-side
// pairs, and every user perspective of a shared infrastructure repeats
// pairs with its neighbours.  UpsimGenerator re-discovers each of them from
// scratch; the engine discovers a (requester, provider, options, epoch)
// key once and hands out the result as shared_ptr<const PathSet>.
//
// Concurrency model:
//   - The map is striped over kCacheShards independently locked hash maps,
//     so concurrent lookups of different pairs never convoy on one mutex.
//   - get_or_compute releases the shard lock *during* discovery; two
//     threads racing on the same cold key may both compute, and the first
//     insert wins (both callers get the winning entry).  Wasted duplicate
//     work on a race is bounded by one discovery; holding the lock across
//     a factorial-worst-case DFS would stall every other key in the shard.
//   - Entries are immutable once inserted (const PathSet behind a
//     shared_ptr), so readers share them across threads without copying.
//
// Invalidation is epoch-based: the key embeds the topology epoch, so a
// bumped epoch makes every old entry unreachable instantly; evict_stale()
// then reclaims the memory.  When obs::enabled(), hits/misses/evictions
// mirror into the global registry as engine.cache.* for traces; the local
// atomic counters in stats() work regardless (benches keep obs off).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "graph/graph.hpp"
#include "pathdisc/path_discovery.hpp"

namespace upsim::engine {

/// Identity of one memoised discovery: endpoints by vertex id, the full
/// discovery options (operator== / hash_value cover every field, so option
/// changes can never alias) and the topology epoch the ids refer to.
struct PathQueryKey {
  graph::VertexId source{};
  graph::VertexId target{};
  pathdisc::Options options;
  std::uint64_t epoch = 0;

  [[nodiscard]] friend bool operator==(const PathQueryKey&,
                                       const PathQueryKey&) noexcept = default;
};

struct PathQueryKeyHash {
  [[nodiscard]] std::size_t operator()(const PathQueryKey& k) const noexcept;
};

/// Monotone counters since construction (clear() does not reset them).
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::size_t size = 0;  ///< live entries right now

  [[nodiscard]] double hit_rate() const noexcept {
    const double total = static_cast<double>(hits + misses);
    return total == 0.0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

/// Lock stripes of PathSetCache and ReverseDependencyIndex: 16 matches
/// obs::Registry and comfortably exceeds the pool widths upsim runs with.
inline constexpr std::size_t kCacheShards = 16;

class PathSetCache {
 public:
  PathSetCache();

  PathSetCache(const PathSetCache&) = delete;
  PathSetCache& operator=(const PathSetCache&) = delete;

  /// Returns the cached set for `key`, or runs `compute` and caches its
  /// result.  `compute` runs without any cache lock held (see file header
  /// for the duplicate-compute race contract).  When `missed` is non-null
  /// it is set to whether *this caller* took the compute path — used by the
  /// engine to register reverse-index dependencies exactly once per
  /// discovery (racing duplicate computes may both report a miss; the
  /// registration is idempotent).
  [[nodiscard]] std::shared_ptr<const pathdisc::PathSet> get_or_compute(
      const PathQueryKey& key,
      const std::function<pathdisc::PathSet()>& compute,
      bool* missed = nullptr);

  /// Lookup without compute; nullptr on miss.  Does not count into stats.
  [[nodiscard]] std::shared_ptr<const pathdisc::PathSet> find(
      const PathQueryKey& key) const;

  /// Drops every entry whose key epoch differs from `current_epoch`;
  /// returns how many were evicted.
  std::size_t evict_stale(std::uint64_t current_epoch);

  /// Drops exactly the given keys (fine-grained invalidation via the
  /// reverse dependency index); absent keys are ignored.  Returns how many
  /// entries were actually evicted.
  std::size_t evict_keys(const std::vector<PathQueryKey>& keys);

  /// Drops everything (counted as evictions).
  void clear();

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] CacheStats stats() const;

 private:
  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<PathQueryKey,
                       std::shared_ptr<const pathdisc::PathSet>,
                       PathQueryKeyHash>
        entries;
  };

  [[nodiscard]] Shard& shard_for(const PathQueryKey& key) const noexcept;
  void note_evictions(std::size_t n);

  // unique_ptr per shard: Shard holds a mutex and must not move when the
  // vector is built.
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

}  // namespace upsim::engine
