// PerspectiveEngine — concurrent, cache-coherent batch serving of UPSIM
// queries (the Sec. V-A3 dynamicity argument at serving scale).
//
// UpsimGenerator runs perspectives sequentially because Steps 6-8 all pass
// through the shared VPM model space, and it re-discovers every
// (requester, provider) pair from scratch even though perspectives of one
// infrastructure repeat pairs heavily (Table I: all five printing pairs
// share the provider side).  The engine restructures the run so that the
// model space stops being the bottleneck:
//
//   - Step 7 goes through a sharded PathSetCache keyed on
//     (requester id, provider id, discovery options, topology epoch), so a
//     pair shared by any number of perspectives is discovered once.  Cold
//     discoveries run on a flat CSR projection of the topology
//     (pathdisc::CsrView, compiled once per rebuild and shared read-only
//     by every query thread).
//   - Steps 7/8 (discovery, merge, emit, project) read only immutable
//     state — the graph projection and the infrastructure model — and run
//     per-perspective on util::ThreadPool workers.  Only the final
//     insertion of the run into the model space (Step 6 + path storage) is
//     serialized, and it can be switched off entirely for pure serving.
//   - Answers are bit-compatible with UpsimGenerator::generate — the
//     differential tests in tests/test_engine.cpp hold the engine to that
//     for cold, warm, post-invalidation and concurrent queries alike.
//
// Change classes (Sec. V-A3), served incrementally:
//   1. topology change        -> notify_topology_changed(): re-import,
//                                re-project, bump the epoch (all cached
//                                path sets become unreachable, then get
//                                evicted).  with_topology_write() does the
//                                caller's model mutation and the rebuild
//                                atomically w.r.t. in-flight queries.
//   2. property-value change  -> notify_properties_changed(): re-project
//                                attributes; paths depend on structure
//                                only, so the cache survives.
//   3. service change         -> no engine state involved; pass the new
//                                composite to the next query.
//   4. mapping change         -> nothing to invalidate: mappings are query
//                                *inputs*.  notify_mapping_changed() drops
//                                a recorded run from the model space.
//
// Fine-grained invalidation (the scenario subsystem's substrate).  The
// epoch flush above treats every event as global; a ReverseDependencyIndex
// (element name -> dependent cache keys, built as path sets are computed)
// lets events that *name* their affected elements retire only what those
// elements can actually influence:
//
//   - set_element_state(elements, up=false/true) models operational
//     failure and repair as a *down overlay*: discovery always runs on the
//     full baseline topology, queries filter out paths crossing a down
//     element before merge/emit.  Cached baseline path sets therefore stay
//     valid across fail AND repair — zero path-cache evictions — and the
//     reverse index answers exactly which pairs' served answers changed
//     (a pair changes iff a baseline path contains the toggled element,
//     in both directions).
//   - set_property_override(element, attribute, value) patches one
//     element's dependability attributes (the observation-feedback loop:
//     measured MTBF/MTTR flowing back into the model); structure-only
//     caches survive, availability answers pick the new value up.
//   - notify_topology_changed(affected) / notify_properties_changed(
//     affected) rebuild as their coarse namesakes do, but evict only the
//     keys the index holds for `affected` instead of bumping the epoch.
//     CONTRACT: exact when the change degrades/removes connectivity
//     through the named elements or edits them in place.  A structural
//     *addition* (new instance/link) can create paths for pairs whose
//     cached sets never touched the named elements — additions must use
//     the parameterless (epoch-flush) overloads.
//
// Thread safety: query()/query_batch()/query_availability() may be called
// from any number of threads; the notify_*/with_topology_write()/
// set_element_state()/set_property_override() mutators exclude them via a
// shared_mutex.  The infrastructure model must only be mutated inside
// with_topology_write() once queries are in flight.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include <set>
#include <unordered_map>
#include <unordered_set>

#include "core/analysis.hpp"
#include "core/upsim_generator.hpp"
#include "engine/path_cache.hpp"
#include "engine/reverse_index.hpp"
#include "graph/graph.hpp"
#include "mapping/mapping.hpp"
#include "pathdisc/csr.hpp"
#include "pathdisc/path_discovery.hpp"
#include "service/service.hpp"
#include "transform/projection.hpp"
#include "uml/object_model.hpp"
#include "util/thread_pool.hpp"
#include "vpm/model_space.hpp"

namespace upsim::engine {

struct EngineOptions {
  pathdisc::Options discovery;
  transform::ProjectionOptions projection;
  /// Pool for query_batch fan-out.  Null: the engine owns a pool of
  /// `threads` workers (0 = hardware concurrency).  Queries themselves
  /// never submit nested pool tasks, so an external pool may be shared.
  util::ThreadPool* pool = nullptr;
  std::size_t threads = 0;
  /// Mirror UpsimGenerator and insert each served run into the model space
  /// (mapping import + stored paths, replacing a previous run of the same
  /// name).  This is the only serialized section of a query; switch it off
  /// when serving throughput matters more than a queryable space.
  bool record_in_space = true;
  /// Run the lint analyzer over the infrastructure before accepting it
  /// (constructor and every topology rebuild): lint errors — dangling
  /// values, non-positive MTBF/MTTR, ... — throw ModelError up front
  /// instead of surfacing as misleading empty answers at query time;
  /// warnings are counted on the obs registry (lint.warnings).
  bool lint_model = true;
};

/// What one fine-grained invalidation event did.
struct InvalidationReport {
  /// Reverse-index matches: cached pair discoveries whose served answers
  /// the event can influence.
  std::uint64_t affected_keys = 0;
  /// Path-cache entries actually dropped (0 for overlay events — baseline
  /// sets stay valid across fail/repair).
  std::uint64_t evicted_keys = 0;
  /// The event fell back to (or asked for) the coarse epoch flush.
  bool full_flush = false;
};

/// Cumulative fine-grained invalidation accounting (always-on, like
/// CacheStats; the server's `metrics` method reports these with obs off).
struct InvalidationStats {
  std::uint64_t events = 0;         ///< fine-grained events absorbed
  std::uint64_t affected_keys = 0;  ///< cumulative reverse-index matches
  std::uint64_t evicted_keys = 0;   ///< cumulative fine-grained evictions
  std::uint64_t full_flushes = 0;   ///< coarse epoch bumps
  std::size_t index_elements = 0;   ///< live reverse-index element buckets
  std::size_t index_links = 0;      ///< live (element, key) index links
  std::size_t down_elements = 0;    ///< elements currently failed
  std::size_t property_overrides = 0;
};

/// Optional per-query introspection: the elements (instance and link
/// names) the answer depends on — every vertex on any *baseline* path of
/// any pair, plus every parallel link of every hop.  Sorted, unique.  The
/// server indexes its served-result cache by these.
struct QueryInfo {
  std::vector<std::string> elements;
};

class PerspectiveEngine {
 public:
  /// Imports `infrastructure` (Step 5) into a private model space and
  /// projects the discovery graph.  The infrastructure and its class model
  /// must outlive the engine; an external pool must too.
  explicit PerspectiveEngine(const uml::ObjectModel& infrastructure,
                             EngineOptions options = {});

  PerspectiveEngine(const PerspectiveEngine&) = delete;
  PerspectiveEngine& operator=(const PerspectiveEngine&) = delete;

  /// Serves one perspective: Steps 6-8 with cached discovery.  Answers are
  /// structurally identical to UpsimGenerator::generate on the same
  /// inputs.  Thread-safe.
  [[nodiscard]] core::UpsimResult query(
      const service::CompositeService& composite,
      const mapping::ServiceMapping& mapping, std::string perspective_name);

  /// query() that additionally reports the dependency elements of the
  /// answer when `info` is non-null (see QueryInfo).
  [[nodiscard]] core::UpsimResult query(
      const service::CompositeService& composite,
      const mapping::ServiceMapping& mapping, std::string perspective_name,
      QueryInfo* info);

  /// Serves one perspective per mapping concurrently on the pool; results
  /// are in input order, named `<name_prefix><index>`.  Throws the first
  /// failure after all tasks finished.
  [[nodiscard]] std::vector<core::UpsimResult> query_batch(
      const service::CompositeService& composite,
      const std::vector<mapping::ServiceMapping>& mappings,
      std::string_view name_prefix);

  /// query() followed by the full dependability analysis on the result.
  [[nodiscard]] core::AvailabilityReport query_availability(
      const service::CompositeService& composite,
      const mapping::ServiceMapping& mapping, std::string perspective_name,
      const core::AnalysisOptions& analysis = {});

  // -- change classes (Sec. V-A3) -------------------------------------------
  /// Change class 1: the infrastructure's instances/links changed.
  /// Re-imports, re-projects, bumps the epoch and evicts stale cache
  /// entries.  Recorded runs die with the old space (a topology change
  /// requires re-import — the expensive class, by design).
  void notify_topology_changed();

  /// Runs `mutate` (typically mutating the caller-owned infrastructure
  /// model) with all queries excluded, then does notify_topology_changed's
  /// rebuild before queries resume — one atomic topology transition.
  void with_topology_write(const std::function<void()>& mutate);

  /// Change class 2: dependability/stereotype values changed but structure
  /// did not.  Re-projects so new attribute values flow into analysis;
  /// cached path sets (structure-only) stay valid and the epoch holds.
  void notify_properties_changed();

  /// Change class 4 bookkeeping: forget the recorded run of one
  /// perspective (no-op when record_in_space is off or the name unknown).
  void notify_mapping_changed(std::string_view perspective_name);

  // -- fine-grained invalidation (see the file header's contract) -----------
  /// Change class 1 as an *operational* event: marks `elements` (instance
  /// or link names) failed (`up == false`) or repaired (`up == true`).
  /// Discovery keeps running on the full baseline topology; queries filter
  /// paths crossing a down element, so cached path sets stay valid and
  /// nothing is evicted here — the report counts the pairs whose answers
  /// changed, for served-result invalidation upstream.  Throws
  /// NotFoundError for a name that is neither instance nor link.
  InvalidationReport set_element_state(const std::vector<std::string>& elements,
                                       bool up);

  [[nodiscard]] bool element_down(std::string_view name) const;
  /// Currently failed elements, sorted.
  [[nodiscard]] std::vector<std::string> down_elements() const;

  /// Change class 2 as a targeted event: overrides one dependability
  /// attribute of one element (e.g. an observed MTBF flowing back into the
  /// model).  Applied to the live discovery graph and to every subsequently
  /// emitted UPSIM graph; survives re-projections.  Throws NotFoundError
  /// for an unknown element.
  InvalidationReport set_property_override(const std::string& element,
                                           const std::string& attribute,
                                           double value);

  /// Fine-grained change class 1: re-imports and re-projects like
  /// notify_topology_changed(), but keeps the epoch and evicts only the
  /// cache keys the reverse index holds for `affected`.  Only sound for
  /// non-additive changes — see the file header.
  InvalidationReport notify_topology_changed(
      const std::vector<std::string>& affected);

  /// with_topology_write() whose rebuild evicts fine-grained (same
  /// contract as notify_topology_changed(affected)).
  InvalidationReport with_topology_write(
      const std::function<void()>& mutate,
      const std::vector<std::string>& affected);

  /// Fine-grained change class 2: re-projects like
  /// notify_properties_changed() (the cache survives either way; paths are
  /// structure-only) and reports the pairs routed through `affected`.
  InvalidationReport notify_properties_changed(
      const std::vector<std::string>& affected);

  // -- introspection --------------------------------------------------------
  [[nodiscard]] std::uint64_t epoch() const noexcept {
    return epoch_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] CacheStats cache_stats() const { return cache_.stats(); }
  [[nodiscard]] InvalidationStats invalidation_stats() const;
  [[nodiscard]] util::ThreadPool& pool() noexcept { return *pool_; }
  [[nodiscard]] const uml::ObjectModel& infrastructure() const noexcept {
    return *infrastructure_;
  }

 private:
  /// (Re)builds space_ + graph_ from the infrastructure.  Caller holds the
  /// unique lock (or is the constructor).
  void rebuild_locked(bool bump_epoch);
  /// Re-applies attribute overrides onto `g` (vertices/edges by element
  /// name; absent elements are skipped — an emitted UPSIM only contains a
  /// subset of the infrastructure).  Caller holds a model lock.
  void patch_overrides_locked(graph::Graph& g) const;
  /// Throws NotFoundError unless every name is a vertex or edge of the
  /// baseline graph.  Caller holds a model lock.
  void require_elements_locked(const std::vector<std::string>& elements) const;
  /// True when every vertex of `path` is up and every hop has at least one
  /// up link.  Caller holds a shared model lock.
  [[nodiscard]] bool path_alive_locked(const pathdisc::Path& path) const;
  /// Baseline set with down-crossing paths removed; returns the input
  /// pointer unchanged when nothing is filtered.
  [[nodiscard]] std::shared_ptr<const pathdisc::PathSet> filter_down_locked(
      const std::shared_ptr<const pathdisc::PathSet>& set) const;
  /// Collects the dependency elements of one baseline set (every path
  /// vertex plus every parallel link of every hop) into `out`.
  void collect_dependency_elements_locked(const pathdisc::PathSet& set,
                                          std::set<std::string>& out) const;
  /// Shared accounting for the fine-grained mutators: counts the event,
  /// mirrors to obs, refreshes index gauges.  Caller holds the unique lock.
  void note_event_locked(const InvalidationReport& report);

  const uml::ObjectModel* infrastructure_;
  EngineOptions options_;
  std::unique_ptr<util::ThreadPool> owned_pool_;
  util::ThreadPool* pool_;

  /// Readers (queries) share; topology/property rebuilds are exclusive.
  mutable std::shared_mutex model_mutex_;
  vpm::ModelSpace space_;
  graph::Graph graph_;
  /// Flat CSR projection of graph_'s structure (guarded by model_mutex_
  /// like graph_).  Rebuilt only when the *structure* can have changed —
  /// rebuild_locked(); property re-projections replace graph_ with a
  /// structurally identical graph (stable vertex ids), so the view is
  /// reused across them, across perspectives and across epochs.
  pathdisc::CsrView csr_;
  /// Serializes model-space run insertion among concurrent queries (taken
  /// with model_mutex_ held shared; rebuilds exclude both).
  std::mutex space_mutex_;
  std::atomic<std::uint64_t> epoch_{0};
  PathSetCache cache_;
  ReverseDependencyIndex rindex_;

  // Operational overlay (guarded by model_mutex_ like graph_): elements
  // currently failed, and per-element attribute overrides.
  std::unordered_set<std::string> down_;
  std::unordered_map<std::string, graph::AttributeMap> overrides_;

  // Always-on fine-grained invalidation accounting.
  std::atomic<std::uint64_t> inv_events_{0};
  std::atomic<std::uint64_t> inv_affected_{0};
  std::atomic<std::uint64_t> inv_evicted_{0};
  std::atomic<std::uint64_t> inv_full_flushes_{0};
};

}  // namespace upsim::engine
