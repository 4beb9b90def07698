// Path discovery between service requester and provider (Sec. V-D/VI-G).
//
// The service mapping pair gives the boundary components of an atomic
// service; this module enumerates *all* simple paths between them, because
// every redundant path contributes to the user-perceived infrastructure
// (and to its availability).  The paper uses depth-first search with a
// path-tracking mechanism to avoid live-locks within cycles; worst-case
// cost is factorial in n on a complete graph, but real access networks are
// tree-like with few loops, which the benchmarks in bench/ demonstrate.
//
// There is one implementation: an explicit-stack iterative DFS over the
// flat CsrView projection (csr.hpp), immune to stack exhaustion on deep
// topologies.  discover() on a graph::Graph projects and then runs it.  It
// visits neighbours in edge-insertion order, so discovery order is
// deterministic and reproduces the path listing of Sec. VI-G on the
// case-study network.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "util/thread_pool.hpp"

namespace upsim::pathdisc {

/// A simple path as the sequence of visited vertices, source first.
using Path = std::vector<graph::VertexId>;

/// Search limits.  PathSet::truncated documents what each one does to the
/// result.
struct Options {
  /// Maximum number of vertices per path; 0 = unbounded.  Bounding turns
  /// the exhaustive search into k-hop discovery for very dense cores.
  std::size_t max_path_length = 0;
  /// Stop after this many paths; 0 = unbounded.
  std::size_t max_paths = 0;

  /// Every field participates: two Options compare equal iff discovery is
  /// guaranteed to produce the same PathSet on the same graph/endpoints.
  [[nodiscard]] friend bool operator==(const Options&,
                                       const Options&) noexcept = default;
};

/// Hashes every field of `options` (paired with operator== above) so that
/// Options can key a hash map — the engine's path-set cache keys on it, and
/// an Options field silently left out here would alias cache entries across
/// different discovery configurations.
[[nodiscard]] std::size_t hash_value(const Options& options) noexcept;

/// Hasher adapter for unordered containers keyed on Options.
struct OptionsHash {
  [[nodiscard]] std::size_t operator()(const Options& options) const noexcept {
    return hash_value(options);
  }
};

/// The result of discovering one requester/provider pair.
struct PathSet {
  graph::VertexId source{};
  graph::VertexId target{};
  std::vector<Path> paths;          ///< in discovery order
  std::size_t nodes_expanded = 0;   ///< DFS tree size (work measure)
  /// A limit in Options cut the search.  This is the one meaning of the
  /// flag; it is set in exactly two cases:
  ///   - max_paths: the search recorded its max_paths-th path and stopped.
  ///     The flag is set even when no further path exists: finding that
  ///     out would run the search to completion, and max_paths would no
  ///     longer bound the work.
  ///   - max_path_length: before stopping, the search reached a non-target
  ///     vertex that ends a path of max_path_length vertices and has at
  ///     least one link.  Every vertex but the source has one (the link it
  ///     was reached by), so only a source without links escapes the flag.
  /// A trivial pair (source == target) stops at its one path, so only
  /// max_paths == 1 sets the flag there.
  bool truncated = false;

  [[nodiscard]] bool empty() const noexcept { return paths.empty(); }
  [[nodiscard]] std::size_t count() const noexcept { return paths.size(); }
  /// Length (vertex count) of the shortest / longest discovered path;
  /// 0 when empty.
  [[nodiscard]] std::size_t shortest() const noexcept;
  [[nodiscard]] std::size_t longest() const noexcept;
};

/// Enumerates all simple paths from `source` to `target`.  A trivial pair
/// (source == target) yields the single one-vertex path — the requester and
/// provider run on the same component.  An id outside [0, vertex_count)
/// names no component, so nothing is reachable: the result is the
/// well-defined empty PathSet (endpoints echoed back, no paths, zero
/// nodes_expanded, not truncated), here and on CsrView::discover alike.
/// Name-based lookups still throw NotFoundError: a name miss is a
/// modelling error, an id miss is an empty answer.  Projects `g` to a
/// CsrView first; callers with many pairs on one graph use discover_all
/// or keep a CsrView.
[[nodiscard]] PathSet discover(const graph::Graph& g, graph::VertexId source,
                               graph::VertexId target,
                               const Options& options = {});

/// Convenience overload resolving endpoints by name.  Throws NotFoundError
/// when either name is unknown.
[[nodiscard]] PathSet discover(const graph::Graph& g, std::string_view source,
                               std::string_view target,
                               const Options& options = {});

/// Discovers several pairs on one projection of `g`; when `pool` is
/// non-null the pairs are processed in parallel (the projection is shared
/// read-only).  Result order matches the input order either way.
[[nodiscard]] std::vector<PathSet> discover_all(
    const graph::Graph& g,
    const std::vector<std::pair<graph::VertexId, graph::VertexId>>& pairs,
    const Options& options = {}, util::ThreadPool* pool = nullptr);

/// Union of all vertices on all paths across `sets`, in first-occurrence
/// order ("multiple occurrences are ignored", Sec. VI-H).  This is the
/// vertex set of the UPSIM.
[[nodiscard]] std::vector<graph::VertexId> merge_path_vertices(
    const graph::Graph& g, const std::vector<PathSet>& sets);

/// Renders a path in the paper's notation: "t1 - e1 - d1 - c1 - d4 - printS".
[[nodiscard]] std::string to_string(const graph::Graph& g, const Path& path);

/// Renders a path as a name vector for structural assertions in tests.
[[nodiscard]] std::vector<std::string> path_names(const graph::Graph& g,
                                                  const Path& path);

}  // namespace upsim::pathdisc
