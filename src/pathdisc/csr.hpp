// Flat CSR projection of graph::Graph, and the one path-discovery kernel.
//
// A walk over the generic multigraph pays for generality on every edge
// visit: incident_edges() returns a per-vertex heap vector, opposite() loads
// a ~100-byte attribute-carrying Edge to compare endpoints, and an on-path
// mask would be a std::vector<bool> proxy.  For the tree-like access
// networks the paper targets, the DFS is pure pointer chasing over that
// layout — memory bound, not compute bound.
//
// CsrView compiles the structure once into two contiguous arrays:
//
//   offsets_ : uint32[vertex_count + 1]      (CSR row starts)
//   arcs_    : {to, edge} uint32 pairs       (two directed arcs per link)
//
// in the POD-adjacency style of SNIPPETS.md's RelianceGraph/DepEdge.  The
// arcs of vertex v occupy arcs_[offsets_[v] .. offsets_[v+1]) in exactly the
// edge-insertion order incident_edges(v) reports, so the discovery order
// is the graph's.  csr.cpp holds the only all-simple-paths DFS of the
// module: one explicit-stack loop over these spans, templated on what it
// does with each path found.  discover() collects the paths;
// forecast() (forecast.hpp) only counts them.  Its results are held to an
// independent breadth-first enumerator in tests/ (reference_paths.hpp).
//
// The view is immutable after construction and holds no reference to the
// source graph, so it is freely shared across threads (the engine rebuilds
// it under its topology write lock and serves queries from it under the
// shared lock).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "pathdisc/path_discovery.hpp"

namespace upsim::pathdisc {

/// One directed half-edge of the CSR adjacency: the neighbour reached and
/// the undirected edge id it came from.  8 bytes, trivially copyable —
/// eight of these share a cache line.
struct CsrArc {
  std::uint32_t to;    ///< neighbour vertex index
  std::uint32_t edge;  ///< originating graph::EdgeId index
};
static_assert(sizeof(CsrArc) == 8);

class CsrView {
 public:
  /// An empty view (zero vertices); discover() on it returns empty sets.
  CsrView() : offsets_(1, 0) {}

  /// Projects `g`'s structure.  O(V + E); attributes and names are not
  /// copied — the view is for traversal only.
  explicit CsrView(const graph::Graph& g);

  [[nodiscard]] std::size_t vertex_count() const noexcept {
    return offsets_.size() - 1;
  }
  [[nodiscard]] std::size_t edge_count() const noexcept {
    return arcs_.size() / 2;
  }

  /// Arcs out of `v` in edge-insertion order.  Precondition: v < vertex_count.
  [[nodiscard]] std::span<const CsrArc> arcs(std::uint32_t v) const noexcept {
    return {arcs_.data() + offsets_[v],
            arcs_.data() + offsets_[v + 1]};
  }

  /// Enumerates all simple paths from `source` to `target`; see
  /// pathdisc::discover() for the contract, which this implements.  An
  /// out-of-range id yields the well-defined empty PathSet.
  [[nodiscard]] PathSet discover(graph::VertexId source,
                                 graph::VertexId target,
                                 const Options& options = {}) const;

 private:
  std::vector<std::uint32_t> offsets_;  ///< vertex_count + 1 row starts
  std::vector<CsrArc> arcs_;            ///< 2 * edge_count directed arcs
};

}  // namespace upsim::pathdisc
