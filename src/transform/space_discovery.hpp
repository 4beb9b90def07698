// Path discovery executed directly on the VPM model space.
//
// The paper implements its path-discovery algorithm in VTCL, i.e. it walks
// the *model space* ("the algorithm sees the infrastructure as a graph",
// Sec. VI-G) rather than an extracted adjacency structure.  This module
// reproduces that design point: a DFS over instance entities following the
// directed "link" relations the UML importer created.  No pipeline runs it:
// Step 7 of core::UpsimGenerator and the engine discover on the graph
// projection (src/pathdisc).  It is kept as the ablation behind that
// choice — bench_pipeline times both walks — and its path lists are held
// to the independent enumerator in tests/.  It has no discovery limits.
#pragma once

#include <string>
#include <vector>

#include "vpm/model_space.hpp"

namespace upsim::transform {

struct SpaceDiscoveryResult {
  /// Paths as instance-name sequences, in DFS discovery order.
  std::vector<std::vector<std::string>> paths;
  std::size_t nodes_expanded = 0;
};

/// Enumerates all simple paths between two instance entities of an imported
/// object model, walking "link" relations.  `instances_ns` is the FQN of
/// the instances namespace (e.g. "models.usi_network.instances"); requester
/// and provider are instance names inside it.  Neighbour order is the
/// relation insertion order, which equals the link insertion order of the
/// imported model — so discovery order matches pathdisc on the projection.
[[nodiscard]] SpaceDiscoveryResult discover_in_space(
    const vpm::ModelSpace& space, const std::string& instances_ns,
    const std::string& requester, const std::string& provider);

}  // namespace upsim::transform
