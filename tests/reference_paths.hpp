// Independent test oracle for path discovery.
//
// reference::all_paths() predicts every field of the PathSet that
// pathdisc::discover() returns, with a different algorithm from the
// library's depth-first kernel and no code shared with it: breadth-first
// extension of whole prefixes over graph::Graph::incident_edges().  It
//   - yields one path per choice of parallel link, so the result is a
//     multiset of vertex sequences;
//   - honours both limits: a prefix of max_path_length vertices is never
//     extended, and only the first max_paths paths are kept;
//   - counts the prefixes it generates, which is the DFS tree size
//     (nodes_expanded) of a search that runs to completion.
//
// A depth-first search that tries links in insertion order finds paths in
// lexicographic order of the link positions they take, and generates a
// prefix exactly when that prefix sorts no later than the path it stops
// at.  Sorting by those positions therefore gives the discovery order, and
// the nodes_expanded of a search that max_paths stops early.  The cost is
// exponential in the graph: keep inputs small or tree-like.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <queue>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "pathdisc/path_discovery.hpp"
#include "util/rng.hpp"

namespace upsim::pathdisc::reference {

[[nodiscard]] inline PathSet all_paths(const graph::Graph& g,
                                       graph::VertexId s, graph::VertexId t,
                                       const Options& options = {}) {
  struct Prefix {
    Path vertices;
    /// Position of each link taken in its vertex's incident_edges().
    std::vector<std::size_t> ranks;
  };
  PathSet out;
  out.source = s;
  out.target = t;
  if (graph::index(s) >= g.vertex_count() ||
      graph::index(t) >= g.vertex_count()) {
    return out;
  }
  const std::size_t max_len =
      options.max_path_length == 0 ? SIZE_MAX : options.max_path_length;
  const std::size_t max_paths =
      options.max_paths == 0 ? SIZE_MAX : options.max_paths;

  std::vector<std::vector<std::size_t>> generated;  // ranks of every prefix
  std::vector<Prefix> found;
  bool depth_cut = false;
  std::queue<Prefix> frontier;
  frontier.push(Prefix{{s}, {}});
  while (!frontier.empty()) {
    Prefix prefix = std::move(frontier.front());
    frontier.pop();
    generated.push_back(prefix.ranks);
    const graph::VertexId last = prefix.vertices.back();
    if (last == t) {
      found.push_back(std::move(prefix));
      continue;
    }
    const std::vector<graph::EdgeId>& links = g.incident_edges(last);
    if (prefix.vertices.size() >= max_len) {
      if (!links.empty()) depth_cut = true;
      continue;
    }
    for (std::size_t i = 0; i < links.size(); ++i) {
      const graph::VertexId next = g.opposite(links[i], last);
      if (std::find(prefix.vertices.begin(), prefix.vertices.end(), next) !=
          prefix.vertices.end()) {
        continue;
      }
      Prefix longer = prefix;
      longer.vertices.push_back(next);
      longer.ranks.push_back(i);
      frontier.push(std::move(longer));
    }
  }

  std::sort(found.begin(), found.end(),
            [](const Prefix& a, const Prefix& b) { return a.ranks < b.ranks; });
  if (found.size() >= max_paths) {
    found.resize(max_paths);
    const std::vector<std::size_t>& last_ranks = found.back().ranks;
    out.nodes_expanded = static_cast<std::size_t>(
        std::count_if(generated.begin(), generated.end(),
                      [&](const std::vector<std::size_t>& ranks) {
                        return ranks <= last_ranks;
                      }));
    out.truncated = true;
  } else {
    out.nodes_expanded = generated.size();
    out.truncated = depth_cut;
  }
  for (Prefix& path : found) out.paths.push_back(std::move(path.vertices));
  return out;
}

/// Every observable field of `actual` equals the reference prediction.
inline void expect_matches(const PathSet& actual, const graph::Graph& g,
                           graph::VertexId s, graph::VertexId t,
                           const Options& options,
                           const std::string& context) {
  const PathSet expected = all_paths(g, s, t, options);
  EXPECT_EQ(actual.source, expected.source) << context;
  EXPECT_EQ(actual.target, expected.target) << context;
  EXPECT_EQ(actual.paths, expected.paths) << context;  // order included
  EXPECT_EQ(actual.nodes_expanded, expected.nodes_expanded) << context;
  EXPECT_EQ(actual.truncated, expected.truncated) << context;
}

/// A random multigraph of 2..max_vertices vertices with up to twice as
/// many links, parallel links likely and self-loops excluded.
[[nodiscard]] inline graph::Graph random_multigraph(util::Rng& rng,
                                                    std::size_t max_vertices) {
  const std::size_t n = rng.uniform_int(2, max_vertices);
  graph::Graph g;
  for (std::size_t i = 0; i < n; ++i) g.add_vertex("m" + std::to_string(i));
  const std::size_t links = rng.uniform_int(1, 2 * n);
  for (std::size_t l = 0; l < links; ++l) {
    const auto a = rng.uniform_int(0, n - 1);
    auto b = rng.uniform_int(0, n - 1);
    if (a == b) b = (b + 1) % n;
    g.add_edge(graph::VertexId{static_cast<std::uint32_t>(a)},
               graph::VertexId{static_cast<std::uint32_t>(b)});
  }
  return g;
}

}  // namespace upsim::pathdisc::reference
