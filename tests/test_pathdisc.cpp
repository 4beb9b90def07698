#include <gtest/gtest.h>

#include <set>
#include <unordered_map>

#include "graph/graph.hpp"
#include "netgen/generators.hpp"
#include "pathdisc/path_discovery.hpp"
#include "reference_paths.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace upsim::pathdisc {
namespace {

using graph::Graph;
using graph::VertexId;

TEST(PathDiscovery, TreeHasExactlyOnePath) {
  const Graph g = netgen::tree(31, 2);
  const auto set = discover(g, "v3", "v28");
  ASSERT_EQ(set.count(), 1u);
  EXPECT_EQ(set.shortest(), set.longest());
  EXPECT_FALSE(set.truncated);
}

TEST(PathDiscovery, RingHasExactlyTwoPaths) {
  const Graph g = netgen::ring(9);
  const auto set = discover(g, "v0", "v4");
  EXPECT_EQ(set.count(), 2u);
  // One goes clockwise (5 vertices), one anticlockwise (6 vertices).
  EXPECT_EQ(set.shortest(), 5u);
  EXPECT_EQ(set.longest(), 6u);
}

TEST(PathDiscovery, CompleteGraphPathCountFormula) {
  // #simple s-t paths in K_n = sum_{k=0}^{n-2} (n-2)!/(n-2-k)!
  const std::size_t n = 7;
  const Graph g = netgen::complete(n);
  const auto set =
      discover(g, VertexId{0}, VertexId{static_cast<std::uint32_t>(n - 1)});
  std::size_t expected = 0;
  std::size_t term = 1;
  expected += term;  // k = 0
  for (std::size_t k = 1; k <= n - 2; ++k) {
    term *= (n - 2) - (k - 1);
    expected += term;
  }
  EXPECT_EQ(set.count(), expected);  // 326 for n = 7
}

TEST(PathDiscovery, TrivialPairYieldsSingletonPath) {
  const Graph g = netgen::ring(4);
  const auto set = discover(g, VertexId{2}, VertexId{2});
  ASSERT_EQ(set.count(), 1u);
  EXPECT_EQ(set.paths[0], (Path{VertexId{2}}));
}

TEST(PathDiscovery, DisconnectedPairYieldsEmptySet) {
  Graph g;
  g.add_vertex("a");
  g.add_vertex("b");
  const auto set = discover(g, "a", "b");
  EXPECT_TRUE(set.empty());
  EXPECT_FALSE(set.truncated);
}

TEST(PathDiscovery, UnknownNameThrowsButUnknownIdIsEmpty) {
  // A name miss is a modelling error (throws); an id outside the vertex
  // range names no component and yields the well-defined empty set.
  const Graph g = netgen::ring(4);
  EXPECT_THROW((void)discover(g, "v0", "ghost"), NotFoundError);
  const auto set = discover(g, VertexId{0}, VertexId{99});
  EXPECT_EQ(set.source, VertexId{0});
  EXPECT_EQ(set.target, VertexId{99});
  EXPECT_TRUE(set.empty());
  EXPECT_EQ(set.nodes_expanded, 0u);
  EXPECT_FALSE(set.truncated);
  const auto reversed = discover(g, VertexId{99}, VertexId{0});
  EXPECT_TRUE(reversed.empty());
  EXPECT_EQ(reversed.nodes_expanded, 0u);
}

TEST(PathDiscovery, EmptyGraphYieldsEmptySet) {
  const Graph g;
  const auto set = discover(g, VertexId{0}, VertexId{0});
  EXPECT_TRUE(set.empty());
  EXPECT_EQ(set.nodes_expanded, 0u);
  EXPECT_FALSE(set.truncated);
}

TEST(PathDiscovery, SingleVertexGraphTrivialPair) {
  Graph g;
  g.add_vertex("only");
  const auto set = discover(g, VertexId{0}, VertexId{0});
  ASSERT_EQ(set.count(), 1u);
  EXPECT_EQ(set.paths[0], (Path{VertexId{0}}));
  EXPECT_EQ(set.nodes_expanded, 1u);
  EXPECT_FALSE(set.truncated);
}

TEST(PathDiscovery, TruncationExactlyAtTheLimit) {
  // max_paths equal to the true path count: the search stops on recording
  // the last path and cannot know nothing else existed, so truncated is
  // set.  One above the true count: the search drains and truncated is
  // clear.  Both are part of the documented meaning of the flag.
  const Graph g = netgen::ring(9);  // any pair has exactly two paths
  Options at;
  at.max_paths = 2;
  const auto exact = discover(g, VertexId{0}, VertexId{4}, at);
  EXPECT_EQ(exact.count(), 2u);
  EXPECT_TRUE(exact.truncated);
  Options above;
  above.max_paths = 3;
  const auto drained = discover(g, VertexId{0}, VertexId{4}, above);
  EXPECT_EQ(drained.count(), 2u);
  EXPECT_FALSE(drained.truncated);
}

TEST(PathDiscovery, MaxPathsTruncates) {
  const Graph g = netgen::complete(7);
  Options options;
  options.max_paths = 5;
  const auto set = discover(g, VertexId{0}, VertexId{6}, options);
  EXPECT_EQ(set.count(), 5u);
  EXPECT_TRUE(set.truncated);
}

TEST(PathDiscovery, MaxLengthBoundsSearch) {
  const Graph g = netgen::ring(9);
  Options options;
  options.max_path_length = 5;  // only the short arc fits
  const auto set = discover(g, VertexId{0}, VertexId{4}, options);
  EXPECT_EQ(set.count(), 1u);
  EXPECT_TRUE(set.truncated);
  EXPECT_EQ(set.longest(), 5u);
}

TEST(PathDiscovery, DepthCutFlagsOnlyAVertexWithLinks) {
  // max_path_length 1 leaves room for the source alone: a source with a
  // link is cut (truncated), a source without one has nothing to cut.
  Graph g;
  g.add_vertex("a");
  g.add_vertex("b");
  g.add_vertex("lonely");
  g.add_edge("a", "b");
  Options one;
  one.max_path_length = 1;
  const auto cut = discover(g, "a", "b", one);
  EXPECT_TRUE(cut.empty());
  EXPECT_EQ(cut.nodes_expanded, 1u);
  EXPECT_TRUE(cut.truncated);
  const auto isolated = discover(g, "lonely", "b", one);
  EXPECT_TRUE(isolated.empty());
  EXPECT_FALSE(isolated.truncated);
  // A trivial pair never reaches the depth cut; only max_paths == 1 flags
  // its single path.
  EXPECT_FALSE(discover(g, "a", "a", one).truncated);
  Options first;
  first.max_paths = 1;
  EXPECT_TRUE(discover(g, "a", "a", first).truncated);
}

TEST(PathDiscovery, ParallelEdgesYieldDistinctTraversals) {
  // Two parallel links a--b: both reach b, but the vertex sequence is the
  // same, so exactly one path per distinct vertex sequence per edge choice.
  Graph g;
  g.add_vertex("a");
  g.add_vertex("b");
  g.add_edge("a", "b", "l1");
  g.add_edge("a", "b", "l2");
  const auto set = discover(g, "a", "b");
  // The algorithm tracks vertices, so each parallel edge produces one
  // traversal; both vertex sequences are (a, b).
  EXPECT_EQ(set.count(), 2u);
  EXPECT_EQ(set.paths[0], set.paths[1]);
}

TEST(PathDiscovery, ToStringUsesPaperNotation) {
  const Graph g = netgen::tree(3, 2);
  const auto set = discover(g, "v1", "v2");
  ASSERT_EQ(set.count(), 1u);
  EXPECT_EQ(to_string(g, set.paths[0]), "v1 - v0 - v2");
  EXPECT_EQ(path_names(g, set.paths[0]),
            (std::vector<std::string>{"v1", "v0", "v2"}));
}

TEST(PathDiscovery, MergePathVerticesIgnoresDuplicates) {
  const Graph g = netgen::ring(6);
  const auto s1 = discover(g, VertexId{0}, VertexId{3});
  const auto s2 = discover(g, VertexId{1}, VertexId{2});
  const auto merged = merge_path_vertices(g, {s1, s2});
  std::set<std::uint32_t> unique;
  for (const VertexId v : merged) unique.insert(graph::index(v));
  EXPECT_EQ(unique.size(), merged.size());
  EXPECT_EQ(merged.size(), 6u);  // both arcs cover the whole ring
}

TEST(PathDiscovery, MatchesReferenceOnRandomGraphs) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Graph g = netgen::erdos_renyi(10, 0.3, seed);
    const VertexId s{0};
    const VertexId t{9};
    const auto set = discover(g, s, t);
    reference::expect_matches(set, g, s, t, {},
                              "seed " + std::to_string(seed));
    // All discovered paths are simple and well-formed.
    for (const auto& path : set.paths) {
      ASSERT_GE(path.size(), 2u);
      EXPECT_EQ(path.front(), s);
      EXPECT_EQ(path.back(), t);
      std::set<std::uint32_t> seen;
      for (const VertexId v : path) {
        EXPECT_TRUE(seen.insert(graph::index(v)).second) << "revisit";
      }
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        bool adjacent = false;
        for (const graph::EdgeId e : g.incident_edges(path[i])) {
          if (g.opposite(e, path[i]) == path[i + 1]) adjacent = true;
        }
        EXPECT_TRUE(adjacent) << "non-adjacent hop";
      }
    }
  }
}

TEST(PathDiscovery, MatchesReferenceOnRandomMultigraphsUnderLimits) {
  // Graphs of at most 9 vertices with parallel links, crossed with both
  // limits — small enough that every cut lands somewhere interesting.
  util::Rng rng(20261020);
  for (int c = 0; c < 400; ++c) {
    const Graph g = reference::random_multigraph(rng, 9);
    const auto n = static_cast<std::uint32_t>(g.vertex_count());
    const VertexId s{static_cast<std::uint32_t>(rng.uniform_int(0, n - 1))};
    VertexId t{static_cast<std::uint32_t>(rng.uniform_int(0, n - 1))};
    if (rng.bernoulli(0.1)) t = s;
    Options options;
    options.max_path_length = rng.uniform_int(0, 6);
    options.max_paths = rng.bernoulli(0.5) ? 0 : rng.uniform_int(1, 8);
    reference::expect_matches(discover(g, s, t, options), g, s, t, options,
                              "case " + std::to_string(c));
  }
}

TEST(PathDiscovery, ReferenceAgreesWithClosedForms) {
  // The oracle itself, against counts known without enumeration.
  const std::size_t n = 7;
  const Graph complete = netgen::complete(n);
  EXPECT_EQ(reference::all_paths(complete, VertexId{0}, VertexId{6}).count(),
            326u);  // sum_{k=0}^{n-2} (n-2)!/(n-2-k)!
  const Graph ring = netgen::ring(9);
  EXPECT_EQ(reference::all_paths(ring, VertexId{0}, VertexId{4}).count(), 2u);
  Graph dual;
  dual.add_vertex("a");
  dual.add_vertex("b");
  dual.add_edge("a", "b");
  dual.add_edge("a", "b");
  const auto both = reference::all_paths(dual, VertexId{0}, VertexId{1});
  EXPECT_EQ(both.count(), 2u);  // one per parallel link
  EXPECT_EQ(both.nodes_expanded, 3u);
}

TEST(PathDiscovery, DiscoverAllSerialAndParallelAgree) {
  const Graph g = netgen::campus({});
  std::vector<std::pair<VertexId, VertexId>> pairs;
  for (std::uint32_t i = 0; i < 6; ++i) {
    pairs.emplace_back(g.vertex_by_name("t" + std::to_string(i)),
                       g.vertex_by_name("srv0"));
  }
  const auto serial = discover_all(g, pairs);
  util::ThreadPool pool(4);
  const auto parallel = discover_all(g, pairs, {}, &pool);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].paths, parallel[i].paths) << "pair " << i;
  }
}

TEST(PathDiscovery, IterativeHandlesDeepGraphs) {
  // A 60000-vertex path would overflow the stack with naive recursion per
  // vertex; the iterative algorithm must handle it.
  const std::size_t n = 60000;
  const Graph g = netgen::tree(n, 1);  // a path graph
  const auto set =
      discover(g, VertexId{0}, VertexId{static_cast<std::uint32_t>(n - 1)});
  ASSERT_EQ(set.count(), 1u);
  EXPECT_EQ(set.paths[0].size(), n);
}

TEST(PathDiscovery, NodesExpandedGrowsWithDensity) {
  const auto sparse = discover(netgen::tree(40, 2), "v0", "v39");
  const auto dense = discover(netgen::complete(8), VertexId{0}, VertexId{7});
  EXPECT_LT(sparse.nodes_expanded, dense.nodes_expanded);
}

TEST(PathDiscoveryOptions, EqualityCoversEveryField) {
  const Options base{5, 10};
  EXPECT_EQ(base, base);
  EXPECT_EQ(base, (Options{5, 10}));
  // Flipping any single field breaks equality — an Options field invisible
  // to operator== would silently alias engine cache entries.
  EXPECT_NE(base, (Options{6, 10}));
  EXPECT_NE(base, (Options{5, 11}));
  EXPECT_EQ(Options{}, Options{});
}

TEST(PathDiscoveryOptions, HashIsConsistentWithEquality) {
  const Options a{5, 10};
  const Options b{5, 10};
  EXPECT_EQ(hash_value(a), hash_value(b));
  EXPECT_EQ(OptionsHash{}(a), hash_value(a));

  // Unequal options should hash apart; check every single-field flip and
  // a swap of the two limit fields (a combine that ignored field position
  // would collide on the swap).
  const std::vector<Options> distinct = {a, {6, 10}, {5, 11}, {10, 5}, {}};
  std::set<std::size_t> hashes;
  for (const Options& o : distinct) hashes.insert(hash_value(o));
  EXPECT_EQ(hashes.size(), distinct.size());
}

TEST(PathDiscoveryOptions, WorksAsUnorderedMapKey) {
  std::unordered_map<Options, int, OptionsHash> memo;
  memo[Options{0, 0}] = 1;
  memo[Options{0, 7}] = 2;
  EXPECT_EQ(memo.size(), 2u);
  EXPECT_EQ(memo.at(Options{}), 1);
  EXPECT_EQ(memo.at(Options{0, 7}), 2);
}

}  // namespace
}  // namespace upsim::pathdisc
