// CSR path-discovery suite.
//
// CsrView::discover is the one discovery kernel; pathdisc::discover on a
// graph::Graph projects and runs it.  This file holds it to the
// independent breadth-first reference (reference_paths.hpp) — same paths
// in the same discovery order, same nodes_expanded, same truncation flag —
// across hundreds of seeded netgen topologies (trees, campus meshes,
// Erdős–Rényi, grids, rings, complete cores, parallel-link multigraphs)
// crossed with randomized max_hops/truncation options, plus targeted edge
// cases and a concurrency stress case that runs CSR discovery through the
// engine from many threads (the TSan CI target).
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/upsim_generator.hpp"
#include "engine/perspective_engine.hpp"
#include "graph/graph.hpp"
#include "netgen/generators.hpp"
#include "pathdisc/csr.hpp"
#include "pathdisc/path_discovery.hpp"
#include "reference_paths.hpp"
#include "service/service.hpp"
#include "util/rng.hpp"

namespace upsim::pathdisc {
namespace {

using graph::Graph;
using graph::VertexId;

using reference::expect_matches;

/// One random topology per seed, spanning the shapes the paper's workloads
/// produce: tree-like access networks, meshy campus cores, random graphs,
/// grids, rings, dense cores and parallel-link multigraphs.
Graph random_topology(util::Rng& rng) {
  switch (rng.uniform_int(0, 6)) {
    case 0:
      return netgen::tree(rng.uniform_int(1, 120), rng.uniform_int(1, 4));
    case 1: {
      netgen::CampusSpec spec;
      spec.distribution = rng.uniform_int(2, 4);
      spec.edge_per_distribution = rng.uniform_int(1, 2);
      spec.clients_per_edge = rng.uniform_int(1, 3);
      spec.servers = rng.uniform_int(1, 3);
      spec.redundant_uplinks = rng.bernoulli(0.5);
      return netgen::campus(spec);
    }
    case 2:
      return netgen::erdos_renyi(rng.uniform_int(2, 12),
                                 0.05 + 0.3 * rng.uniform(),
                                 rng.uniform_int(1, 1u << 20));
    case 3:
      return netgen::grid(rng.uniform_int(1, 5), rng.uniform_int(1, 5));
    case 4:
      return netgen::ring(rng.uniform_int(3, 20));
    case 5:
      return netgen::complete(rng.uniform_int(2, 7));
    default:
      // Random multigraph with deliberate parallel links: CSR must expand
      // each parallel edge as its own arc, exactly like incident_edges.
      return reference::random_multigraph(rng, 9);
  }
}

/// Randomized Options: bounded/unbounded hops and path counts, including
/// limits small enough to truncate aggressively.
Options random_options(util::Rng& rng) {
  Options options;
  switch (rng.uniform_int(0, 3)) {
    case 0: options.max_path_length = 0; break;
    case 1: options.max_path_length = rng.uniform_int(1, 3); break;
    case 2: options.max_path_length = rng.uniform_int(4, 8); break;
    default: options.max_path_length = rng.uniform_int(9, 40); break;
  }
  switch (rng.uniform_int(0, 3)) {
    case 0: options.max_paths = 0; break;
    case 1: options.max_paths = 1; break;
    case 2: options.max_paths = rng.uniform_int(2, 6); break;
    default: options.max_paths = rng.uniform_int(7, 50); break;
  }
  return options;
}

TEST(CsrDifferential, RandomizedTopologiesAndOptionsMatchReference) {
  constexpr int kCases = 240;  // >= 200 generated cases
  util::Rng rng(20260808);
  for (int c = 0; c < kCases; ++c) {
    const Graph g = random_topology(rng);
    const CsrView view(g);
    ASSERT_EQ(view.vertex_count(), g.vertex_count());
    ASSERT_EQ(view.edge_count(), g.edge_count());

    const auto n = static_cast<std::uint32_t>(g.vertex_count());
    VertexId s{static_cast<std::uint32_t>(rng.uniform_int(0, n - 1))};
    VertexId t{static_cast<std::uint32_t>(rng.uniform_int(0, n - 1))};
    if (rng.bernoulli(0.1)) t = s;        // trivial pair
    if (rng.bernoulli(0.05)) t = VertexId{n + 7};  // unknown id
    const Options options = random_options(rng);

    expect_matches(view.discover(s, t, options), g, s, t, options,
                   "case " + std::to_string(c) + " s=" +
                       std::to_string(graph::index(s)) + " t=" +
                       std::to_string(graph::index(t)));
  }
}

TEST(CsrDifferential, LimitGridMatchesReference) {
  // Every combination of the two limits on the same graphs, including the
  // exact-limit corners of the truncated flag.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const Graph g = netgen::erdos_renyi(10, 0.3, seed);
    const CsrView view(g);
    for (const std::size_t max_len : {std::size_t{0}, std::size_t{3},
                                      std::size_t{5}}) {
      for (const std::size_t max_paths : {std::size_t{0}, std::size_t{1},
                                          std::size_t{4}}) {
        const Options options{max_len, max_paths};
        expect_matches(view.discover(VertexId{0}, VertexId{9}, options), g,
                       VertexId{0}, VertexId{9}, options,
                       "seed " + std::to_string(seed));
      }
    }
  }
}

// -- structure of the projection ---------------------------------------------

TEST(CsrView, ArcsMirrorIncidentEdgesInInsertionOrder) {
  Graph g;
  g.add_vertex("a");
  g.add_vertex("b");
  g.add_vertex("c");
  g.add_edge("a", "b", "l0");
  g.add_edge("b", "c", "l1");
  g.add_edge("a", "b", "l2");  // parallel link, inserted later
  g.add_edge("a", "c", "l3");
  const CsrView view(g);
  ASSERT_EQ(view.vertex_count(), 3u);
  ASSERT_EQ(view.edge_count(), 4u);
  for (std::uint32_t v = 0; v < 3; ++v) {
    const auto& incident = g.incident_edges(VertexId{v});
    const auto arcs = view.arcs(v);
    ASSERT_EQ(arcs.size(), incident.size()) << "vertex " << v;
    for (std::size_t i = 0; i < incident.size(); ++i) {
      EXPECT_EQ(arcs[i].edge, graph::index(incident[i])) << "vertex " << v;
      EXPECT_EQ(arcs[i].to,
                graph::index(g.opposite(incident[i], VertexId{v})))
          << "vertex " << v;
    }
  }
}

TEST(CsrView, EmptyAndDefaultViewsYieldEmptySets) {
  const CsrView default_view;
  EXPECT_EQ(default_view.vertex_count(), 0u);
  EXPECT_EQ(default_view.edge_count(), 0u);
  const PathSet set = default_view.discover(VertexId{0}, VertexId{0});
  EXPECT_TRUE(set.empty());
  EXPECT_EQ(set.nodes_expanded, 0u);
  EXPECT_FALSE(set.truncated);

  const Graph empty;
  const CsrView projected(empty);
  EXPECT_EQ(projected.vertex_count(), 0u);
  const PathSet none = projected.discover(VertexId{0}, VertexId{1});
  EXPECT_EQ(none.source, VertexId{0});
  EXPECT_EQ(none.target, VertexId{1});
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(none.nodes_expanded, 0u);
  EXPECT_FALSE(none.truncated);
}

TEST(CsrView, EdgeCasesMatchReference) {
  // Single vertex, source == target.
  Graph single;
  single.add_vertex("only");
  const CsrView single_view(single);
  expect_matches(single_view.discover(VertexId{0}, VertexId{0}),
                 single, VertexId{0}, VertexId{0}, {},
                 "single vertex");

  // Disconnected pair.
  Graph split;
  split.add_vertex("a");
  split.add_vertex("b");
  split.add_vertex("c");
  split.add_edge("a", "b");
  const CsrView split_view(split);
  const PathSet none = split_view.discover(VertexId{0}, VertexId{2});
  EXPECT_TRUE(none.empty());
  expect_matches(none, split, VertexId{0}, VertexId{2}, {},
                 "disconnected");

  // Parallel links: one traversal per link, identical vertex sequences.
  Graph dual;
  dual.add_vertex("a");
  dual.add_vertex("b");
  dual.add_edge("a", "b", "l1");
  dual.add_edge("a", "b", "l2");
  const CsrView dual_view(dual);
  const PathSet both = dual_view.discover(VertexId{0}, VertexId{1});
  EXPECT_EQ(both.count(), 2u);
  expect_matches(both, dual, VertexId{0}, VertexId{1}, {},
                 "parallel links");

  // Truncation exactly at the limit (max_paths == #paths): the search stops
  // on the last path without knowing it was the last, so it is flagged.
  const Graph ring = netgen::ring(8);
  const CsrView ring_view(ring);
  Options exact;
  exact.max_paths = 2;  // a ring pair has exactly two paths
  const PathSet at_limit = ring_view.discover(VertexId{0}, VertexId{4}, exact);
  EXPECT_EQ(at_limit.count(), 2u);
  EXPECT_TRUE(at_limit.truncated);
  expect_matches(at_limit, ring, VertexId{0}, VertexId{4}, exact,
                 "truncation at limit");
  Options above;
  above.max_paths = 3;
  expect_matches(ring_view.discover(VertexId{0}, VertexId{4}, above),
                 ring, VertexId{0}, VertexId{4}, above,
                 "limit above path count");
}

// -- CSR discovery through the engine, concurrently (the TSan target) --------

TEST(CsrEngineStress, ConcurrentEngineQueriesOnCsrDuringOverlayChurn) {
  netgen::CampusSpec spec;
  spec.distribution = 3;
  spec.edge_per_distribution = 2;
  spec.clients_per_edge = 2;
  spec.servers = 2;
  auto net = netgen::uml_campus(spec);
  service::ServiceCatalog services;
  services.define_atomic("request");
  services.define_atomic("respond");
  (void)services.define_sequence("session", {"request", "respond"});
  const auto& composite = services.get_composite("session");

  engine::EngineOptions options;
  options.threads = 4;
  options.record_in_space = false;
  engine::PerspectiveEngine engine(*net.infrastructure, options);

  util::Rng rng(97);
  std::vector<mapping::ServiceMapping> mappings;
  for (int i = 0; i < 8; ++i) {
    const std::string client = "t" + std::to_string(rng.uniform_int(0, 11));
    const std::string server =
        "srv" + std::to_string(rng.uniform_int(0, spec.servers - 1));
    mapping::ServiceMapping m;
    m.map("request", client, server);
    m.map("respond", server, client);
    mappings.push_back(std::move(m));
  }

  constexpr std::size_t kQueriers = 4;
  constexpr int kQueriesPerThread = 20;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kQueriers);
  for (std::size_t t = 0; t < kQueriers; ++t) {
    threads.emplace_back([&, t] {
      for (int q = 0; q < kQueriesPerThread; ++q) {
        try {
          const auto result = engine.query(
              composite, mappings[(t + q) % mappings.size()],
              "csr" + std::to_string(t) + "_" + std::to_string(q));
          if (result.total_paths() == 0) failures.fetch_add(1);
        } catch (const std::exception&) {
          // An overlay race can legitimately black out a pair mid-toggle;
          // only crashes/races are failures here, and TSan owns those.
        }
      }
    });
  }
  // Churn the down overlay and property re-projections (which reuse the
  // CSR view) and a full topology rebuild (which replaces it) while the
  // queriers traverse it.
  std::thread mutator([&] {
    for (int i = 0; i < 8; ++i) {
      (void)engine.set_element_state({"dist1"}, /*up=*/false);
      engine.notify_properties_changed();
      (void)engine.set_element_state({"dist1"}, /*up=*/true);
      if (i % 3 == 0) engine.notify_topology_changed();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  for (auto& th : threads) th.join();
  mutator.join();
  EXPECT_EQ(failures.load(), 0);

  // Settled: CSR-served answers equal the reference enumeration on the
  // same projection of the infrastructure.
  const core::UpsimGenerator generator(*net.infrastructure);
  const Graph& g = generator.infrastructure_graph();
  for (const auto& m : mappings) {
    const auto result = engine.query(composite, m, "settled");
    ASSERT_EQ(result.pairs.size(), result.named_paths.size());
    for (std::size_t i = 0; i < result.pairs.size(); ++i) {
      const PathSet expected = reference::all_paths(
          g, g.vertex_by_name(result.pairs[i].requester),
          g.vertex_by_name(result.pairs[i].provider));
      std::vector<std::vector<std::string>> names;
      for (const Path& path : expected.paths) {
        names.push_back(path_names(g, path));
      }
      EXPECT_EQ(result.named_paths[i], names) << "pair " << i;
    }
  }
}

}  // namespace
}  // namespace upsim::pathdisc
