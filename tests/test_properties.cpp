// Property-based sweeps over randomised/parameterised topologies: the
// library-wide invariants that must hold regardless of the concrete model.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "core/analysis.hpp"
#include "core/upsim_generator.hpp"
#include "depend/reliability.hpp"
#include "netgen/generators.hpp"
#include "pathdisc/path_discovery.hpp"
#include "transform/projection.hpp"
#include "transform/uml_importer.hpp"

namespace upsim {
namespace {

using graph::Graph;
using graph::VertexId;

// ---------------------------------------------------------------------------
// Pipeline invariants across campus sizes

struct CampusParam {
  std::size_t distribution;
  std::size_t edge_per_distribution;
  std::size_t clients_per_edge;
  bool redundant;
};

/// "d3_e2_c2_redundant": the campus shape, readable in test names.
std::string label(const CampusParam& p) {
  return "d" + std::to_string(p.distribution) + "_e" +
         std::to_string(p.edge_per_distribution) + "_c" +
         std::to_string(p.clients_per_edge) +
         (p.redundant ? "_redundant" : "_single");
}

void PrintTo(const CampusParam& p, std::ostream* os) { *os << label(p); }

class CampusPipelineProperty : public ::testing::TestWithParam<CampusParam> {};

TEST_P(CampusPipelineProperty, UpsimInvariantsHold) {
  const auto p = GetParam();
  netgen::CampusSpec spec;
  spec.distribution = p.distribution;
  spec.edge_per_distribution = p.edge_per_distribution;
  spec.clients_per_edge = p.clients_per_edge;
  spec.redundant_uplinks = p.redundant;
  const auto net = netgen::uml_campus(spec);

  service::ServiceCatalog services;
  services.define_atomic("request");
  services.define_atomic("respond");
  const auto& svc = services.define_sequence("echo", {"request", "respond"});
  mapping::ServiceMapping m;
  m.map("request", "t0", "srv0");
  m.map("respond", "srv0", "t0");

  core::UpsimGenerator generator(*net.infrastructure);
  const auto result = generator.generate(svc, m, "run");

  // Invariant 1: the UPSIM is exactly the union of path vertices.
  std::set<std::string> union_of_paths;
  for (const auto& per_pair : result.named_paths) {
    for (const auto& path : per_pair) {
      union_of_paths.insert(path.begin(), path.end());
    }
  }
  std::set<std::string> upsim_nodes;
  for (const auto* inst : result.upsim.instances()) {
    upsim_nodes.insert(inst->name());
  }
  EXPECT_EQ(union_of_paths, upsim_nodes);

  // Invariant 2: requester and provider always present.
  EXPECT_TRUE(upsim_nodes.contains("t0"));
  EXPECT_TRUE(upsim_nodes.contains("srv0"));

  // Invariant 3: the UPSIM graph is connected (every node lies on a
  // requester-provider path).
  EXPECT_EQ(result.upsim_graph.component_count(), 1u);

  // Invariant 4: the UPSIM never exceeds the infrastructure.
  EXPECT_LE(result.upsim.instance_count(),
            net.infrastructure->instance_count());
  EXPECT_LE(result.upsim.link_count(), net.infrastructure->link_count());

  // Invariant 5: validation stays clean end to end.
  EXPECT_TRUE(result.upsim.validate().empty());
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, CampusPipelineProperty,
    ::testing::Values(CampusParam{1, 1, 1, false}, CampusParam{2, 1, 2, true},
                      CampusParam{3, 2, 2, true}, CampusParam{4, 2, 3, true},
                      CampusParam{5, 3, 2, false},
                      CampusParam{6, 2, 4, true}),
    [](const ::testing::TestParamInfo<CampusParam>& info) {
      return label(info.param);
    });

// ---------------------------------------------------------------------------
// Reliability invariants on random graphs

class ReliabilityProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReliabilityProperty, BoundsAndMonotonicity) {
  const std::uint64_t seed = GetParam();
  const Graph g = netgen::erdos_renyi(9, 0.2, seed);
  depend::ReliabilityProblem p;
  p.g = &g;
  util::Rng rng(seed * 17 + 3);
  for (std::size_t v = 0; v < g.vertex_count(); ++v) {
    p.vertex_availability.push_back(0.5 + 0.5 * rng.uniform());
  }
  for (std::size_t e = 0; e < g.edge_count(); ++e) {
    p.edge_availability.push_back(0.5 + 0.5 * rng.uniform());
  }
  p.terminal_pairs = {{VertexId{0}, VertexId{8}}};

  const double a = depend::exact_availability(p);
  EXPECT_GE(a, 0.0);
  EXPECT_LE(a, 1.0);

  // Monotonicity: raising any single component availability to 1 cannot
  // decrease system availability (connectivity is a monotone structure
  // function).
  for (std::size_t v = 0; v < g.vertex_count(); ++v) {
    auto boosted = p;
    boosted.vertex_availability[v] = 1.0;
    EXPECT_GE(depend::exact_availability(boosted) + 1e-12, a) << "vertex " << v;
  }
  for (std::size_t e = 0; e < g.edge_count() && e < 8; ++e) {
    auto boosted = p;
    boosted.edge_availability[e] = 1.0;
    EXPECT_GE(depend::exact_availability(boosted) + 1e-12, a) << "edge " << e;
  }

  // System availability never exceeds the weakest terminal's availability.
  const double weakest = std::min(p.vertex_availability[0],
                                  p.vertex_availability[8]);
  EXPECT_LE(a, weakest + 1e-12);
}

TEST_P(ReliabilityProperty, MultiPairExactBetweenBounds) {
  const std::uint64_t seed = GetParam();
  const Graph g = netgen::erdos_renyi(8, 0.25, seed);
  depend::ReliabilityProblem p;
  p.g = &g;
  p.vertex_availability.assign(g.vertex_count(), 0.9);
  p.edge_availability.assign(g.edge_count(), 0.95);
  p.terminal_pairs = {{VertexId{0}, VertexId{7}}, {VertexId{1}, VertexId{6}}};
  const double joint = depend::exact_availability(p);
  // Fréchet bounds: product of marginals <= joint <= min of marginals
  // (positive association of monotone events, FKG inequality).
  std::vector<double> marginals;
  for (const auto& pair : p.terminal_pairs) {
    auto single = p;
    single.terminal_pairs = {pair};
    marginals.push_back(depend::exact_availability(single));
  }
  const double product = marginals[0] * marginals[1];
  const double weakest = std::min(marginals[0], marginals[1]);
  EXPECT_GE(joint + 1e-12, product);
  EXPECT_LE(joint, weakest + 1e-12);
  EXPECT_NEAR(depend::independent_pairs_approximation(p), product, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReliabilityProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8),
                         ::testing::PrintToStringParamName());

// ---------------------------------------------------------------------------
// Path discovery growth laws

TEST(PathGrowthProperty, RedundancyIncreasesPathsMonotonically) {
  std::size_t previous = 0;
  for (std::size_t cores = 1; cores <= 3; ++cores) {
    netgen::CampusSpec spec;
    spec.core = cores;
    spec.redundant_uplinks = true;
    const auto g = netgen::campus(spec);
    const auto endpoints = netgen::campus_endpoints(spec);
    const auto set =
        pathdisc::discover(g, endpoints.client, endpoints.server);
    EXPECT_GT(set.count(), previous) << cores << " cores";
    previous = set.count();
  }
}

TEST(PathGrowthProperty, PathCountAgreesWithRbdStructure) {
  // On any topology, the RBD transformation must see exactly as many
  // parallel branches as discovered paths.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Graph g = netgen::erdos_renyi(8, 0.3, seed);
    const auto set = pathdisc::discover(g, VertexId{0}, VertexId{7});
    if (set.empty()) continue;
    std::size_t total_blocks = 0;
    for (const auto& path : set.paths) {
      total_blocks += path.size() + (path.size() - 1);  // vertices + edges
    }
    EXPECT_GT(total_blocks, 0u);
    // Every path's endpoints are the terminals.
    for (const auto& path : set.paths) {
      EXPECT_EQ(path.front(), VertexId{0});
      EXPECT_EQ(path.back(), VertexId{7});
    }
  }
}

// ---------------------------------------------------------------------------
// Projection round trip

TEST(ProjectionProperty, UmlCampusProjectionsAgreeForAllSpecs) {
  for (const auto& spec :
       {netgen::CampusSpec{1, 2, 1, 1, 1, true},
        netgen::CampusSpec{2, 4, 2, 3, 4, true},
        netgen::CampusSpec{2, 3, 1, 2, 2, false}}) {
    const auto net = netgen::uml_campus(spec);
    vpm::ModelSpace space;
    transform::import_class_model(space, net.infrastructure->class_model());
    transform::import_object_model(space, *net.infrastructure);
    const auto direct = transform::project(*net.infrastructure);
    const auto via_space =
        transform::project_from_space(space, *net.infrastructure);
    EXPECT_EQ(direct.vertex_count(), via_space.vertex_count());
    EXPECT_EQ(direct.edge_count(), via_space.edge_count());
  }
}

}  // namespace
}  // namespace upsim
