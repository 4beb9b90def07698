#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "depend/reliability.hpp"
#include "graph/graph.hpp"
#include "netgen/generators.hpp"
#include "pathdisc/path_discovery.hpp"
#include "util/error.hpp"

namespace upsim::depend {
namespace {

using graph::Graph;
using graph::VertexId;

/// Builds a problem with uniform vertex availability `va` and uniform edge
/// availability `ea` over `g`, one terminal pair (s, t).
ReliabilityProblem uniform_problem(const Graph& g, double va, double ea,
                                   VertexId s, VertexId t) {
  ReliabilityProblem p;
  p.g = &g;
  p.vertex_availability.assign(g.vertex_count(), va);
  p.edge_availability.assign(g.edge_count(), ea);
  p.terminal_pairs = {{s, t}};
  return p;
}

TEST(Reliability, SeriesChainClosedForm) {
  Graph g;
  g.add_vertex("a");
  g.add_vertex("b");
  g.add_vertex("c");
  g.add_edge("a", "b");
  g.add_edge("b", "c");
  auto p = uniform_problem(g, 0.9, 0.95, g.vertex_by_name("a"),
                           g.vertex_by_name("c"));
  // All three vertices and both edges in series.
  EXPECT_NEAR(exact_availability(p), 0.9 * 0.9 * 0.9 * 0.95 * 0.95, 1e-12);
}

TEST(Reliability, ParallelVerticesClosedForm) {
  // s - {x | y} - t with perfect edges.
  Graph g;
  g.add_vertex("s");
  g.add_vertex("x");
  g.add_vertex("y");
  g.add_vertex("t");
  g.add_edge("s", "x");
  g.add_edge("x", "t");
  g.add_edge("s", "y");
  g.add_edge("y", "t");
  auto p = uniform_problem(g, 1.0, 1.0, g.vertex_by_name("s"),
                           g.vertex_by_name("t"));
  const std::uint32_t x = graph::index(g.vertex_by_name("x"));
  const std::uint32_t y = graph::index(g.vertex_by_name("y"));
  p.vertex_availability[x] = 0.8;
  p.vertex_availability[y] = 0.7;
  EXPECT_NEAR(exact_availability(p), 1.0 - 0.2 * 0.3, 1e-12);
}

TEST(Reliability, BridgeNetworkClosedForm) {
  // The classic 4-node bridge with perfect vertices and edge reliability p:
  // R = 2p^2 + 2p^3 - 5p^4 + 2p^5.
  Graph g;
  for (const char* name : {"s", "a", "b", "t"}) g.add_vertex(name);
  g.add_edge("s", "a");
  g.add_edge("s", "b");
  g.add_edge("a", "t");
  g.add_edge("b", "t");
  g.add_edge("a", "b");  // the bridge
  const double p = 0.9;
  auto problem =
      uniform_problem(g, 1.0, p, g.vertex_by_name("s"), g.vertex_by_name("t"));
  const double expected = 2 * std::pow(p, 2) + 2 * std::pow(p, 3) -
                          5 * std::pow(p, 4) + 2 * std::pow(p, 5);
  EXPECT_NEAR(exact_availability(problem), expected, 1e-12);
}

TEST(Reliability, TerminalFailureKillsService) {
  Graph g;
  g.add_vertex("s");
  g.add_vertex("t");
  g.add_edge("s", "t");
  auto p = uniform_problem(g, 1.0, 1.0, g.vertex_by_name("s"),
                           g.vertex_by_name("t"));
  p.vertex_availability[graph::index(g.vertex_by_name("s"))] = 0.6;
  // The requester machine itself is a component.
  EXPECT_NEAR(exact_availability(p), 0.6, 1e-12);
}

TEST(Reliability, TrivialSameTerminal) {
  Graph g;
  g.add_vertex("s");
  auto p = uniform_problem(g, 0.7, 1.0, VertexId{0}, VertexId{0});
  p.edge_availability.clear();
  EXPECT_NEAR(exact_availability(p), 0.7, 1e-12);
}

TEST(Reliability, DisconnectedPairIsZero) {
  Graph g;
  g.add_vertex("s");
  g.add_vertex("t");
  auto p = uniform_problem(g, 1.0, 1.0, g.vertex_by_name("s"),
                           g.vertex_by_name("t"));
  p.edge_availability.clear();
  EXPECT_DOUBLE_EQ(exact_availability(p), 0.0);
}

TEST(Reliability, InclusionExclusionMatchesFactoring) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Graph g = netgen::erdos_renyi(8, 0.25, seed);
    auto p = uniform_problem(g, 0.95, 0.98, VertexId{0}, VertexId{7});
    const auto paths = pathdisc::discover(g, VertexId{0}, VertexId{7});
    if (paths.empty() || paths.count() > 25) continue;
    EXPECT_NEAR(path_inclusion_exclusion(p, paths.paths),
                exact_availability(p), 1e-9)
        << "seed " << seed;
  }
}

TEST(Reliability, MonteCarloMatchesExact) {
  const Graph g = netgen::campus({});
  auto p = uniform_problem(g, 0.97, 0.995, g.vertex_by_name("t0"),
                           g.vertex_by_name("srv0"));
  const double exact = exact_availability(p);
  const auto mc = monte_carlo_availability(p, 200000, 7);
  EXPECT_NEAR(mc.estimate, exact, 5.0 * mc.std_error + 1e-9);
  EXPECT_GT(mc.std_error, 0.0);
  EXPECT_EQ(mc.samples, 200000u);
}

TEST(Reliability, MonteCarloDeterministicAndParallelConsistent) {
  const Graph g = netgen::ring(8);
  auto p = uniform_problem(g, 0.9, 0.9, VertexId{0}, VertexId{4});
  const auto a = monte_carlo_availability(p, 50000, 99);
  const auto b = monte_carlo_availability(p, 50000, 99);
  EXPECT_DOUBLE_EQ(a.estimate, b.estimate);  // same seed, same answer
  util::ThreadPool pool(4);
  const auto c = monte_carlo_availability(p, 50000, 99, &pool);
  const double exact = exact_availability(p);
  EXPECT_NEAR(c.estimate, exact, 5.0 * c.std_error + 1e-9);
}

TEST(Reliability, MultiPairCorrelationVersusIndependence) {
  // Two pairs sharing the entire backbone: joint availability equals the
  // single-pair availability, while the independence approximation squares
  // it (strictly smaller).
  Graph g;
  for (const char* name : {"a", "m", "b"}) g.add_vertex(name);
  g.add_edge("a", "m");
  g.add_edge("m", "b");
  ReliabilityProblem p;
  p.g = &g;
  p.vertex_availability = {1.0, 0.8, 1.0};  // only the middle vertex fails
  p.edge_availability = {1.0, 1.0};
  p.terminal_pairs = {{g.vertex_by_name("a"), g.vertex_by_name("b")},
                      {g.vertex_by_name("b"), g.vertex_by_name("a")}};
  EXPECT_NEAR(exact_availability(p), 0.8, 1e-12);
  EXPECT_NEAR(independent_pairs_approximation(p), 0.64, 1e-12);
}

TEST(Reliability, FromAttributesReadsGraphAnnotations) {
  Graph g;
  g.add_vertex("a", "T", {{"mtbf", 99.0}, {"mttr", 1.0}});
  g.add_vertex("b", "T", {{"mtbf", 99.0}, {"mttr", 1.0}, {"redundant", 1.0}});
  g.add_edge("a", "b", "l", {{"mtbf", 999.0}, {"mttr", 1.0}});
  const auto p = ReliabilityProblem::from_attributes(
      g, {{g.vertex_by_name("a"), g.vertex_by_name("b")}});
  EXPECT_NEAR(p.vertex_availability[0], 0.99, 1e-12);
  // b has one redundant spare: 1 - 0.01^2.
  EXPECT_NEAR(p.vertex_availability[1], 1.0 - 0.01 * 0.01, 1e-12);
  EXPECT_NEAR(p.edge_availability[0], 0.999, 1e-12);
  // Linear variant uses Formula 1.
  const auto lin = ReliabilityProblem::from_attributes(
      g, {{g.vertex_by_name("a"), g.vertex_by_name("b")}}, true);
  EXPECT_NEAR(lin.vertex_availability[0], 1.0 - 1.0 / 99.0, 1e-12);
}

TEST(Reliability, FromAttributesRequiresAnnotations) {
  Graph g;
  g.add_vertex("a");
  g.add_vertex("b");
  g.add_edge("a", "b");
  EXPECT_THROW((void)ReliabilityProblem::from_attributes(
                   g, {{g.vertex_by_name("a"), g.vertex_by_name("b")}}),
               NotFoundError);
}

TEST(Reliability, ValidationCatchesBadProblems) {
  Graph g;
  g.add_vertex("a");
  g.add_vertex("b");
  g.add_edge("a", "b");
  ReliabilityProblem p;
  p.g = &g;
  p.vertex_availability = {0.9};  // wrong size
  p.edge_availability = {0.9};
  p.terminal_pairs = {{VertexId{0}, VertexId{1}}};
  EXPECT_THROW((void)exact_availability(p), ModelError);
  p.vertex_availability = {0.9, 1.5};  // out of range
  EXPECT_THROW((void)exact_availability(p), ModelError);
  p.vertex_availability = {0.9, 0.9};
  p.terminal_pairs.clear();
  EXPECT_THROW((void)exact_availability(p), ModelError);
  p.terminal_pairs = {{VertexId{0}, VertexId{9}}};  // bad id
  EXPECT_THROW((void)exact_availability(p), NotFoundError);
  ReliabilityProblem no_graph;
  EXPECT_THROW(no_graph.validate(), ModelError);
}

TEST(Reliability, ExpansionBudgetGuards) {
  const Graph g = netgen::complete(9);
  auto p = uniform_problem(g, 0.9, 0.9, VertexId{0}, VertexId{8});
  ExactOptions options;
  options.max_expansions = 10;
  EXPECT_THROW((void)exact_availability(p, options), Error);
}

TEST(Reliability, InclusionExclusionGuards) {
  Graph g;
  g.add_vertex("a");
  g.add_vertex("b");
  g.add_edge("a", "b");
  auto p = uniform_problem(g, 0.9, 0.9, VertexId{0}, VertexId{1});
  EXPECT_THROW((void)path_inclusion_exclusion(p, {}), ModelError);
  // Non-adjacent hop in a hand-made path.
  Graph g2;
  g2.add_vertex("a");
  g2.add_vertex("b");
  g2.add_vertex("c");
  g2.add_edge("a", "b");
  auto p2 = uniform_problem(g2, 0.9, 0.9, VertexId{0}, VertexId{2});
  EXPECT_THROW(
      (void)path_inclusion_exclusion(p2, {{VertexId{0}, VertexId{2}}}),
      ModelError);
}

TEST(Reliability, MonteCarloRejectsZeroSamples) {
  const Graph g = netgen::ring(4);
  auto p = uniform_problem(g, 0.9, 0.9, VertexId{0}, VertexId{2});
  EXPECT_THROW((void)monte_carlo_availability(p, 0, 1), ModelError);
}

class DensitySweepTest : public ::testing::TestWithParam<double> {};

TEST_P(DensitySweepTest, ThreeEstimatorsAgreeOnRandomGraphs) {
  const double density = GetParam();
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Graph g = netgen::erdos_renyi(7, density, seed);
    auto p = uniform_problem(g, 0.9, 0.95, VertexId{0}, VertexId{6});
    const double exact = exact_availability(p);
    const auto paths = pathdisc::discover(g, VertexId{0}, VertexId{6});
    if (!paths.empty() && paths.count() <= 25) {
      EXPECT_NEAR(path_inclusion_exclusion(p, paths.paths), exact, 1e-9);
    }
    const auto mc = monte_carlo_availability(p, 60000, seed * 31 + 1);
    EXPECT_NEAR(mc.estimate, exact, 5.0 * mc.std_error + 1e-9)
        << "density " << density << " seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Densities, DensitySweepTest, ::testing::Values(0.0, 0.15, 0.3, 0.5),
    [](const ::testing::TestParamInfo<double>& info) {
      std::string name = ::testing::PrintToString(info.param);
      std::replace(name.begin(), name.end(), '.', '_');  // 0.15 -> 0_15
      return name;
    });

}  // namespace
}  // namespace upsim::depend
