#include <gtest/gtest.h>

#include "depend/reliability.hpp"
#include "depend/simulator.hpp"
#include "netgen/generators.hpp"
#include "util/error.hpp"

namespace upsim::depend {
namespace {

using graph::Graph;
using graph::VertexId;

/// Two-vertex network with one link; easy closed forms.
Graph tiny(double node_mtbf, double node_mttr) {
  Graph g;
  g.add_vertex("s", "T", {{"mtbf", node_mtbf}, {"mttr", node_mttr}});
  g.add_vertex("t", "T", {{"mtbf", node_mtbf}, {"mttr", node_mttr}});
  g.add_edge("s", "t", "st", {{"mtbf", 1e9}, {"mttr", 1e-6}});
  return g;
}

TEST(Simulator, ModelFromAttributes) {
  const Graph g = tiny(100.0, 1.0);
  const auto model = SimulationModel::from_attributes(
      g, {{g.vertex_by_name("s"), g.vertex_by_name("t")}});
  ASSERT_EQ(model.vertex_rates.size(), 2u);
  EXPECT_DOUBLE_EQ(model.vertex_rates[0].mtbf, 100.0);
  EXPECT_DOUBLE_EQ(model.vertex_rates[0].mttr, 1.0);
  const auto problem = model.steady_state_problem();
  EXPECT_NEAR(problem.vertex_availability[0], 100.0 / 101.0, 1e-12);
}

TEST(Simulator, RejectsBadModels) {
  Graph g;
  g.add_vertex("a");  // no attributes
  g.add_vertex("b");
  g.add_edge("a", "b");
  EXPECT_THROW((void)SimulationModel::from_attributes(
                   g, {{g.vertex_by_name("a"), g.vertex_by_name("b")}}),
               NotFoundError);

  const Graph ok = tiny(100.0, 1.0);
  auto model = SimulationModel::from_attributes(
      ok, {{ok.vertex_by_name("s"), ok.vertex_by_name("t")}});
  model.vertex_rates[0].mttr = 0.0;  // instant repair is not a renewal process
  EXPECT_THROW(model.validate(), ModelError);
  model.vertex_rates[0].mttr = 1.0;
  model.terminal_pairs.clear();
  EXPECT_THROW(model.validate(), ModelError);
}

TEST(Simulator, OptionValidation) {
  const Graph g = tiny(100.0, 1.0);
  const auto model = SimulationModel::from_attributes(
      g, {{g.vertex_by_name("s"), g.vertex_by_name("t")}});
  SimulationOptions options;
  options.horizon_hours = 0.0;
  EXPECT_THROW((void)simulate(model, options), ModelError);
  options.horizon_hours = 10.0;
  options.warmup_hours = 10.0;
  EXPECT_THROW((void)simulate(model, options), ModelError);
  options.warmup_hours = -1.0;
  EXPECT_THROW((void)simulate(model, options), ModelError);
}

TEST(Simulator, DeterministicForFixedSeed) {
  const Graph g = tiny(50.0, 5.0);
  const auto model = SimulationModel::from_attributes(
      g, {{g.vertex_by_name("s"), g.vertex_by_name("t")}});
  SimulationOptions options;
  options.horizon_hours = 5000.0;
  options.seed = 13;
  const auto a = simulate(model, options);
  const auto b = simulate(model, options);
  EXPECT_DOUBLE_EQ(a.uptime_hours, b.uptime_hours);
  EXPECT_EQ(a.outages, b.outages);
  EXPECT_EQ(a.component_events, b.component_events);
}

TEST(Simulator, ConvergesToSteadyStateAvailability) {
  // The renewal-theory property the module exists for: long-run measured
  // availability == analytic steady-state availability of the same model.
  const Graph g = tiny(100.0, 10.0);  // deliberately unreliable: A ~ 0.826
  const auto model = SimulationModel::from_attributes(
      g, {{g.vertex_by_name("s"), g.vertex_by_name("t")}});
  const double analytic = exact_availability(model.steady_state_problem());
  SimulationOptions options;
  options.horizon_hours = 2e6;
  options.warmup_hours = 1e3;
  options.seed = 7;
  const auto result = simulate(model, options);
  EXPECT_NEAR(result.availability(), analytic, 0.005);
  EXPECT_GT(result.outages, 100u);
  EXPECT_GT(result.component_events, 1000u);
}

TEST(Simulator, ConvergesOnRedundantTopology) {
  // Campus with redundant uplinks: availability must beat the same campus
  // without redundancy, and both must match their analytic values.
  netgen::DefaultAttributes attrs;
  attrs.node_mtbf = 1000.0;
  attrs.node_mttr = 50.0;
  attrs.link_mtbf = 2000.0;
  attrs.link_mttr = 20.0;
  netgen::CampusSpec redundant;
  redundant.distribution = 2;
  netgen::CampusSpec single = redundant;
  single.redundant_uplinks = false;

  for (const auto& [spec, label] :
       {std::pair<const netgen::CampusSpec&, const char*>{redundant, "redundant"},
        {single, "single"}}) {
    const Graph g = netgen::campus(spec, attrs);
    const auto model = SimulationModel::from_attributes(
        g, {{g.vertex_by_name("t0"), g.vertex_by_name("srv0")}});
    const double analytic = exact_availability(model.steady_state_problem());
    SimulationOptions options;
    options.horizon_hours = 4e5;
    options.warmup_hours = 1e3;
    options.seed = 21;
    const auto result = simulate(model, options);
    EXPECT_NEAR(result.availability(), analytic, 0.01) << label;
  }
}

TEST(Simulator, OutageLogIsConsistent) {
  const Graph g = tiny(100.0, 20.0);
  const auto model = SimulationModel::from_attributes(
      g, {{g.vertex_by_name("s"), g.vertex_by_name("t")}});
  SimulationOptions options;
  options.horizon_hours = 50000.0;
  options.seed = 3;
  const auto result = simulate(model, options);
  EXPECT_EQ(result.outage_log.size(), result.outages);
  double down_total = 0.0;
  for (const auto& outage : result.outage_log) {
    EXPECT_GT(outage.duration_hours, 0.0);
    EXPECT_GE(outage.start_hours, 0.0);
    EXPECT_LE(outage.start_hours + outage.duration_hours,
              options.horizon_hours + 1e-9);
    down_total += outage.duration_hours;
  }
  // uptime + downtime == measured window.
  EXPECT_NEAR(result.uptime_hours + down_total, result.measured_hours, 1e-6);
  // Derived service MTBF/MTTR are positive and consistent.
  EXPECT_GT(result.service_mtbf_hours(), 0.0);
  EXPECT_NEAR(result.service_mttr_hours(),
              down_total / static_cast<double>(result.outages), 1e-9);
}

TEST(Simulator, WarmupDiscardsInitialOptimism) {
  // All components start Up; with a huge MTTR the unwarmed estimate is
  // biased high on short horizons.  Warmup must not increase the bias.
  const Graph g = tiny(10.0, 10.0);  // A = 0.5 per component
  const auto model = SimulationModel::from_attributes(
      g, {{g.vertex_by_name("s"), g.vertex_by_name("t")}});
  const double analytic = exact_availability(model.steady_state_problem());
  SimulationOptions warmed;
  warmed.horizon_hours = 3e5;
  warmed.warmup_hours = 1e3;
  warmed.seed = 11;
  const auto result = simulate(model, warmed);
  EXPECT_NEAR(result.availability(), analytic, 0.01);
}

TEST(Simulator, PerfectComponentsNeverFailWithinHorizon) {
  // Absurdly large MTBF: no component event fires, service stays up.
  const Graph g = tiny(1e12, 1.0);
  const auto model = SimulationModel::from_attributes(
      g, {{g.vertex_by_name("s"), g.vertex_by_name("t")}});
  SimulationOptions options;
  options.horizon_hours = 1000.0;
  options.seed = 5;
  const auto result = simulate(model, options);
  EXPECT_DOUBLE_EQ(result.availability(), 1.0);
  EXPECT_EQ(result.outages, 0u);
  EXPECT_EQ(result.service_mtbf_hours(), 0.0);
  EXPECT_EQ(result.service_mttr_hours(), 0.0);
}

class SimulatorSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimulatorSeedSweep, AvailabilityWithinToleranceAcrossSeeds) {
  const Graph g = tiny(200.0, 20.0);
  const auto model = SimulationModel::from_attributes(
      g, {{g.vertex_by_name("s"), g.vertex_by_name("t")}});
  const double analytic = exact_availability(model.steady_state_problem());
  SimulationOptions options;
  options.horizon_hours = 5e5;
  options.warmup_hours = 1e3;
  options.seed = GetParam();
  const auto result = simulate(model, options);
  EXPECT_NEAR(result.availability(), analytic, 0.01) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulatorSeedSweep,
                         ::testing::Values(1, 2, 3, 4, 5),
                         ::testing::PrintToStringParamName());

}  // namespace
}  // namespace upsim::depend
