// Transient availability curves.
#include <gtest/gtest.h>

#include "casestudy/usi.hpp"
#include "core/upsim_generator.hpp"
#include "depend/transient.hpp"
#include "netgen/generators.hpp"
#include "util/error.hpp"

namespace upsim {
namespace {

using graph::VertexId;

TEST(Transient, ComponentClosedFormBoundaries) {
  // A(0) = 1; A(inf) = steady state; monotone decreasing between.
  const double mtbf = 100.0;
  const double mttr = 10.0;
  EXPECT_DOUBLE_EQ(depend::component_transient_availability(mtbf, mttr, 0.0),
                   1.0);
  const double steady = mtbf / (mtbf + mttr);
  EXPECT_NEAR(depend::component_transient_availability(mtbf, mttr, 1e6),
              steady, 1e-12);
  double previous = 1.0;
  for (const double t : {1.0, 5.0, 20.0, 100.0, 1000.0}) {
    const double a = depend::component_transient_availability(mtbf, mttr, t);
    EXPECT_LT(a, previous) << t;
    EXPECT_GT(a, steady - 1e-12) << t;
    previous = a;
  }
  EXPECT_THROW(
      (void)depend::component_transient_availability(0.0, 1.0, 1.0),
      ModelError);
  EXPECT_THROW(
      (void)depend::component_transient_availability(1.0, 1.0, -1.0),
      ModelError);
}

TEST(Transient, SystemCurveDecaysToSteadyState) {
  const auto cs = casestudy::make_usi_case_study();
  core::UpsimGenerator generator(*cs.infrastructure);
  const auto result = generator.generate(
      cs.services->get_composite(casestudy::printing_service_name()),
      cs.mapping_t1_p2(), "transient");
  const auto model = depend::SimulationModel::from_attributes(
      result.upsim_graph, result.terminal_pairs());
  const auto curve = depend::transient_availability(
      model, {0.0, 1.0, 10.0, 100.0, 1000.0, 1e7});
  ASSERT_EQ(curve.size(), 6u);
  EXPECT_DOUBLE_EQ(curve.front().availability, 1.0);  // fresh after service
  // Monotone decreasing toward the steady state.
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_LE(curve[i].availability, curve[i - 1].availability + 1e-12) << i;
  }
  const double steady =
      depend::exact_availability(model.steady_state_problem());
  EXPECT_NEAR(curve.back().availability, steady, 1e-9);
  // Times come back sorted even if passed unsorted.
  const auto unsorted = depend::transient_availability(model, {10.0, 0.0});
  EXPECT_DOUBLE_EQ(unsorted.front().t_hours, 0.0);
}

TEST(Transient, InputValidation) {
  const auto g = netgen::ring(4);
  const auto model = depend::SimulationModel::from_attributes(
      g, {{VertexId{0}, VertexId{2}}});
  EXPECT_THROW((void)depend::transient_availability(model, {}), ModelError);
  EXPECT_THROW((void)depend::transient_availability(model, {-1.0}),
               ModelError);
}

}  // namespace
}  // namespace upsim
