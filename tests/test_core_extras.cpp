// rbd_builder: the [20] transformation as public API.
#include <gtest/gtest.h>

#include "casestudy/usi.hpp"
#include "core/rbd_builder.hpp"
#include "core/upsim_generator.hpp"
#include "depend/reliability.hpp"
#include "util/error.hpp"

namespace upsim::core {
namespace {

class CoreExtrasTest : public ::testing::Test {
 protected:
  casestudy::UsiCaseStudy cs = casestudy::make_usi_case_study();
  UpsimGenerator generator{*cs.infrastructure};
  UpsimResult result = generator.generate(
      cs.services->get_composite(casestudy::printing_service_name()),
      cs.mapping_t1_p2(), "extras");
};

TEST_F(CoreExtrasTest, PairModelsMatchDiscoveredPaths) {
  const auto models = build_pair_models(result, 0);  // (t1, printS)
  ASSERT_NE(models.rbd, nullptr);
  ASSERT_NE(models.fault_tree, nullptr);
  // 6 redundant paths -> 6 parallel branches / 6 ANDed ORs.
  EXPECT_EQ(models.component_paths.size(), 6u);
  EXPECT_EQ(models.rbd->children().size(), 6u);
  EXPECT_EQ(models.fault_tree->children().size(), 6u);
  // Each path contributes vertices + edges blocks.
  for (const auto& path : models.component_paths) {
    EXPECT_GE(path.size(), 2u * 6u - 1u);  // shortest path: 6 nodes, 5 links
  }
  // RBD and fault tree are duals: A_rbd == 1 - P(top event).
  EXPECT_NEAR(models.rbd->availability(),
              1.0 - models.fault_tree->probability(), 1e-12);
}

TEST_F(CoreExtrasTest, RbdOverestimatesExactPairAvailability) {
  const auto models = build_pair_models(result, 0);
  depend::ReliabilityProblem problem =
      depend::ReliabilityProblem::from_attributes(
          result.upsim_graph, {result.terminal_pairs()[0]});
  const double exact = depend::exact_availability(problem);
  EXPECT_GE(models.rbd->availability() + 1e-12, exact);
}

TEST_F(CoreExtrasTest, PairIndexValidated) {
  EXPECT_THROW((void)build_pair_models(result, 99), NotFoundError);
}

}  // namespace
}  // namespace upsim::core
