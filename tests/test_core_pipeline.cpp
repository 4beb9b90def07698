#include <gtest/gtest.h>

#include <set>

#include "casestudy/usi.hpp"
#include "core/analysis.hpp"
#include "core/upsim_generator.hpp"
#include "netgen/generators.hpp"
#include "util/error.hpp"

namespace upsim::core {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  casestudy::UsiCaseStudy cs = casestudy::make_usi_case_study();
  const service::CompositeService& printing() {
    return cs.services->get_composite(casestudy::printing_service_name());
  }
};

TEST_F(PipelineTest, ConstructorImportsInfrastructure) {
  UpsimGenerator generator(*cs.infrastructure);
  EXPECT_EQ(generator.infrastructure_graph().vertex_count(), 32u);
  EXPECT_EQ(generator.infrastructure_graph().edge_count(), 34u);
  EXPECT_TRUE(
      generator.space().find("models.usi_network.instances.t1").has_value());
  EXPECT_EQ(&generator.infrastructure(), cs.infrastructure.get());
}

TEST_F(PipelineTest, GenerateProducesConsistentResult) {
  UpsimGenerator generator(*cs.infrastructure);
  const auto result =
      generator.generate(printing(), cs.mapping_t1_p2(), "run");
  EXPECT_EQ(result.pairs.size(), 5u);
  EXPECT_EQ(result.path_sets.size(), 5u);
  EXPECT_EQ(result.named_paths.size(), 5u);
  EXPECT_EQ(result.upsim.instance_count(), result.upsim_graph.vertex_count());
  EXPECT_EQ(result.upsim.link_count(), result.upsim_graph.edge_count());
  EXPECT_GT(result.total_paths(), 0u);
  // Pairs are in composite execution order.
  EXPECT_EQ(result.pairs[0].atomic_service, "request_printing");
  EXPECT_EQ(result.pairs[4].atomic_service, "send_documents");
  // Terminal pairs resolve in the UPSIM graph.
  EXPECT_EQ(result.terminal_pairs().size(), 5u);
  // Timings are recorded.
  EXPECT_GE(result.timings.total_ms(), 0.0);
  EXPECT_THROW((void)result.path_names(99), NotFoundError);
}

TEST_F(PipelineTest, UpsimIsSubsetOfInfrastructure) {
  UpsimGenerator generator(*cs.infrastructure);
  const auto result =
      generator.generate(printing(), cs.mapping_t1_p2(), "run");
  for (const auto* inst : result.upsim.instances()) {
    EXPECT_NE(cs.infrastructure->find_instance(inst->name()), nullptr);
  }
  EXPECT_LT(result.upsim.instance_count(),
            cs.infrastructure->instance_count());
}

TEST_F(PipelineTest, UpsimEqualsUnionOfPathVertices) {
  UpsimGenerator generator(*cs.infrastructure);
  const auto result =
      generator.generate(printing(), cs.mapping_t1_p2(), "run");
  std::set<std::string> from_paths;
  for (const auto& per_pair : result.named_paths) {
    for (const auto& path : per_pair) {
      from_paths.insert(path.begin(), path.end());
    }
  }
  std::set<std::string> from_upsim;
  for (const auto* inst : result.upsim.instances()) {
    from_upsim.insert(inst->name());
  }
  EXPECT_EQ(from_paths, from_upsim);
}

TEST_F(PipelineTest, RegenerationUnderSameNameReplacesRun) {
  UpsimGenerator generator(*cs.infrastructure);
  const auto first =
      generator.generate(printing(), cs.mapping_t1_p2(), "run");
  const auto second =
      generator.generate(printing(), cs.mapping_t15_p3(), "run");
  EXPECT_NE(first.upsim.instance_count(), second.upsim.instance_count());
  // The model space holds exactly one mapping subtree named "run".
  EXPECT_TRUE(generator.space().find("mappings.run").has_value());
}

TEST_F(PipelineTest, DistinctNamesCoexist) {
  UpsimGenerator generator(*cs.infrastructure);
  (void)generator.generate(printing(), cs.mapping_t1_p2(), "runA");
  (void)generator.generate(printing(), cs.mapping_t15_p3(), "runB");
  EXPECT_TRUE(generator.space().find("paths.runA").has_value());
  EXPECT_TRUE(generator.space().find("paths.runB").has_value());
}

TEST_F(PipelineTest, InvalidMappingRejectedUpfront) {
  UpsimGenerator generator(*cs.infrastructure);
  mapping::ServiceMapping incomplete = cs.mapping_t1_p2();
  incomplete.erase("send_documents");
  EXPECT_THROW(
      (void)generator.generate(printing(), incomplete, "run"), ModelError);
  mapping::ServiceMapping ghost = cs.mapping_t1_p2();
  ghost.map("request_printing", "ghost", "printS");
  EXPECT_THROW((void)generator.generate(printing(), ghost, "run"), ModelError);
}

TEST_F(PipelineTest, DisconnectedPairRejectedAtDiscovery) {
  // An isolated client cannot reach the print server.
  auto cs2 = casestudy::make_usi_case_study();
  cs2.infrastructure->instantiate("island", cs2.classes->get_class("Comp"));
  UpsimGenerator generator(*cs2.infrastructure);
  const auto& printing2 =
      cs2.services->get_composite(casestudy::printing_service_name());
  auto m = cs2.printing_mapping("island", "p2");
  EXPECT_THROW((void)generator.generate(printing2, m, "run"), ModelError);
}

TEST_F(PipelineTest, ParallelDiscoveryMatchesSerial) {
  util::ThreadPool pool(4);
  GeneratorOptions parallel_options;
  parallel_options.pool = &pool;
  UpsimGenerator serial(*cs.infrastructure);
  UpsimGenerator parallel(*cs.infrastructure, parallel_options);
  const auto a = serial.generate(printing(), cs.mapping_t1_p2(), "run");
  const auto b = parallel.generate(printing(), cs.mapping_t1_p2(), "run");
  ASSERT_EQ(a.named_paths.size(), b.named_paths.size());
  for (std::size_t i = 0; i < a.named_paths.size(); ++i) {
    EXPECT_EQ(a.named_paths[i], b.named_paths[i]);
  }
}

TEST_F(PipelineTest, GenerateBatchProducesOnePerMapping) {
  UpsimGenerator generator(*cs.infrastructure);
  std::vector<mapping::ServiceMapping> mappings{
      cs.printing_mapping("t1", "p2"), cs.printing_mapping("t6", "p1"),
      cs.printing_mapping("t15", "p3")};
  const auto results =
      generator.generate_batch(printing(), mappings, "view");
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].upsim.find_instance("t1") != nullptr);
  EXPECT_TRUE(results[1].upsim.find_instance("t6") != nullptr);
  EXPECT_TRUE(results[2].upsim.find_instance("t15") != nullptr);
}

TEST_F(PipelineTest, WorksOnSyntheticUmlCampus) {
  const auto net = netgen::uml_campus({});
  // Build a tiny service + mapping against the generated topology.
  service::ServiceCatalog services;
  services.define_atomic("request");
  services.define_atomic("respond");
  const auto& svc = services.define_sequence("echo", {"request", "respond"});
  mapping::ServiceMapping m;
  m.map("request", "t0", "srv0");
  m.map("respond", "srv0", "t0");
  UpsimGenerator generator(*net.infrastructure);
  const auto result = generator.generate(svc, m, "echo_run");
  EXPECT_GT(result.upsim.instance_count(), 2u);
  EXPECT_TRUE(result.upsim.find_instance("t0") != nullptr);
  EXPECT_TRUE(result.upsim.find_instance("srv0") != nullptr);
}

TEST_F(PipelineTest, AnalysisOnTrivialColocationPair) {
  // Requester and provider on the same component: the UPSIM degenerates to
  // single components plus whatever other pairs contribute.
  service::ServiceCatalog services;
  services.define_atomic("local_a");
  services.define_atomic("local_b");
  const auto& svc = services.define_sequence("local", {"local_a", "local_b"});
  mapping::ServiceMapping m;
  m.map("local_a", "printS", "file1");
  m.map("local_b", "file1", "printS");
  UpsimGenerator generator(*cs.infrastructure);
  const auto result = generator.generate(svc, m, "local_run");
  // printS and file1 both hang off d4.
  EXPECT_EQ(result.upsim.instance_count(), 3u);
  AnalysisOptions options;
  options.monte_carlo_samples = 0;
  const auto report = analyze_availability(result, options);
  EXPECT_GT(report.exact, 0.99);
  EXPECT_EQ(report.monte_carlo.samples, 0u);
}

}  // namespace
}  // namespace upsim::core
