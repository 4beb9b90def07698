// Golden tests against the paper's published artefacts: the Sec. VI-G path
// listing, the Fig. 11/12 UPSIM node sets, Table I, and the Fig. 8
// component values.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "casestudy/usi.hpp"
#include "core/analysis.hpp"
#include "core/upsim_generator.hpp"
#include "reference_paths.hpp"
#include "transform/projection.hpp"

namespace upsim {
namespace {

class CaseStudyTest : public ::testing::Test {
 protected:
  casestudy::UsiCaseStudy cs = casestudy::make_usi_case_study();
};

TEST_F(CaseStudyTest, InfrastructureMatchesFig9Census) {
  EXPECT_EQ(cs.infrastructure->instance_count(), 32u);
  EXPECT_EQ(cs.infrastructure->link_count(), 34u);
  const auto census = cs.infrastructure->census();
  EXPECT_EQ(census.at("C6500"), 2u);
  EXPECT_EQ(census.at("C3750"), 2u);
  EXPECT_EQ(census.at("C2960"), 2u);
  EXPECT_EQ(census.at("HP2650"), 4u);
  EXPECT_EQ(census.at("Comp"), 13u);
  EXPECT_EQ(census.at("Printer"), 3u);
  EXPECT_EQ(census.at("Server"), 6u);
}

TEST_F(CaseStudyTest, InfrastructureValidates) {
  EXPECT_TRUE(cs.infrastructure->validate().empty());
}

TEST_F(CaseStudyTest, Fig8ComponentValues) {
  // Spot-check the published MTBF/MTTR pairs.
  const auto check = [&](const char* cls, double mtbf, double mttr) {
    const uml::Class& c = cs.classes->get_class(cls);
    ASSERT_TRUE(c.stereotype_value("MTBF").has_value()) << cls;
    EXPECT_DOUBLE_EQ(c.stereotype_value("MTBF")->as_real(), mtbf) << cls;
    EXPECT_DOUBLE_EQ(c.stereotype_value("MTTR")->as_real(), mttr) << cls;
  };
  check("Server", 60000.0, 0.1);
  check("C6500", 183498.0, 0.5);
  check("C2960", 61320.0, 0.5);
  check("HP2650", 199000.0, 0.5);
  check("C3750", 188575.0, 0.5);
  check("Comp", 3000.0, 24.0);
  check("Printer", 2880.0, 1.0);
}

TEST_F(CaseStudyTest, TableIMappingRows) {
  const auto mapping = cs.mapping_t1_p2();
  const auto expect_pair = [&](const char* atomic, const char* rq,
                               const char* pr) {
    const auto pair = mapping.find(atomic);
    ASSERT_TRUE(pair.has_value()) << atomic;
    EXPECT_EQ(pair->requester, rq) << atomic;
    EXPECT_EQ(pair->provider, pr) << atomic;
  };
  expect_pair("request_printing", "t1", "printS");
  expect_pair("login_to_printer", "p2", "printS");
  expect_pair("send_document_list", "printS", "p2");
  expect_pair("select_documents", "p2", "printS");
  expect_pair("send_documents", "printS", "p2");
}

TEST_F(CaseStudyTest, SecVIGPathListing) {
  // The first two discovered paths between t1 and printS must be exactly
  // the two the paper prints, in order.
  const graph::Graph g = transform::project(*cs.infrastructure);
  const auto set = pathdisc::discover(g, "t1", "printS");
  ASSERT_GE(set.count(), 2u);
  const auto& expected = casestudy::expected_first_paths_t1_printS();
  EXPECT_EQ(pathdisc::path_names(g, set.paths[0]), expected[0]);
  EXPECT_EQ(pathdisc::path_names(g, set.paths[1]), expected[1]);
  // The reconstruction yields exactly six redundant paths (DESIGN.md §3).
  EXPECT_EQ(set.count(), 6u);
  EXPECT_FALSE(set.truncated);
}

TEST_F(CaseStudyTest, PathsMatchReferenceOnCaseStudy) {
  const graph::Graph g = transform::project(*cs.infrastructure);
  const auto set = pathdisc::discover(g, "t1", "printS");
  const auto expected = pathdisc::reference::all_paths(
      g, g.vertex_by_name("t1"), g.vertex_by_name("printS"));
  EXPECT_EQ(set.paths, expected.paths);  // order included
  EXPECT_EQ(set.nodes_expanded, expected.nodes_expanded);
}

TEST_F(CaseStudyTest, Fig11UpsimNodeSet) {
  core::UpsimGenerator generator(*cs.infrastructure);
  const auto result = generator.generate(
      cs.services->get_composite(casestudy::printing_service_name()),
      cs.mapping_t1_p2(), "upsim_t1_p2");
  std::set<std::string> got;
  for (const auto* inst : result.upsim.instances()) got.insert(inst->name());
  const auto& expected_vec = casestudy::expected_upsim_t1_p2();
  const std::set<std::string> expected(expected_vec.begin(),
                                       expected_vec.end());
  EXPECT_EQ(got, expected);
}

TEST_F(CaseStudyTest, Fig12UpsimNodeSetAfterMappingOnlyChange) {
  core::UpsimGenerator generator(*cs.infrastructure);
  const auto& printing =
      cs.services->get_composite(casestudy::printing_service_name());
  // First perspective, then regenerate with only the mapping changed —
  // the dynamicity path of Sec. V-A3.
  (void)generator.generate(printing, cs.mapping_t1_p2(), "perspective");
  const auto result =
      generator.generate(printing, cs.mapping_t15_p3(), "perspective");
  std::set<std::string> got;
  for (const auto* inst : result.upsim.instances()) got.insert(inst->name());
  const auto& expected_vec = casestudy::expected_upsim_t15_p3();
  const std::set<std::string> expected(expected_vec.begin(),
                                       expected_vec.end());
  EXPECT_EQ(got, expected);
  // d3 never serves a printing path; e1/e2 are on the wrong side.
  EXPECT_FALSE(got.contains("d3"));
  EXPECT_FALSE(got.contains("e1"));
}

TEST_F(CaseStudyTest, UpsimPreservesClassifierProperties) {
  core::UpsimGenerator generator(*cs.infrastructure);
  const auto result = generator.generate(
      cs.services->get_composite(casestudy::printing_service_name()),
      cs.mapping_t1_p2(), "upsim_props");
  const auto& t1 = result.upsim.get_instance("t1");
  ASSERT_TRUE(t1.stereotype_value("MTBF").has_value());
  EXPECT_DOUBLE_EQ(t1.stereotype_value("MTBF")->as_real(), 3000.0);
  EXPECT_DOUBLE_EQ(t1.stereotype_value("MTTR")->as_real(), 24.0);
  // The classifier is shared with the infrastructure model, not copied.
  EXPECT_EQ(&t1.classifier(),
            &cs.infrastructure->get_instance("t1").classifier());
}

TEST_F(CaseStudyTest, UpsimLinksAreInducedSubgraph) {
  core::UpsimGenerator generator(*cs.infrastructure);
  const auto result = generator.generate(
      cs.services->get_composite(casestudy::printing_service_name()),
      cs.mapping_t1_p2(), "upsim_links");
  // Every infrastructure link with both ends kept must appear, none other.
  std::set<std::string> kept;
  for (const auto* inst : result.upsim.instances()) kept.insert(inst->name());
  std::size_t expected_links = 0;
  for (const auto& link : cs.infrastructure->links()) {
    if (kept.contains(link->end_a().name()) &&
        kept.contains(link->end_b().name())) {
      ++expected_links;
    }
  }
  EXPECT_EQ(result.upsim.link_count(), expected_links);
  EXPECT_GT(expected_links, 0u);
}

TEST_F(CaseStudyTest, AvailabilityAnalysisIsConsistent) {
  core::UpsimGenerator generator(*cs.infrastructure);
  const auto result = generator.generate(
      cs.services->get_composite(casestudy::printing_service_name()),
      cs.mapping_t1_p2(), "upsim_avail");
  core::AnalysisOptions options;
  options.monte_carlo_samples = 100000;
  const auto report = core::analyze_availability(result, options);
  // Availability is dominated by the client (A ~ 0.992) and printer; the
  // redundant core contributes almost nothing to unavailability.
  EXPECT_GT(report.exact, 0.95);
  EXPECT_LT(report.exact, 1.0);
  // Product of per-pair marginals UNDER-estimates the joint probability of
  // positively correlated pair-up events.
  EXPECT_LE(report.independent_pairs, report.exact + 1e-12);
  // The parallel-series RBD duplicates shared components across path
  // branches, making the system look more redundant than it is: it can
  // only OVER-estimate availability.
  EXPECT_GE(report.rbd, report.exact - 1e-12);
  // Monte Carlo agrees within 5 standard errors.
  EXPECT_NEAR(report.monte_carlo.estimate, report.exact,
              5.0 * report.monte_carlo.std_error + 1e-9);
  // The linearised Formula 1 stays within 1e-4 of the exact variant here.
  EXPECT_NEAR(report.exact_linear, report.exact, 1e-4);
  // Per-pair values multiply to the independent approximation.
  double product = 1.0;
  for (const double a : report.per_pair_exact) product *= a;
  EXPECT_NEAR(product, report.independent_pairs, 1e-12);
}

TEST_F(CaseStudyTest, BackupServiceGeneratesDistinctUpsim) {
  core::UpsimGenerator generator(*cs.infrastructure);
  const auto result =
      generator.generate(cs.services->get_composite("backup"),
                         cs.backup_mapping("t9"), "upsim_backup");
  std::set<std::string> got;
  for (const auto* inst : result.upsim.instances()) got.insert(inst->name());
  EXPECT_TRUE(got.contains("db"));
  EXPECT_TRUE(got.contains("backup"));
  EXPECT_TRUE(got.contains("d3"));
  EXPECT_FALSE(got.contains("printS"));
  EXPECT_FALSE(got.contains("p2"));
}


TEST_F(CaseStudyTest, ForkJoinCompositeRunsThroughThePipeline) {
  // The Fig. 2 shape (parallel atomic services) end to end: all four
  // atomic services contribute pairs, and the UPSIM covers the parallel
  // branches' providers (backup and email behind d3).
  core::UpsimGenerator generator(*cs.infrastructure);
  const auto& mirrored = cs.services->get_composite("mirrored_backup");
  EXPECT_EQ(mirrored.atomic_services().size(), 4u);
  const auto result =
      generator.generate(mirrored, cs.backup_mapping("t1"), "forked");
  EXPECT_EQ(result.pairs.size(), 4u);
  EXPECT_NE(result.upsim.find_instance("backup"), nullptr);
  EXPECT_NE(result.upsim.find_instance("email"), nullptr);
  EXPECT_NE(result.upsim.find_instance("db"), nullptr);
  EXPECT_NE(result.upsim.find_instance("d3"), nullptr);
  // Availability analysis handles the four correlated pairs.
  core::AnalysisOptions options;
  options.monte_carlo_samples = 0;
  const auto report = core::analyze_availability(result, options);
  EXPECT_GT(report.exact, 0.95);
  EXPECT_LE(report.independent_pairs, report.exact + 1e-12);
}

}  // namespace
}  // namespace upsim
