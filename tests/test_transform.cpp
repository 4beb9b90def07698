#include <gtest/gtest.h>

#include <set>

#include "casestudy/usi.hpp"
#include "transform/mapping_importer.hpp"
#include "transform/projection.hpp"
#include "transform/space_discovery.hpp"
#include "transform/uml_importer.hpp"
#include "transform/upsim_emitter.hpp"
#include "pathdisc/path_discovery.hpp"
#include "reference_paths.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace upsim::transform {
namespace {

class TransformTest : public ::testing::Test {
 protected:
  casestudy::UsiCaseStudy cs = casestudy::make_usi_case_study();
  vpm::ModelSpace space;
};

TEST_F(TransformTest, ClassModelImportCreatesTypedEntities) {
  import_class_model(space, *cs.classes);
  const auto cls = space.find("models.usi_classes.classes.C6500");
  ASSERT_TRUE(cls.has_value());
  EXPECT_TRUE(space.is_instance_of(*cls, space.get("metamodel.uml.Class")));
  // All 7 classes and 7 associations land in the space.
  EXPECT_EQ(space.children(space.get("models.usi_classes.classes")).size(), 7u);
  EXPECT_EQ(space.children(space.get("models.usi_classes.associations")).size(),
            7u);
  // Association ends are recorded as relations.
  const auto assoc =
      space.get("models.usi_classes.associations.access_comp_2650");
  EXPECT_EQ(space.relations_from(assoc, "endA").size(), 1u);
  EXPECT_EQ(space.relations_from(assoc, "endB").size(), 1u);
}

TEST_F(TransformTest, ReimportRejected) {
  import_class_model(space, *cs.classes);
  EXPECT_THROW(import_class_model(space, *cs.classes), ModelError);
}

TEST_F(TransformTest, ObjectModelImportRequiresClassModel) {
  EXPECT_THROW(import_object_model(space, *cs.infrastructure), ModelError);
}

TEST_F(TransformTest, ObjectModelImportCreatesInstancesAndLinks) {
  import_class_model(space, *cs.classes);
  import_object_model(space, *cs.infrastructure);
  const auto instances = space.get("models.usi_network.instances");
  EXPECT_EQ(space.children(instances).size(), 32u);
  const auto t1 = space.get("models.usi_network.instances.t1");
  // Typed both as a generic Instance and as its classifier entity.
  EXPECT_TRUE(space.is_instance_of(t1, space.get("metamodel.uml.Instance")));
  EXPECT_TRUE(space.is_instance_of(
      t1, space.get("models.usi_classes.classes.Comp")));
  // Undirected links appear as one relation per direction.
  EXPECT_EQ(space.relations_from(t1, "link").size(), 1u);
  EXPECT_EQ(space.relations_to(t1, "link").size(), 1u);
}

TEST_F(TransformTest, ActivityImport) {
  import_class_model(space, *cs.classes);
  const auto& printing =
      cs.services->get_composite(casestudy::printing_service_name());
  import_activity(space, printing.activity());
  const auto root = space.find("models.services.printing_flow");
  ASSERT_TRUE(root.has_value());
  // 5 actions typed as Action entities.
  EXPECT_EQ(space.instances_of(space.get("metamodel.uml.Action")).size(), 5u);
  // The flow chain is connected: the initial node reaches one successor.
  std::size_t flow_relations = 0;
  for (const auto child : space.children(*root)) {
    flow_relations += space.relations_from(child, "flow").size();
  }
  EXPECT_EQ(flow_relations, 6u);  // 7 nodes in a chain
  EXPECT_THROW(import_activity(space, printing.activity()), ModelError);
}

TEST_F(TransformTest, MappingImportResolvesComponents) {
  import_class_model(space, *cs.classes);
  import_object_model(space, *cs.infrastructure);
  import_mapping(space, "run1", cs.mapping_t1_p2(), *cs.infrastructure);
  const auto entry = space.get("mappings.run1.request_printing");
  EXPECT_TRUE(
      space.is_instance_of(entry, space.get("metamodel.mapping.Pair")));
  const auto rq = space.relations_from(entry, "requester");
  ASSERT_EQ(rq.size(), 1u);
  EXPECT_EQ(space.fqn(space.target(rq[0])), "models.usi_network.instances.t1");
}

TEST_F(TransformTest, MappingImportRejectsUnresolvedComponents) {
  import_class_model(space, *cs.classes);
  import_object_model(space, *cs.infrastructure);
  mapping::ServiceMapping bad;
  bad.map("request_printing", "ghost", "printS");
  EXPECT_THROW(import_mapping(space, "bad", bad, *cs.infrastructure),
               ModelError);
}

TEST_F(TransformTest, RemoveMappingFreesTheName) {
  import_class_model(space, *cs.classes);
  import_object_model(space, *cs.infrastructure);
  import_mapping(space, "run1", cs.mapping_t1_p2(), *cs.infrastructure);
  EXPECT_THROW(
      import_mapping(space, "run1", cs.mapping_t15_p3(), *cs.infrastructure),
      ModelError);
  remove_mapping(space, "run1");
  EXPECT_NO_THROW(
      import_mapping(space, "run1", cs.mapping_t15_p3(), *cs.infrastructure));
  remove_mapping(space, "never_existed");  // no-op
}

TEST_F(TransformTest, ProjectionCarriesAttributes) {
  const graph::Graph g = project(*cs.infrastructure);
  EXPECT_EQ(g.vertex_count(), 32u);
  EXPECT_EQ(g.edge_count(), 34u);
  const auto t1 = g.vertex_by_name("t1");
  EXPECT_EQ(g.vertex(t1).type, "Comp");
  EXPECT_DOUBLE_EQ(g.vertex(t1).attributes.at("mtbf"), 3000.0);
  EXPECT_DOUBLE_EQ(g.vertex(t1).attributes.at("mttr"), 24.0);
  EXPECT_DOUBLE_EQ(g.vertex(t1).attributes.at("redundant"), 0.0);
  // Links carry the substituted connector values.
  const auto e = g.incident_edges(t1).at(0);
  EXPECT_DOUBLE_EQ(g.edge(e).attributes.at("mtbf"), 500000.0);
}

TEST_F(TransformTest, ProjectionFromSpaceMatchesDirectProjection) {
  import_class_model(space, *cs.classes);
  import_object_model(space, *cs.infrastructure);
  const graph::Graph direct = project(*cs.infrastructure);
  const graph::Graph via_space = project_from_space(space, *cs.infrastructure);
  EXPECT_EQ(via_space.vertex_count(), direct.vertex_count());
  EXPECT_EQ(via_space.edge_count(), direct.edge_count());
  for (std::size_t v = 0; v < direct.vertex_count(); ++v) {
    const auto& vertex =
        direct.vertex(graph::VertexId{static_cast<std::uint32_t>(v)});
    const auto other = via_space.find_vertex(vertex.name);
    ASSERT_TRUE(other.has_value()) << vertex.name;
    EXPECT_EQ(via_space.degree(*other),
              direct.degree(graph::VertexId{static_cast<std::uint32_t>(v)}));
  }
}

TEST_F(TransformTest, ProjectionWithoutAttributesWhenNotRequired) {
  uml::ClassModel bare("bare");
  const uml::Class& node = bare.define_class("Node");
  bare.define_association("l", node, node);
  uml::ObjectModel m("topo", bare);
  m.instantiate("a", "Node");
  m.instantiate("b", "Node");
  m.link("a", "b", "l");
  EXPECT_THROW((void)project(m), ModelError);
  ProjectionOptions lax;
  lax.require_dependability_attributes = false;
  const auto g = project(m, lax);
  EXPECT_EQ(g.vertex_count(), 2u);
  EXPECT_TRUE(g.vertex(g.vertex_by_name("a")).attributes.empty());
}

TEST_F(TransformTest, StoreLoadAndClearPaths) {
  import_class_model(space, *cs.classes);
  import_object_model(space, *cs.infrastructure);
  const graph::Graph g = project(*cs.infrastructure);
  const auto set = pathdisc::discover(g, "t1", "printS");
  store_paths(space, "run1", "pair0", g, set, *cs.infrastructure);
  EXPECT_THROW(store_paths(space, "run1", "pair0", g, set, *cs.infrastructure),
               ModelError);
  const auto loaded = load_paths(space, "run1");
  ASSERT_EQ(loaded.size(), set.count());
  EXPECT_EQ(loaded[0],
            (std::vector<std::string>{"t1", "e1", "d1", "c1", "d4", "printS"}));
  clear_paths(space, "run1");
  EXPECT_THROW((void)load_paths(space, "run1"), NotFoundError);
  clear_paths(space, "run1");  // idempotent
}

TEST_F(TransformTest, MergeInstancesPreservesFirstOccurrenceOrder) {
  const auto merged = merge_instances(
      {{"a", "b", "c"}, {"b", "d"}, {"a", "e"}});
  EXPECT_EQ(merged, (std::vector<std::string>{"a", "b", "c", "d", "e"}));
  EXPECT_TRUE(merge_instances({}).empty());
}

TEST_F(TransformTest, EmitUpsimFiltersTopology) {
  const auto upsim = emit_upsim(*cs.infrastructure, "mini",
                                {"t1", "e1", "d1", "c1", "d4", "printS"});
  EXPECT_EQ(upsim.instance_count(), 6u);
  // Links among kept instances: t1-e1, e1-d1, d1-c1, d4-c1, d4-printS.
  EXPECT_EQ(upsim.link_count(), 5u);
  EXPECT_EQ(&upsim.class_model(), cs.classes.get());
  EXPECT_THROW((void)emit_upsim(*cs.infrastructure, "bad", {"ghost"}),
               NotFoundError);
}

// ---------------------------------------------------------------------------
// Model-space-native path discovery (the paper's VTCL design point)

TEST_F(TransformTest, SpaceDiscoveryMatchesGraphDiscoveryOnCaseStudy) {
  import_class_model(space, *cs.classes);
  import_object_model(space, *cs.infrastructure);
  const graph::Graph g = project(*cs.infrastructure);
  for (const auto& [rq, pr] :
       {std::pair<const char*, const char*>{"t1", "printS"},
        {"p2", "printS"},
        {"t15", "p3"},
        {"t9", "db"}}) {
    const auto in_space = discover_in_space(
        space, "models.usi_network.instances", rq, pr);
    const auto on_graph = pathdisc::discover(g, rq, pr);
    ASSERT_EQ(in_space.paths.size(), on_graph.count()) << rq << "->" << pr;
    for (std::size_t i = 0; i < in_space.paths.size(); ++i) {
      EXPECT_EQ(in_space.paths[i],
                pathdisc::path_names(g, on_graph.paths[i]))
          << rq << "->" << pr << " path " << i;
    }
  }
}

TEST_F(TransformTest, SpaceDiscoveryMatchesReferenceOnRandomModels) {
  // The model-space walk against the independent breadth-first enumerator
  // (tests/reference_paths.hpp) run on the projection of the same model:
  // random models of at most 8 instances with parallel links, every
  // ordered pair, name sequences in discovery order.
  util::Rng rng(20131108);
  for (int trial = 0; trial < 150; ++trial) {
    uml::ClassModel classes("net");
    const uml::Class& host = classes.define_class("Host");
    classes.define_association("wire", host, host);
    uml::ObjectModel objects("infra", classes);
    const std::size_t n = rng.uniform_int(2, 8);
    for (std::size_t i = 0; i < n; ++i) {
      objects.instantiate("h" + std::to_string(i), "Host");
    }
    const std::size_t links = rng.uniform_int(1, 2 * n);
    for (std::size_t l = 0; l < links; ++l) {
      const auto a = rng.uniform_int(0, n - 1);
      auto b = rng.uniform_int(0, n - 1);
      if (a == b) b = (b + 1) % n;
      objects.link("h" + std::to_string(a), "h" + std::to_string(b), "wire",
                   "l" + std::to_string(l));
    }
    vpm::ModelSpace model_space;
    import_class_model(model_space, classes);
    import_object_model(model_space, objects);
    ProjectionOptions lax;
    lax.require_dependability_attributes = false;
    const graph::Graph g = project(objects, lax);
    for (std::size_t s = 0; s < n; ++s) {
      for (std::size_t t = 0; t < n; ++t) {
        const std::string from = "h" + std::to_string(s);
        const std::string to = "h" + std::to_string(t);
        const auto in_space = discover_in_space(
            model_space, "models.infra.instances", from, to);
        const auto expected = pathdisc::reference::all_paths(
            g, g.vertex_by_name(from), g.vertex_by_name(to));
        std::vector<std::vector<std::string>> names;
        for (const auto& path : expected.paths) {
          names.push_back(pathdisc::path_names(g, path));
        }
        const std::string context = "trial " + std::to_string(trial) + " " +
                                    from + "->" + to;
        EXPECT_EQ(in_space.paths, names) << context;
        EXPECT_EQ(in_space.nodes_expanded, expected.nodes_expanded)
            << context;
      }
    }
  }
}

TEST_F(TransformTest, SpaceDiscoveryErrors) {
  import_class_model(space, *cs.classes);
  import_object_model(space, *cs.infrastructure);
  EXPECT_THROW((void)discover_in_space(space, "models.nowhere", "t1", "printS"),
               NotFoundError);
  EXPECT_THROW((void)discover_in_space(space, "models.usi_network.instances",
                                       "ghost", "printS"),
               NotFoundError);
  EXPECT_THROW((void)discover_in_space(space, "models.usi_network.instances",
                                       "t1", "ghost"),
               NotFoundError);
}

TEST_F(TransformTest, SpaceDiscoveryTrivialPair) {
  import_class_model(space, *cs.classes);
  import_object_model(space, *cs.infrastructure);
  const auto result = discover_in_space(
      space, "models.usi_network.instances", "t1", "t1");
  ASSERT_EQ(result.paths.size(), 1u);
  EXPECT_EQ(result.paths[0], (std::vector<std::string>{"t1"}));
}


TEST_F(TransformTest, ProjectionCarriesExtraAttributes) {
  // The default projection rides the network profile's throughput (Fig. 7)
  // along for performability analysis.
  const graph::Graph g = project(*cs.infrastructure);
  const auto t1 = g.vertex_by_name("t1");
  const auto access = g.incident_edges(t1).at(0);
  EXPECT_DOUBLE_EQ(g.edge(access).attributes.at("throughput_mbps"), 1000.0);
  const auto p2 = g.vertex_by_name("p2");
  const auto printer_link = g.incident_edges(p2).at(0);
  EXPECT_DOUBLE_EQ(g.edge(printer_link).attributes.at("throughput_mbps"),
                   100.0);
  // Vertices carry no throughput stereotype value: key absent, not zero.
  EXPECT_FALSE(g.vertex(t1).attributes.contains("throughput_mbps"));
}

}  // namespace
}  // namespace upsim::transform
