#include <gtest/gtest.h>

#include "util/error.hpp"
#include "vpm/model_space.hpp"

namespace upsim::vpm {
namespace {

TEST(ModelSpace, RootAndPaths) {
  ModelSpace space;
  EXPECT_EQ(space.entity_count(), 1u);
  EXPECT_EQ(space.fqn(kRoot), "");
  const EntityId e = space.ensure_path("models.usi.instances.t1");
  EXPECT_EQ(space.fqn(e), "models.usi.instances.t1");
  EXPECT_EQ(space.name(e), "t1");
  EXPECT_EQ(space.entity_count(), 5u);
  // ensure_path is idempotent.
  EXPECT_EQ(space.ensure_path("models.usi.instances.t1"), e);
  EXPECT_EQ(space.entity_count(), 5u);
}

TEST(ModelSpace, FindAndGet) {
  ModelSpace space;
  space.ensure_path("a.b.c");
  EXPECT_TRUE(space.find("a.b").has_value());
  EXPECT_FALSE(space.find("a.zz").has_value());
  EXPECT_THROW((void)space.get("a.zz"), NotFoundError);
  EXPECT_EQ(space.find(""), kRoot);
  EXPECT_EQ(space.parent(space.get("a.b.c")), space.get("a.b"));
}

TEST(ModelSpace, DuplicateSiblingRejected) {
  ModelSpace space;
  const EntityId parent = space.ensure_path("ns");
  space.create_entity(parent, "x");
  EXPECT_THROW(space.create_entity(parent, "x"), ModelError);
  EXPECT_THROW(space.create_entity(parent, "bad name"), ModelError);
}

TEST(ModelSpace, ValuesAndTypes) {
  ModelSpace space;
  const EntityId type = space.ensure_path("metamodel.Device");
  const EntityId inst = space.ensure_path("models.net.s1");
  space.set_value(inst, "42");
  EXPECT_EQ(space.value(inst), "42");
  space.set_instance_of(inst, type);
  space.set_instance_of(inst, type);  // idempotent
  EXPECT_EQ(space.types_of(inst).size(), 1u);
  EXPECT_TRUE(space.is_instance_of(inst, type));
  EXPECT_EQ(space.instances_of(type), std::vector<EntityId>{inst});
}

TEST(ModelSpace, RelationsDirectedAndFiltered) {
  ModelSpace space;
  const EntityId a = space.ensure_path("m.a");
  const EntityId b = space.ensure_path("m.b");
  const RelationId r1 = space.create_relation("link", a, b);
  space.create_relation("link", b, a);
  space.create_relation("other", a, b);
  EXPECT_EQ(space.relations_from(a, "link").size(), 1u);
  EXPECT_EQ(space.relations_from(a).size(), 2u);
  EXPECT_EQ(space.relations_to(b, "link").size(), 1u);
  EXPECT_EQ(space.source(r1), a);
  EXPECT_EQ(space.target(r1), b);
  EXPECT_EQ(space.relation_name(r1), "link");
  EXPECT_EQ(space.relation_count(), 3u);
  space.delete_relation(r1);
  EXPECT_FALSE(space.relation_alive(r1));
  EXPECT_EQ(space.relations_from(a, "link").size(), 0u);
  EXPECT_EQ(space.relation_count(), 2u);
}

TEST(ModelSpace, DeleteEntityRemovesSubtreeAndRelations) {
  ModelSpace space;
  const EntityId mapping = space.ensure_path("mappings.run1");
  const EntityId pair = space.create_entity(mapping, "request_printing");
  const EntityId t1 = space.ensure_path("models.net.t1");
  space.create_relation("requester", pair, t1);
  const std::size_t before_entities = space.entity_count();
  space.delete_entity(mapping);
  EXPECT_EQ(space.entity_count(), before_entities - 2);
  EXPECT_FALSE(space.is_alive(mapping));
  EXPECT_FALSE(space.is_alive(pair));
  EXPECT_TRUE(space.is_alive(t1));
  // Incoming relations of surviving entities were cleaned up.
  EXPECT_TRUE(space.relations_to(t1, "requester").empty());
  // The name is free again.
  EXPECT_NO_THROW(space.ensure_path("mappings.run1"));
  EXPECT_THROW(space.delete_entity(kRoot), ModelError);
}

TEST(ModelSpace, DeadEntityAccessThrows) {
  ModelSpace space;
  const EntityId e = space.ensure_path("x");
  space.delete_entity(e);
  EXPECT_THROW((void)space.name(e), NotFoundError);
  EXPECT_THROW((void)space.children(e), NotFoundError);
  EXPECT_THROW(space.set_value(e, "v"), NotFoundError);
  EXPECT_THROW(space.create_relation("r", e, kRoot), NotFoundError);
}

TEST(ModelSpace, DumpRendersTree) {
  ModelSpace space;
  const EntityId e = space.ensure_path("m.a");
  space.set_value(e, "7");
  const EntityId type = space.ensure_path("mm.T");
  space.set_instance_of(e, type);
  const std::string dump = space.dump();
  EXPECT_NE(dump.find("<root>"), std::string::npos);
  EXPECT_NE(dump.find("a = \"7\" : mm.T"), std::string::npos);
}

}  // namespace
}  // namespace upsim::vpm
