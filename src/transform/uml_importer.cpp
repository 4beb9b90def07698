#include "transform/uml_importer.hpp"

#include "util/error.hpp"

namespace upsim::transform {

using vpm::EntityId;
using vpm::ModelSpace;

EntityId ensure_uml_metamodel(ModelSpace& space) {
  const EntityId mm = space.ensure_path("metamodel.uml");
  for (const char* kind :
       {"Class", "Association", "Instance", "Link", "Activity", "Action"}) {
    space.ensure_entity(mm, kind);
  }
  return mm;
}

std::string class_entity_fqn(const uml::ClassModel& classes,
                             std::string_view class_name) {
  return "models." + classes.name() + ".classes." + std::string(class_name);
}

std::string instance_entity_fqn(const uml::ObjectModel& objects,
                                std::string_view instance_name) {
  return "models." + objects.name() + ".instances." +
         std::string(instance_name);
}

EntityId import_class_model(ModelSpace& space, const uml::ClassModel& classes) {
  ensure_uml_metamodel(space);
  const EntityId models = space.ensure_path("models");
  if (space.child(models, classes.name())) {
    throw ModelError("import_class_model: model '" + classes.name() +
                     "' already imported");
  }
  const EntityId root = space.create_entity(models, classes.name());
  const EntityId class_ns = space.create_entity(root, "classes");
  const EntityId assoc_ns = space.create_entity(root, "associations");
  const EntityId class_type = space.get("metamodel.uml.Class");
  const EntityId assoc_type = space.get("metamodel.uml.Association");

  for (const uml::Class* cls : classes.classes()) {
    const EntityId e = space.create_entity(class_ns, cls->name());
    space.set_instance_of(e, class_type);
    // Record generalisation so queries can walk the hierarchy.
    if (cls->parent() != nullptr) {
      // Parent entities are created lazily in a second pass below when
      // ordering would matter; ClassModel iterates alphabetically, so
      // resolve parents afterwards.
    }
  }
  for (const uml::Class* cls : classes.classes()) {
    if (cls->parent() == nullptr) continue;
    const EntityId child = space.get(class_entity_fqn(classes, cls->name()));
    const EntityId parent =
        space.get(class_entity_fqn(classes, cls->parent()->name()));
    space.create_relation("specialises", child, parent);
  }
  for (const uml::Association* assoc : classes.associations()) {
    const EntityId e = space.create_entity(assoc_ns, assoc->name());
    space.set_instance_of(e, assoc_type);
    space.create_relation(
        "endA", e, space.get(class_entity_fqn(classes, assoc->end_a().name())));
    space.create_relation(
        "endB", e, space.get(class_entity_fqn(classes, assoc->end_b().name())));
  }
  return root;
}

EntityId import_object_model(ModelSpace& space,
                             const uml::ObjectModel& objects) {
  ensure_uml_metamodel(space);
  const uml::ClassModel& classes = objects.class_model();
  if (!space.find("models." + classes.name())) {
    throw ModelError("import_object_model: class model '" + classes.name() +
                     "' must be imported before object model '" +
                     objects.name() + "'");
  }
  const EntityId models = space.ensure_path("models");
  if (space.child(models, objects.name())) {
    throw ModelError("import_object_model: model '" + objects.name() +
                     "' already imported");
  }
  const EntityId root = space.create_entity(models, objects.name());
  const EntityId inst_ns = space.create_entity(root, "instances");
  const EntityId instance_type = space.get("metamodel.uml.Instance");

  for (const uml::InstanceSpecification* inst : objects.instances()) {
    const EntityId e = space.create_entity(inst_ns, inst->name());
    space.set_instance_of(e, instance_type);
    space.set_instance_of(
        e, space.get(class_entity_fqn(classes, inst->classifier().name())));
  }
  for (const auto& link : objects.links()) {
    const EntityId a =
        space.get(instance_entity_fqn(objects, link->end_a().name()));
    const EntityId b =
        space.get(instance_entity_fqn(objects, link->end_b().name()));
    // Two directed relations make the undirected link traversable from
    // either endpoint in the path-discovery step.
    space.create_relation("link", a, b);
    space.create_relation("link", b, a);
  }
  return root;
}

EntityId import_activity(ModelSpace& space, const uml::Activity& activity) {
  ensure_uml_metamodel(space);
  const EntityId services = space.ensure_path("models.services");
  if (space.child(services, activity.name())) {
    throw ModelError("import_activity: activity '" + activity.name() +
                     "' already imported");
  }
  const EntityId root = space.create_entity(services, activity.name());
  const EntityId activity_type = space.get("metamodel.uml.Activity");
  const EntityId action_type = space.get("metamodel.uml.Action");
  space.set_instance_of(root, activity_type);

  std::vector<EntityId> node_entities;
  node_entities.reserve(activity.node_count());
  for (std::size_t i = 0; i < activity.node_count(); ++i) {
    const auto id = uml::ActivityNodeId{static_cast<std::uint32_t>(i)};
    const uml::ActivityNode& node = activity.node(id);
    // Node names can repeat across kinds in principle; qualify with index
    // to guarantee uniqueness while keeping the readable name as value.
    const EntityId e =
        space.create_entity(root, "n" + std::to_string(i) + "_" + node.name);
    space.set_value(e, node.name);
    if (node.kind == uml::ActivityNodeKind::Action) {
      space.set_instance_of(e, action_type);
    }
    node_entities.push_back(e);
  }
  for (std::size_t i = 0; i < activity.node_count(); ++i) {
    const auto id = uml::ActivityNodeId{static_cast<std::uint32_t>(i)};
    for (const uml::ActivityNodeId succ : activity.successors(id)) {
      space.create_relation("flow", node_entities[i],
                            node_entities[uml::index(succ)]);
    }
  }
  return root;
}

}  // namespace upsim::transform
