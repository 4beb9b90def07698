// The "UML native importer" of the methodology (Fig. 4, Step 5): loads UML
// class/object/activity models into the VPM model space.
//
// Imported layout (all under the model-space root):
//
//   metamodel.uml.{Class, Association, Instance, Link, Activity, Action}
//   models.<classModel>.classes.<ClassName>          instanceOf ..uml.Class
//   models.<classModel>.associations.<AssocName>     instanceOf ..uml.Association
//   models.<objectModel>.instances.<instName>        instanceOf ..uml.Instance
//                                                    and of its class entity
//   relations: instance --link--> instance (one per direction per Link,
//              so undirected adjacency is walkable in either direction)
//   models.services.<activity>.<nodeName>            actions instanceOf
//                                                    ..uml.Action
//   relations: node --flow--> node
//
// The importer records structure and typing; attribute *values* stay in the
// UML model (classes carry only static attributes, so the emitter recovers
// every property from the classifier when materialising a UPSIM).
#pragma once

#include <string>

#include "uml/activity.hpp"
#include "uml/object_model.hpp"
#include "vpm/model_space.hpp"

namespace upsim::transform {

/// Ensures the metamodel namespace exists; idempotent.  Returns the
/// "metamodel.uml" entity.
vpm::EntityId ensure_uml_metamodel(vpm::ModelSpace& space);

/// Imports a class model (classes + associations).  Idempotent per name;
/// re-importing an already-present model throws ModelError (delete the
/// "models.<name>" subtree first to refresh).
vpm::EntityId import_class_model(vpm::ModelSpace& space,
                                 const uml::ClassModel& classes);

/// Imports an object model; its class model must have been imported first
/// (classifier typing points at the class entities).
vpm::EntityId import_object_model(vpm::ModelSpace& space,
                                  const uml::ObjectModel& objects);

/// Imports an activity diagram under "models.services".
vpm::EntityId import_activity(vpm::ModelSpace& space,
                              const uml::Activity& activity);

/// FQN helpers used by the other pipeline stages.
[[nodiscard]] std::string class_entity_fqn(const uml::ClassModel& classes,
                                           std::string_view class_name);
[[nodiscard]] std::string instance_entity_fqn(const uml::ObjectModel& objects,
                                              std::string_view instance_name);

}  // namespace upsim::transform
