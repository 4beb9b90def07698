#include "core/upsim_generator.hpp"

#include <utility>

#include "obs/obs.hpp"
#include "transform/mapping_importer.hpp"
#include "transform/uml_importer.hpp"
#include "transform/upsim_emitter.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"

namespace upsim::core {

const std::vector<std::vector<std::string>>& UpsimResult::path_names(
    std::size_t i) const {
  if (i >= named_paths.size()) {
    throw NotFoundError("UpsimResult: pair index out of range");
  }
  return named_paths[i];
}

std::size_t UpsimResult::total_paths() const noexcept {
  std::size_t n = 0;
  for (const auto& set : path_sets) n += set.paths.size();
  return n;
}

std::vector<std::pair<graph::VertexId, graph::VertexId>>
UpsimResult::terminal_pairs() const {
  std::vector<std::pair<graph::VertexId, graph::VertexId>> out;
  out.reserve(pairs.size());
  for (const auto& pair : pairs) {
    out.emplace_back(upsim_graph.vertex_by_name(pair.requester),
                     upsim_graph.vertex_by_name(pair.provider));
  }
  return out;
}

UpsimGenerator::UpsimGenerator(const uml::ObjectModel& infrastructure,
                               GeneratorOptions options)
    : infrastructure_(&infrastructure), options_(options) {
  const auto problems = infrastructure.validate();
  if (!problems.empty()) {
    throw ModelError("UpsimGenerator: invalid infrastructure: " +
                     util::join(problems, "; "));
  }
  // Step 5: native import of class + object models.
  {
    obs::ScopedSpan span("pipeline.step5_import_models", "pipeline");
    transform::import_class_model(space_, infrastructure.class_model());
    transform::import_object_model(space_, infrastructure);
  }
  {
    obs::ScopedSpan span("pipeline.step5_project", "pipeline");
    graph_ = transform::project_from_space(space_, infrastructure,
                                           options_.projection);
  }
}

UpsimResult UpsimGenerator::generate(const service::CompositeService& composite,
                                     const mapping::ServiceMapping& mapping,
                                     std::string upsim_name) {
  const auto problems = mapping.validate(*infrastructure_, &composite);
  if (!problems.empty()) {
    throw ModelError("UpsimGenerator: invalid mapping for '" +
                     composite.name() + "': " + util::join(problems, "; "));
  }

  obs::ScopedSpan generate_span("pipeline.generate", "pipeline");
  util::Stopwatch watch;
  StepTimings timings;

  // Step 6: custom mapping import (replacing any previous run of this name).
  {
    obs::ScopedSpan span("pipeline.step6_import_mapping", "pipeline");
    transform::remove_mapping(space_, upsim_name);
    transform::clear_paths(space_, upsim_name);
    transform::import_mapping(space_, upsim_name, mapping, *infrastructure_);
  }
  timings.import_mapping_ms = watch.lap_millis();

  // Step 7: path discovery per pair, stored in the model space.
  const std::vector<mapping::ServiceMappingPair> pairs =
      mapping.pairs_for(composite);
  std::vector<pathdisc::PathSet> raw_sets;
  {
    obs::ScopedSpan span("pipeline.step7_discovery", "pipeline");
    std::vector<std::pair<graph::VertexId, graph::VertexId>> endpoint_ids;
    endpoint_ids.reserve(pairs.size());
    for (const auto& pair : pairs) {
      endpoint_ids.emplace_back(graph_.vertex_by_name(pair.requester),
                                graph_.vertex_by_name(pair.provider));
    }
    raw_sets = pathdisc::discover_all(graph_, endpoint_ids,
                                      options_.discovery, options_.pool);
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      if (raw_sets[i].empty()) {
        throw ModelError("UpsimGenerator: no path between requester '" +
                         pairs[i].requester + "' and provider '" +
                         pairs[i].provider + "' of atomic service '" +
                         pairs[i].atomic_service + "'");
      }
      transform::store_paths(space_, upsim_name,
                             "pair" + std::to_string(i) + "_" +
                                 pairs[i].atomic_service,
                             graph_, raw_sets[i], *infrastructure_);
    }
  }
  timings.discovery_ms = watch.lap_millis();

  // Step 8: merge stored paths and emit the UPSIM object diagram.
  auto [upsim, upsim_graph] = [&] {
    obs::ScopedSpan span("pipeline.step8_merge_emit", "pipeline");
    const auto stored = transform::load_paths(space_, upsim_name);
    const auto kept = transform::merge_instances(stored);
    uml::ObjectModel emitted =
        transform::emit_upsim(*infrastructure_, upsim_name, kept);
    graph::Graph projected = transform::project(emitted, options_.projection);
    return std::pair{std::move(emitted), std::move(projected)};
  }();
  timings.merge_emit_ms = watch.lap_millis();

  UpsimResult result{std::move(upsim), std::move(upsim_graph), pairs,
                     std::move(raw_sets), {}, timings};
  result.named_paths.reserve(result.path_sets.size());
  for (const auto& set : result.path_sets) {
    std::vector<std::vector<std::string>> names;
    names.reserve(set.paths.size());
    for (const auto& path : set.paths) {
      names.push_back(pathdisc::path_names(graph_, path));
    }
    result.named_paths.push_back(std::move(names));
  }
  return result;
}

std::vector<UpsimResult> UpsimGenerator::generate_batch(
    const service::CompositeService& composite,
    const std::vector<mapping::ServiceMapping>& mappings,
    std::string_view name_prefix) {
  std::vector<UpsimResult> out;
  out.reserve(mappings.size());
  for (std::size_t i = 0; i < mappings.size(); ++i) {
    out.push_back(generate(composite, mappings[i],
                           std::string(name_prefix) + std::to_string(i)));
  }
  return out;
}

}  // namespace upsim::core
