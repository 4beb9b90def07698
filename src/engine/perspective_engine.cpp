#include "engine/perspective_engine.hpp"

#include <algorithm>
#include <numeric>
#include <optional>
#include <unordered_set>
#include <utility>

#include "lint/analyzer.hpp"
#include "lint/render.hpp"
#include "obs/obs.hpp"
#include "transform/mapping_importer.hpp"
#include "transform/uml_importer.hpp"
#include "transform/upsim_emitter.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"

namespace upsim::engine {

namespace {

/// Pair keys as store_paths writes them; the lexicographic order of these
/// keys is the order load_paths reads a run back in (model-space children
/// are name-ordered), and the engine must merge in exactly that order to
/// stay bit-compatible with UpsimGenerator's Step 8.
std::string pair_key(std::size_t i, const mapping::ServiceMappingPair& pair) {
  return "pair" + std::to_string(i) + "_" + pair.atomic_service;
}

}  // namespace

PerspectiveEngine::PerspectiveEngine(const uml::ObjectModel& infrastructure,
                                     EngineOptions options)
    : infrastructure_(&infrastructure), options_(options) {
  if (options_.pool != nullptr) {
    pool_ = options_.pool;
  } else {
    owned_pool_ = std::make_unique<util::ThreadPool>(options_.threads);
    pool_ = owned_pool_.get();
  }
  rebuild_locked(/*bump_epoch=*/false);
}

void PerspectiveEngine::rebuild_locked(bool bump_epoch) {
  obs::ScopedSpan span("engine.rebuild", "engine");
  const auto problems = infrastructure_->validate();
  if (!problems.empty()) {
    throw ModelError("PerspectiveEngine: invalid infrastructure: " +
                     util::join(problems, "; "));
  }
  if (options_.lint_model) {
    // Pre-flight static analysis (src/lint): reject a bundle whose queries
    // could only fail or mislead, before any query runs.  Warnings don't
    // block serving; analyze() counts them on the obs registry.
    lint::Input input;
    input.objects = infrastructure_;
    input.mtbf_attribute = options_.projection.mtbf_attribute;
    input.mttr_attribute = options_.projection.mttr_attribute;
    input.require_dependability =
        options_.projection.require_dependability_attributes;
    const lint::Report report = lint::analyze(input);
    if (report.has_errors()) {
      throw ModelError("PerspectiveEngine: model lint failed:\n" +
                       lint::render_text(report));
    }
  }
  // A topology change is the expensive class by design (Sec. V-A3): the
  // whole space is re-imported, Step 5 style.  Recorded runs die with it.
  space_ = vpm::ModelSpace();
  transform::import_class_model(space_, infrastructure_->class_model());
  transform::import_object_model(space_, *infrastructure_);
  graph_ = transform::project_from_space(space_, *infrastructure_,
                                         options_.projection);
  patch_overrides_locked(graph_);
  // Compile the discovery hot-path projection once per structural rebuild;
  // queries share it read-only under the shared lock.  Attribute-only
  // re-projections (notify_properties_changed) never reach this function,
  // so the view survives them — structure is all it holds.
  csr_ = pathdisc::CsrView(graph_);
  if (bump_epoch) {
    const std::uint64_t now =
        epoch_.fetch_add(1, std::memory_order_relaxed) + 1;
    cache_.evict_stale(now);
    rindex_.clear();
    inv_full_flushes_.fetch_add(1, std::memory_order_relaxed);
    if (obs::enabled()) {
      obs::Registry::global().gauge("engine.epoch").set(
          static_cast<double>(now));
      obs::Registry::global().counter("engine.invalidation.full_flushes")
          .add(1);
    }
  }
}

void PerspectiveEngine::patch_overrides_locked(graph::Graph& g) const {
  for (const auto& [element, attrs] : overrides_) {
    graph::AttributeMap* target = nullptr;
    if (const auto v = g.find_vertex(element)) {
      target = &g.vertex(*v).attributes;
    } else if (const auto e = g.find_edge(element)) {
      target = &g.edge(*e).attributes;
    } else {
      continue;  // element not part of this (sub)graph
    }
    for (const auto& [attribute, value] : attrs) {
      (*target)[attribute] = value;
    }
  }
}

void PerspectiveEngine::require_elements_locked(
    const std::vector<std::string>& elements) const {
  for (const std::string& element : elements) {
    if (!graph_.find_vertex(element) && !graph_.find_edge(element)) {
      throw NotFoundError(
          "PerspectiveEngine: unknown element '" + element +
          "' (neither an instance nor a link of the infrastructure)");
    }
  }
}

bool PerspectiveEngine::path_alive_locked(const pathdisc::Path& path) const {
  for (const graph::VertexId v : path) {
    if (down_.contains(graph_.vertex(v).name)) return false;
  }
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    // A hop survives while any parallel link between its endpoints is up
    // (the same reachability semantics depend::simulate's service_up BFS
    // applies per edge).
    bool usable = false;
    for (const graph::EdgeId e : graph_.incident_edges(path[i])) {
      if (graph_.opposite(e, path[i]) != path[i + 1]) continue;
      if (!down_.contains(graph_.edge(e).name)) {
        usable = true;
        break;
      }
    }
    if (!usable) return false;
  }
  return true;
}

std::shared_ptr<const pathdisc::PathSet> PerspectiveEngine::filter_down_locked(
    const std::shared_ptr<const pathdisc::PathSet>& set) const {
  std::size_t alive = 0;
  for (const auto& path : set->paths) {
    if (path_alive_locked(path)) ++alive;
  }
  if (alive == set->paths.size()) return set;
  auto filtered = std::make_shared<pathdisc::PathSet>();
  filtered->source = set->source;
  filtered->target = set->target;
  filtered->nodes_expanded = set->nodes_expanded;
  filtered->truncated = set->truncated;
  filtered->paths.reserve(alive);
  for (const auto& path : set->paths) {
    if (path_alive_locked(path)) filtered->paths.push_back(path);
  }
  return filtered;
}

void PerspectiveEngine::collect_dependency_elements_locked(
    const pathdisc::PathSet& set, std::set<std::string>& out) const {
  for (const auto& path : set.paths) {
    for (const graph::VertexId v : path) {
      out.insert(graph_.vertex(v).name);
    }
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      for (const graph::EdgeId e : graph_.incident_edges(path[i])) {
        if (graph_.opposite(e, path[i]) == path[i + 1]) {
          out.insert(graph_.edge(e).name);
        }
      }
    }
  }
}

void PerspectiveEngine::note_event_locked(const InvalidationReport& report) {
  inv_events_.fetch_add(1, std::memory_order_relaxed);
  inv_affected_.fetch_add(report.affected_keys, std::memory_order_relaxed);
  inv_evicted_.fetch_add(report.evicted_keys, std::memory_order_relaxed);
  if (obs::enabled()) {
    auto& registry = obs::Registry::global();
    registry.counter("engine.invalidation.events").add(1);
    if (report.affected_keys != 0) {
      registry.counter("engine.invalidation.affected_keys")
          .add(report.affected_keys);
    }
    if (report.evicted_keys != 0) {
      registry.counter("engine.invalidation.evictions")
          .add(report.evicted_keys);
    }
    registry.histogram("engine.invalidation.affected_per_event")
        .record(static_cast<double>(report.affected_keys));
    registry.gauge("engine.reverse_index.elements")
        .set(static_cast<double>(rindex_.element_count()));
    registry.gauge("engine.reverse_index.links")
        .set(static_cast<double>(rindex_.link_count()));
    registry.gauge("engine.overlay.down")
        .set(static_cast<double>(down_.size()));
  }
}

core::UpsimResult PerspectiveEngine::query(
    const service::CompositeService& composite,
    const mapping::ServiceMapping& mapping, std::string perspective_name) {
  return query(composite, mapping, std::move(perspective_name), nullptr);
}

core::UpsimResult PerspectiveEngine::query(
    const service::CompositeService& composite,
    const mapping::ServiceMapping& mapping, std::string perspective_name,
    QueryInfo* info) {
  std::shared_lock model_lock(model_mutex_);
  obs::ScopedSpan query_span("engine.query", "engine");
  if (obs::enabled()) {
    obs::Registry::global().counter("engine.queries").add(1);
  }

  const auto problems = mapping.validate(*infrastructure_, &composite);
  if (!problems.empty()) {
    throw ModelError("PerspectiveEngine: invalid mapping for '" +
                     composite.name() + "': " + util::join(problems, "; "));
  }

  util::Stopwatch watch;
  core::StepTimings timings;

  // Step 7 through the cache.  Everything read here — graph_, the
  // infrastructure, cached sets — is immutable under the shared lock.
  const std::vector<mapping::ServiceMappingPair> pairs =
      mapping.pairs_for(composite);
  const std::uint64_t epoch = epoch_.load(std::memory_order_relaxed);
  const bool overlay_active = !down_.empty();
  std::vector<std::shared_ptr<const pathdisc::PathSet>> sets(pairs.size());
  std::set<std::string> dependency_elements;
  {
    obs::ScopedSpan span("engine.step7_discovery", "engine");
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const PathQueryKey key{graph_.vertex_by_name(pairs[i].requester),
                             graph_.vertex_by_name(pairs[i].provider),
                             options_.discovery, epoch};
      bool missed = false;
      const auto baseline = cache_.get_or_compute(
          key,
          [&] {
            return csr_.discover(key.source, key.target, options_.discovery);
          },
          &missed);
      if (missed || info != nullptr) {
        std::set<std::string> pair_elements;
        collect_dependency_elements_locked(*baseline, pair_elements);
        if (missed) {
          rindex_.add(key, {pair_elements.begin(), pair_elements.end()});
        }
        if (info != nullptr) {
          dependency_elements.insert(pair_elements.begin(),
                                     pair_elements.end());
        }
      }
      if (baseline->empty()) {
        throw ModelError("PerspectiveEngine: no path between requester '" +
                         pairs[i].requester + "' and provider '" +
                         pairs[i].provider + "' of atomic service '" +
                         pairs[i].atomic_service + "'");
      }
      sets[i] = overlay_active ? filter_down_locked(baseline) : baseline;
      if (sets[i]->empty()) {
        throw ModelError("PerspectiveEngine: no operational path between "
                         "requester '" +
                         pairs[i].requester + "' and provider '" +
                         pairs[i].provider + "' of atomic service '" +
                         pairs[i].atomic_service + "': all " +
                         std::to_string(baseline->paths.size()) +
                         " discovered paths traverse failed elements");
      }
    }
  }
  if (info != nullptr) {
    info->elements.assign(dependency_elements.begin(),
                          dependency_elements.end());
  }
  timings.discovery_ms = watch.lap_millis();

  // Step 8.  The generator merges in load_paths order == lexicographic
  // pair-key order, which differs from execution order once a run has ten
  // or more pairs ("pair10_*" sorts before "pair2_*").
  auto [upsim, upsim_graph, named_paths] = [&] {
    obs::ScopedSpan span("engine.step8_merge_emit", "engine");
    std::vector<std::vector<std::vector<std::string>>> named(pairs.size());
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      named[i].reserve(sets[i]->paths.size());
      for (const auto& path : sets[i]->paths) {
        named[i].push_back(pathdisc::path_names(graph_, path));
      }
    }
    std::vector<std::size_t> order(pairs.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return pair_key(a, pairs[a]) < pair_key(b, pairs[b]);
    });
    std::unordered_set<std::string> seen;
    std::vector<std::string> kept;
    for (const std::size_t i : order) {
      for (const auto& path : named[i]) {
        for (const std::string& name : path) {
          if (seen.insert(name).second) kept.push_back(name);
        }
      }
    }
    uml::ObjectModel emitted =
        transform::emit_upsim(*infrastructure_, perspective_name, kept);
    graph::Graph projected = transform::project(emitted, options_.projection);
    if (!overrides_.empty()) patch_overrides_locked(projected);
    return std::tuple{std::move(emitted), std::move(projected),
                      std::move(named)};
  }();
  timings.merge_emit_ms = watch.lap_millis();

  // The only serialized section: insert the run into the model space the
  // way UpsimGenerator's Steps 6/7 would (replacing any previous run of
  // this perspective name).
  if (options_.record_in_space) {
    obs::ScopedSpan span("engine.record_run", "engine");
    std::lock_guard space_lock(space_mutex_);
    transform::remove_mapping(space_, perspective_name);
    transform::clear_paths(space_, perspective_name);
    transform::import_mapping(space_, perspective_name, mapping,
                              *infrastructure_);
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      transform::store_paths(space_, perspective_name, pair_key(i, pairs[i]),
                             graph_, *sets[i], *infrastructure_);
    }
  }
  timings.import_mapping_ms = watch.lap_millis();

  core::UpsimResult result{std::move(upsim),
                           std::move(upsim_graph),
                           pairs,
                           {},
                           std::move(named_paths),
                           timings};
  result.path_sets.reserve(sets.size());
  for (const auto& set : sets) result.path_sets.push_back(*set);
  return result;
}

std::vector<core::UpsimResult> PerspectiveEngine::query_batch(
    const service::CompositeService& composite,
    const std::vector<mapping::ServiceMapping>& mappings,
    std::string_view name_prefix) {
  obs::ScopedSpan span("engine.query_batch", "engine");
  std::vector<std::optional<core::UpsimResult>> slots(mappings.size());
  pool_->parallel_for(mappings.size(), [&](std::size_t i) {
    slots[i] = query(composite, mappings[i],
                     std::string(name_prefix) + std::to_string(i));
  });
  std::vector<core::UpsimResult> out;
  out.reserve(slots.size());
  for (auto& slot : slots) out.push_back(std::move(*slot));
  return out;
}

core::AvailabilityReport PerspectiveEngine::query_availability(
    const service::CompositeService& composite,
    const mapping::ServiceMapping& mapping, std::string perspective_name,
    const core::AnalysisOptions& analysis) {
  const core::UpsimResult result =
      query(composite, mapping, std::move(perspective_name));
  obs::ScopedSpan span("engine.availability", "engine");
  return core::analyze_availability(result, analysis);
}

void PerspectiveEngine::notify_topology_changed() {
  with_topology_write(nullptr);
}

void PerspectiveEngine::with_topology_write(
    const std::function<void()>& mutate) {
  std::unique_lock model_lock(model_mutex_);
  if (mutate) mutate();
  rebuild_locked(/*bump_epoch=*/true);
}

void PerspectiveEngine::notify_properties_changed() {
  std::unique_lock model_lock(model_mutex_);
  obs::ScopedSpan span("engine.reproject", "engine");
  // The model-space image stores structure only; property values flow in
  // at projection time from the class model.  So this class re-projects
  // without re-importing — recorded runs, cache and epoch all survive
  // (vertex ids are stable because the structure did not change).
  graph_ = transform::project_from_space(space_, *infrastructure_,
                                         options_.projection);
  patch_overrides_locked(graph_);
}

void PerspectiveEngine::notify_mapping_changed(
    std::string_view perspective_name) {
  std::shared_lock model_lock(model_mutex_);
  std::lock_guard space_lock(space_mutex_);
  transform::remove_mapping(space_, perspective_name);
  transform::clear_paths(space_, perspective_name);
}

InvalidationReport PerspectiveEngine::set_element_state(
    const std::vector<std::string>& elements, bool up) {
  std::unique_lock model_lock(model_mutex_);
  require_elements_locked(elements);
  InvalidationReport report;
  std::vector<std::string> toggled;
  for (const std::string& element : elements) {
    const bool changed =
        up ? down_.erase(element) > 0 : down_.insert(element).second;
    if (changed) toggled.push_back(element);
  }
  // Baseline discoveries stay valid across fail AND repair (queries filter
  // at serve time), so nothing is evicted; the index names the pairs whose
  // served answers just changed.
  report.affected_keys = rindex_.lookup(toggled).size();
  note_event_locked(report);
  return report;
}

bool PerspectiveEngine::element_down(std::string_view name) const {
  std::shared_lock model_lock(model_mutex_);
  return down_.contains(std::string(name));
}

std::vector<std::string> PerspectiveEngine::down_elements() const {
  std::shared_lock model_lock(model_mutex_);
  std::vector<std::string> out(down_.begin(), down_.end());
  std::sort(out.begin(), out.end());
  return out;
}

InvalidationReport PerspectiveEngine::set_property_override(
    const std::string& element, const std::string& attribute, double value) {
  std::unique_lock model_lock(model_mutex_);
  require_elements_locked({element});
  overrides_[element][attribute] = value;
  // Patch the live graph in place; emitted UPSIM graphs are patched per
  // query, and re-projections re-apply the override map.
  if (const auto v = graph_.find_vertex(element)) {
    graph_.vertex(*v).attributes[attribute] = value;
  } else if (const auto e = graph_.find_edge(element)) {
    graph_.edge(*e).attributes[attribute] = value;
  }
  InvalidationReport report;
  report.affected_keys = rindex_.lookup({element}).size();
  note_event_locked(report);
  return report;
}

InvalidationReport PerspectiveEngine::notify_topology_changed(
    const std::vector<std::string>& affected) {
  return with_topology_write(nullptr, affected);
}

InvalidationReport PerspectiveEngine::with_topology_write(
    const std::function<void()>& mutate,
    const std::vector<std::string>& affected) {
  std::unique_lock model_lock(model_mutex_);
  if (mutate) mutate();
  rebuild_locked(/*bump_epoch=*/false);
  // The epoch holds, so surviving keys keep hitting; only the keys routed
  // through the affected elements are retired (and will re-register on
  // their next discovery).  Sound for non-additive changes only — see the
  // class contract.
  InvalidationReport report;
  const std::vector<PathQueryKey> keys = rindex_.take(affected);
  report.affected_keys = keys.size();
  report.evicted_keys = cache_.evict_keys(keys);
  note_event_locked(report);
  return report;
}

InvalidationReport PerspectiveEngine::notify_properties_changed(
    const std::vector<std::string>& affected) {
  std::unique_lock model_lock(model_mutex_);
  obs::ScopedSpan span("engine.reproject", "engine");
  graph_ = transform::project_from_space(space_, *infrastructure_,
                                         options_.projection);
  patch_overrides_locked(graph_);
  InvalidationReport report;
  report.affected_keys = rindex_.lookup(affected).size();
  note_event_locked(report);
  return report;
}

InvalidationStats PerspectiveEngine::invalidation_stats() const {
  InvalidationStats stats;
  stats.events = inv_events_.load(std::memory_order_relaxed);
  stats.affected_keys = inv_affected_.load(std::memory_order_relaxed);
  stats.evicted_keys = inv_evicted_.load(std::memory_order_relaxed);
  stats.full_flushes = inv_full_flushes_.load(std::memory_order_relaxed);
  stats.index_elements = rindex_.element_count();
  stats.index_links = rindex_.link_count();
  std::shared_lock model_lock(model_mutex_);
  stats.down_elements = down_.size();
  stats.property_overrides = overrides_.size();
  return stats;
}

}  // namespace upsim::engine
