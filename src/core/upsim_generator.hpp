// The UPSIM generation methodology (Sec. V-B, Fig. 4) — the paper's core
// contribution, end to end:
//
//   Step 1-3 (manual in the paper): the caller supplies the class model,
//            the infrastructure object diagram and the composite service.
//   Step 4:  the caller supplies the service mapping (XML or in-memory).
//   Step 5:  the constructor imports the UML models into the VPM model
//            space with the native importer (src/transform).
//   Step 6:  generate() imports the service mapping with the custom
//            mapping importer.
//   Step 7:  generate() discovers all paths between every pair's requester
//            and provider on the graph projection (src/pathdisc) and stores
//            them in the model space.
//   Step 8:  generate() merges the paths and emits the UPSIM as a fresh
//            UML object diagram whose instances keep their classifiers —
//            and therefore all dependability properties.
//
// The generator is reusable: one import of the infrastructure serves any
// number of perspectives (different mappings), which is exactly the
// dynamicity argument of Sec. V-A3 — bench_dynamicity quantifies it.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "mapping/mapping.hpp"
#include "pathdisc/path_discovery.hpp"
#include "service/service.hpp"
#include "transform/projection.hpp"
#include "uml/object_model.hpp"
#include "util/thread_pool.hpp"
#include "vpm/model_space.hpp"

namespace upsim::core {

struct GeneratorOptions {
  pathdisc::Options discovery;
  transform::ProjectionOptions projection;
  /// Optional pool for parallel per-pair discovery (Step 7).
  util::ThreadPool* pool = nullptr;
};

/// Per-step wall-clock timings of one generate() call, milliseconds.
struct StepTimings {
  double import_mapping_ms = 0.0;  ///< Step 6
  double discovery_ms = 0.0;       ///< Step 7
  double merge_emit_ms = 0.0;      ///< Step 8
  [[nodiscard]] double total_ms() const noexcept {
    return import_mapping_ms + discovery_ms + merge_emit_ms;
  }
};

/// The result of generating one user-perceived service infrastructure
/// model.
struct UpsimResult {
  /// The UPSIM object diagram (instances share the input class model).
  uml::ObjectModel upsim;
  /// Graph projection of the UPSIM (for downstream dependability analysis).
  graph::Graph upsim_graph;
  /// Pairs in composite-service execution order.
  std::vector<mapping::ServiceMappingPair> pairs;
  /// Discovered path set per pair, same order as `pairs`.  Vertex ids in
  /// these sets refer to the *infrastructure* graph owned by the generator.
  std::vector<pathdisc::PathSet> path_sets;
  /// Paths per pair as instance-name sequences (same indexing as
  /// `path_sets`); self-contained for reporting.
  std::vector<std::vector<std::vector<std::string>>> named_paths;
  StepTimings timings;

  /// Paths of pair `i` as instance-name sequences.
  [[nodiscard]] const std::vector<std::vector<std::string>>& path_names(
      std::size_t i) const;
  /// Total number of discovered paths across all pairs.
  [[nodiscard]] std::size_t total_paths() const noexcept;
  /// Terminal pairs as vertex ids of `upsim_graph` (for reliability).
  [[nodiscard]] std::vector<std::pair<graph::VertexId, graph::VertexId>>
  terminal_pairs() const;
};

class UpsimGenerator {
 public:
  /// Imports `infrastructure` (Step 5) and keeps a graph projection for
  /// path discovery.  The infrastructure, its class model and the options
  /// pool must outlive the generator.
  UpsimGenerator(const uml::ObjectModel& infrastructure,
                 GeneratorOptions options = {});

  UpsimGenerator(const UpsimGenerator&) = delete;
  UpsimGenerator& operator=(const UpsimGenerator&) = delete;

  /// Runs Steps 6-8 for one composite service and mapping.  `upsim_name`
  /// names the emitted object diagram; it doubles as the model-space run
  /// key, so repeated generation under the same name replaces the previous
  /// run's mapping and paths (the mapping-only update path).
  [[nodiscard]] UpsimResult generate(
      const service::CompositeService& composite,
      const mapping::ServiceMapping& mapping, std::string upsim_name);

  /// Generates one UPSIM per mapping (e.g. one per user position); results
  /// are in input order.  Discovery inside each run uses the configured
  /// pool; the runs themselves are sequential because they share the model
  /// space.
  [[nodiscard]] std::vector<UpsimResult> generate_batch(
      const service::CompositeService& composite,
      const std::vector<mapping::ServiceMapping>& mappings,
      std::string_view name_prefix);

  [[nodiscard]] const vpm::ModelSpace& space() const noexcept {
    return space_;
  }
  [[nodiscard]] const graph::Graph& infrastructure_graph() const noexcept {
    return graph_;
  }
  [[nodiscard]] const uml::ObjectModel& infrastructure() const noexcept {
    return *infrastructure_;
  }

 private:
  const uml::ObjectModel* infrastructure_;
  GeneratorOptions options_;
  vpm::ModelSpace space_;
  graph::Graph graph_;
};

}  // namespace upsim::core
