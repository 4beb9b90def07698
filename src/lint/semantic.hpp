// The semantic analysis pass: quantitative, graph-theoretic checks over a
// loaded bundle (UPS1xx) plus scenario-trace lint (UPS2xx).
//
// Where the syntactic analyzer (analyzer.hpp) asks "is this model
// well-formed?", this second layer asks "will the well-formed model behave
// the way its author thinks?".  It projects the infrastructure to the same
// graph the pipeline runs on and computes:
//
//   UPS100  single points of failure — articulation points (from
//           pathdisc::connectivity's biconnected machinery) that lie on
//           every requester->provider path of some mapped pair
//   UPS101  bridge links, same criterion on edges
//   UPS102  minimum link cut between a mapped pair at or below a
//           redundancy threshold (unit-capacity max-flow / Menger)
//   UPS103  structural availability upper bound below a configured SLO:
//           the product over the pair's series cut-set (endpoints,
//           separating articulation points, separating bridges) bounds
//           every path's availability from above, whatever the paths are
//   UPS104  predicted path-count explosion: the discovery kernel run with
//           a counting sink (pathdisc/forecast.hpp) warns when a query
//           under the configured limits *would* truncate, before it runs
//
// and over an optional scenario trace (PR 7's reader):
//
//   UPS200  events referencing unknown components/links
//   UPS201  fail-while-down / repair-while-up sequences
//   UPS202  non-monotonic timestamps
//   UPS203  migrations to targets outside the mapped infrastructure
//
// With no mappings the pass runs in *infrastructure mode* (the registry
// upload gate's shape): UPS100/UPS101 report articulation points and
// bridges globally, the pair-scoped and trace rules are skipped.
//
// Like the syntactic pass the analysis is read-only and deterministic; the
// graph algorithms are near-linear (one Tarjan DFS, a BFS per
// articulation-point/pair combination, an early-exit max-flow per pair), so
// the registry can afford it on every upload.  UPS104 alone costs up to one
// discovery-shaped walk per pair — bounded by the very limits it checks.
#pragma once

#include <string>
#include <vector>

#include "lint/analyzer.hpp"
#include "lint/diagnostics.hpp"
#include "pathdisc/path_discovery.hpp"
#include "scenario/event.hpp"

namespace upsim::lint {

struct SemanticOptions {
  /// Availability SLO for UPS103, within (0, 1); 0 disables the rule.
  double availability_slo = 0.0;
  /// UPS102 fires when the minimum link cut of a pair is <= this; 0
  /// disables the rule.  The default flags pairs a single link failure
  /// can sever.
  std::size_t min_cut_threshold = 1;
  /// Discovery limits UPS104 forecasts against.  The default (both limits
  /// unbounded) disables the rule — an unbounded query never truncates.
  pathdisc::Options discovery;
  /// Stereotype attribute names of the availability profile; must match
  /// the projection options the pipeline will run with.
  std::string mtbf_attribute = "MTBF";
  std::string mttr_attribute = "MTTR";
};

/// Everything one semantic run looks at.  Null members disable the rules
/// that need them: no objects -> nothing to analyse; no mappings ->
/// infrastructure mode; no trace -> no UPS2xx.
struct SemanticInput {
  const uml::ObjectModel* objects = nullptr;
  std::vector<MappingInput> mappings;

  /// Scenario trace to lint (UPS2xx); null = skip.
  const std::vector<scenario::Event>* trace = nullptr;
  /// Artifact the trace came from ("" = in-memory).  Trace diagnostics
  /// use the 1-based event ordinal as the line number.
  std::string trace_file;

  /// Artifact the bundle came from ("" = in-memory).
  std::string bundle_file;
  const umlio::BundleLocations* bundle_locations = nullptr;
};

class SemanticAnalyzer {
 public:
  explicit SemanticAnalyzer(SemanticOptions options = {});

  /// Runs every applicable rule and returns the deterministic-ordered
  /// report.  Never throws on model content; a bundle that fails the
  /// syntactic pass simply produces fewer semantic findings (dangling
  /// references are skipped, not re-reported).
  [[nodiscard]] Report analyze(const SemanticInput& input) const;

 private:
  SemanticOptions options_;
};

/// Convenience: one-shot run, the upsim_cli --check --semantic shape.
[[nodiscard]] Report analyze_semantic(const SemanticInput& input,
                                      const SemanticOptions& options = {});

}  // namespace upsim::lint
