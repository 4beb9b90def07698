// User-perceived service dependability analysis on a generated UPSIM
// (Sec. VII of the paper and its companion transformation to RBDs [20]).
//
// Given an UpsimResult, this computes the steady-state availability of the
// composite service as perceived by the requester: the probability that,
// with every component failing independently at its MTBF/MTTR-derived
// unavailability, every atomic service's requester can still reach its
// provider.  Several estimators of different fidelity are reported side by
// side; E6 in EXPERIMENTS.md tabulates them:
//
//   exact            — factoring over the UPSIM, correlation-aware across
//                      atomic services (the reference value)
//   independent_pairs— product of per-pair exact availabilities (treats
//                      atomic services as independent; upper-bounds exact)
//   rbd              — the [20] transformation: per pair a parallel-of-
//                      series RBD over paths (blocks repeated across paths
//                      treated as independent, which over-estimates
//                      availability — redundant paths share core switches),
//                      multiplied across pairs
//   exact_linear     — exact structure but component availabilities from
//                      the paper's linearised Formula 1
//   monte_carlo      — simulation cross-check
#pragma once

#include <cstdint>

#include "core/upsim_generator.hpp"
#include "depend/reliability.hpp"

namespace upsim::core {

struct AnalysisOptions {
  /// Samples for the Monte-Carlo cross-check; 0 disables it.
  std::size_t monte_carlo_samples = 200000;
  std::uint64_t monte_carlo_seed = 42;
  util::ThreadPool* pool = nullptr;
  depend::ExactOptions exact;
};

struct AvailabilityReport {
  double exact = 0.0;
  double independent_pairs = 0.0;
  double rbd = 0.0;
  double exact_linear = 0.0;
  depend::MonteCarloResult monte_carlo;  ///< samples == 0 when disabled
  /// Exact availability of each atomic service's pair alone, in the
  /// composite's execution order.
  std::vector<double> per_pair_exact;
};

/// Runs the full analysis on `result.upsim_graph`.  Every vertex and edge
/// must carry mtbf/mttr attributes (ensured by the default projection).
[[nodiscard]] AvailabilityReport analyze_availability(
    const UpsimResult& result, const AnalysisOptions& options = {});

/// Availability of a single component from its graph attributes, exposed
/// for reports (exact formula unless `linear`).
[[nodiscard]] double component_availability(const graph::AttributeMap& attrs,
                                            bool linear = false);

}  // namespace upsim::core
