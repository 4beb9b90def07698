#include "core/analysis.hpp"

#include "core/rbd_builder.hpp"
#include "depend/availability.hpp"
#include "depend/reduction.hpp"
#include "util/error.hpp"

namespace upsim::core {

double component_availability(const graph::AttributeMap& attrs, bool linear) {
  const auto mtbf = attrs.find("mtbf");
  const auto mttr = attrs.find("mttr");
  if (mtbf == attrs.end() || mttr == attrs.end()) {
    throw NotFoundError("component lacks mtbf/mttr attributes");
  }
  double a = linear ? depend::availability_linear(mtbf->second, mttr->second)
                    : depend::availability_exact(mtbf->second, mttr->second);
  const auto redundant = attrs.find("redundant");
  if (redundant != attrs.end()) {
    a = depend::availability_redundant(a, static_cast<int>(redundant->second));
  }
  return a;
}

AvailabilityReport analyze_availability(const UpsimResult& result,
                                        const AnalysisOptions& options) {
  const graph::Graph& g = result.upsim_graph;
  const auto terminal_pairs = result.terminal_pairs();

  const auto problem =
      depend::ReliabilityProblem::from_attributes(g, terminal_pairs, false);
  const auto problem_linear =
      depend::ReliabilityProblem::from_attributes(g, terminal_pairs, true);

  // The exact values run after series-parallel reduction: the same values
  // as the raw factoring, orders of magnitude faster on access networks
  // (see depend/reduction.hpp).
  const auto evaluate = [&](const depend::ReliabilityProblem& p) {
    return depend::exact_availability_reduced(p, options.exact);
  };

  AvailabilityReport report;
  report.exact = evaluate(problem);
  report.exact_linear = evaluate(problem_linear);

  report.per_pair_exact.reserve(terminal_pairs.size());
  double rbd_product = 1.0;
  double independent_product = 1.0;
  for (std::size_t i = 0; i < terminal_pairs.size(); ++i) {
    depend::ReliabilityProblem single = problem;
    single.terminal_pairs = {terminal_pairs[i]};
    report.per_pair_exact.push_back(evaluate(single));
    independent_product *= report.per_pair_exact.back();
    rbd_product *= build_pair_models(result, i).rbd->availability();
  }
  report.independent_pairs = independent_product;
  report.rbd = rbd_product;

  if (options.monte_carlo_samples > 0) {
    report.monte_carlo = depend::monte_carlo_availability(
        problem, options.monte_carlo_samples, options.monte_carlo_seed,
        options.pool);
  }
  return report;
}

}  // namespace upsim::core
