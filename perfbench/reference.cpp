#include "reference.hpp"

#include <fstream>
#include <iostream>
#include <set>

#include "core/analysis.hpp"
#include "server/protocol.hpp"
#include "util/error.hpp"

namespace perfbench {

using namespace upsim;

Reference::Reference(const Workload& workload) : model(workload.make_model()) {
  engine::EngineOptions options;
  options.threads = 1;
  options.record_in_space = false;
  engine = std::make_unique<engine::PerspectiveEngine>(model->infrastructure(),
                                                       options);
  registry::ModelRegistry::Options registry_options;
  registry_options.engine.pool = &engine->pool();
  registry = std::make_unique<registry::ModelRegistry>(registry_options);
  registry->adopt(*engine, model->services());

  const service::CompositeService& composite =
      model->services().get_composite(workload.composite);
  expected.reserve(workload.perspectives.size());
  for (std::size_t i = 0; i < workload.perspectives.size(); ++i) {
    const Perspective& p = workload.perspectives[i];
    const core::UpsimResult result =
        engine->query(composite, p.mapping, p.name);
    std::string body;
    if (workload.method == Method::Upsim) {
      body = server::upsim_result_json(result, /*paths_only=*/false);
    } else {
      core::AnalysisOptions analysis;
      analysis.monte_carlo_samples = 0;  // the wire default
      body = server::availability_json(
          core::analyze_availability(result, analysis), result);
    }
    expected.push_back(server::make_response(i + 1, body));
  }
}

namespace {

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("cannot read golden file '" + path + "'");
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

}  // namespace

CheckResult check_outputs(Stack& stack, const Workload& workload,
                          const Reference& reference,
                          const std::string& golden_path) {
  CheckResult out;
  for (std::size_t i = 0; i < workload.perspectives.size(); ++i) {
    std::string served;
    ++out.attempted;
    const bool ok =
        roundtrip(stack.clients[0], workload.perspectives[i].payload, &served);
    if (!ok || served != reference.expected[i]) {
      ++out.failed;
      std::cerr << "output check: " << workload.perspectives[i].name
                << " served " << served.size() << " bytes that differ from "
                << "the reference's " << reference.expected[i].size() << "\n";
    }
  }

  if (workload.usi_model) {
    ++out.attempted;
    const casestudy::UsiCaseStudy cs = casestudy::make_usi_case_study();
    const core::UpsimResult result = reference.engine->query(
        reference.model->services().get_composite(workload.composite),
        cs.mapping_t1_p2(), "golden_t1_p2");
    std::set<std::string> nodes;
    for (const auto* inst : result.upsim.instances()) {
      nodes.insert(inst->name());
    }
    const std::vector<std::string> golden = read_lines(golden_path);
    if (std::vector<std::string>(nodes.begin(), nodes.end()) != golden) {
      ++out.failed;
      std::cerr << "output check: t1 -> p2 UPSIM node set differs from "
                << golden_path << "\n";
    }
  }
  return out;
}

}  // namespace perfbench
