// E8 — full 8-step pipeline cost versus topology size, split by step.
//
// Expected shapes: the one-time import (Step 5, generator construction)
// scales with model size; per-perspective generation (Steps 6-8) is
// dominated by path discovery and stays cheap on tree-like networks.
#include <benchmark/benchmark.h>

#include "core/upsim_generator.hpp"
#include "netgen/generators.hpp"
#include "pathdisc/path_discovery.hpp"
#include "transform/projection.hpp"
#include "transform/space_discovery.hpp"
#include "transform/uml_importer.hpp"

namespace {

using namespace upsim;

netgen::CampusSpec spec_for(std::int64_t distribution) {
  netgen::CampusSpec spec;
  spec.distribution = static_cast<std::size_t>(distribution);
  spec.edge_per_distribution = 2;
  spec.clients_per_edge = 3;
  return spec;
}

struct EchoService {
  service::ServiceCatalog services;
  const service::CompositeService* svc;
  mapping::ServiceMapping mapping;

  EchoService() {
    services.define_atomic("request");
    services.define_atomic("respond");
    svc = &services.define_sequence("echo", {"request", "respond"});
    mapping.map("request", "t0", "srv0");
    mapping.map("respond", "srv0", "t0");
  }
};

void BM_Step5_Import(benchmark::State& state) {
  const auto net = netgen::uml_campus(spec_for(state.range(0)));
  for (auto _ : state) {
    core::UpsimGenerator generator(*net.infrastructure);
    benchmark::DoNotOptimize(generator.space().entity_count());
  }
  state.counters["components"] =
      static_cast<double>(net.infrastructure->instance_count());
}
BENCHMARK(BM_Step5_Import)->Arg(2)->Arg(8)->Arg(32)->Arg(128);

void BM_Steps6to8_Generate(benchmark::State& state) {
  const auto net = netgen::uml_campus(spec_for(state.range(0)));
  EchoService echo;
  core::UpsimGenerator generator(*net.infrastructure);
  for (auto _ : state) {
    auto result = generator.generate(*echo.svc, echo.mapping, "run");
    benchmark::DoNotOptimize(result);
  }
  state.counters["components"] =
      static_cast<double>(net.infrastructure->instance_count());
}
BENCHMARK(BM_Steps6to8_Generate)->Arg(2)->Arg(8)->Arg(32)->Arg(128);

void BM_EndToEnd(benchmark::State& state) {
  // Model construction + import + generation: what a cold start costs.
  EchoService echo;
  for (auto _ : state) {
    const auto net = netgen::uml_campus(spec_for(state.range(0)));
    core::UpsimGenerator generator(*net.infrastructure);
    auto result = generator.generate(*echo.svc, echo.mapping, "run");
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_EndToEnd)->Arg(2)->Arg(8)->Arg(32);

void BM_FiveAtomicServices(benchmark::State& state) {
  // A printing-shaped composite (5 pairs) on a campus, versus the 2-pair
  // echo service: per-pair discovery dominates, so cost ~2.5x.
  const auto net = netgen::uml_campus(spec_for(state.range(0)));
  service::ServiceCatalog services;
  for (const char* atomic : {"a1", "a2", "a3", "a4", "a5"}) {
    services.define_atomic(atomic);
  }
  const auto& svc =
      services.define_sequence("printing_like", {"a1", "a2", "a3", "a4", "a5"});
  mapping::ServiceMapping m;
  m.map("a1", "t0", "srv0");
  m.map("a2", "t1", "srv0");
  m.map("a3", "srv0", "t1");
  m.map("a4", "t1", "srv0");
  m.map("a5", "srv0", "t1");
  core::UpsimGenerator generator(*net.infrastructure);
  for (auto _ : state) {
    auto result = generator.generate(svc, m, "run");
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_FiveAtomicServices)->Arg(2)->Arg(8)->Arg(32);

void BM_SpaceVsGraphDiscovery(benchmark::State& state) {
  // Ablation: path discovery on the graph projection (our optimisation)
  // versus interpreting the VPM model space directly (the paper's VTCL
  // design point).  Both return identical path lists (tested); the model
  // space pays for name-indexed children and relation filtering per hop.
  const bool use_space = state.range(0) == 1;
  const auto net = netgen::uml_campus(spec_for(8));
  vpm::ModelSpace space;
  transform::import_class_model(space, net.infrastructure->class_model());
  transform::import_object_model(space, *net.infrastructure);
  const graph::Graph g = transform::project(*net.infrastructure);
  const std::string ns = "models.campus.instances";
  std::size_t paths = 0;
  for (auto _ : state) {
    if (use_space) {
      auto result = transform::discover_in_space(space, ns, "t0", "srv0");
      paths = result.paths.size();
      benchmark::DoNotOptimize(result);
    } else {
      auto result = pathdisc::discover(g, "t0", "srv0");
      paths = result.count();
      benchmark::DoNotOptimize(result);
    }
  }
  state.SetLabel(use_space ? "model-space" : "graph-projection");
  state.counters["paths"] = static_cast<double>(paths);
}
BENCHMARK(BM_SpaceVsGraphDiscovery)->Arg(0)->Arg(1);

}  // namespace
