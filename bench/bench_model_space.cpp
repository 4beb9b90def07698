// Supporting micro-bench — the VPM model space that the importers and the
// path-storage step run on (Sec. V-C).
#include <benchmark/benchmark.h>

#include "netgen/generators.hpp"
#include "transform/uml_importer.hpp"
#include "vpm/model_space.hpp"

namespace {

using namespace upsim;

void BM_EntityCreation(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    vpm::ModelSpace space;
    const auto ns = space.ensure_path("models.net");
    for (std::size_t i = 0; i < n; ++i) {
      space.create_entity(ns, "e" + std::to_string(i));
    }
    benchmark::DoNotOptimize(space.entity_count());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EntityCreation)->Arg(100)->Arg(1000)->Arg(10000);

void BM_FqnLookup(benchmark::State& state) {
  vpm::ModelSpace space;
  const auto ns = space.ensure_path("models.net.instances");
  const auto n = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < n; ++i) {
    space.create_entity(ns, "e" + std::to_string(i));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    auto e = space.find("models.net.instances.e" + std::to_string(i % n));
    benchmark::DoNotOptimize(e);
    ++i;
  }
}
BENCHMARK(BM_FqnLookup)->Arg(100)->Arg(10000);

void BM_UmlImport(benchmark::State& state) {
  netgen::CampusSpec spec;
  spec.distribution = static_cast<std::size_t>(state.range(0));
  const auto net = netgen::uml_campus(spec);
  for (auto _ : state) {
    vpm::ModelSpace space;
    transform::import_class_model(space, net.infrastructure->class_model());
    transform::import_object_model(space, *net.infrastructure);
    benchmark::DoNotOptimize(space.entity_count());
  }
  state.counters["components"] =
      static_cast<double>(net.infrastructure->instance_count());
}
BENCHMARK(BM_UmlImport)->Arg(2)->Arg(8)->Arg(32)->Arg(128);

void BM_SubtreeDelete(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    vpm::ModelSpace space;
    const auto ns = space.ensure_path("paths.run");
    for (std::size_t i = 0; i < n; ++i) {
      const auto p = space.create_entity(ns, "p" + std::to_string(i));
      space.create_entity(p, "hop0");
    }
    state.ResumeTiming();
    space.delete_entity(space.get("paths.run"));
    benchmark::DoNotOptimize(space.entity_count());
  }
}
BENCHMARK(BM_SubtreeDelete)->Arg(100)->Arg(1000);

}  // namespace
