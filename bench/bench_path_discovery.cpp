// E8 — scalability of all-paths discovery (Sec. V-D of the paper).
//
// Expected shapes:
//   * trees/campus: near-linear in vertex count (one or few paths);
//   * Erdős–Rényi: cost grows with edge density;
//   * complete graphs: factorial blow-up — the O(n!) worst case the paper
//     names; n is capped accordingly;
//   * serial vs thread-pool multi-pair: parallel wins once pairs >> cores;
//   * the kernel on a prebuilt CsrView (BM_DiscoverTreeCsr /
//     BM_DiscoverCampusCsr) on topologies from ~10^2 to ~10^5 components,
//     plus the one-off projection cost (BM_CsrProjection) the engine pays
//     per structural epoch.  BM_Tree and BM_Campus time the graph entry
//     point, which projects and then runs the same kernel.
#include <benchmark/benchmark.h>

#include "netgen/generators.hpp"
#include "pathdisc/csr.hpp"
#include "pathdisc/path_discovery.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace upsim;
using graph::VertexId;

void BM_Tree(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto g = netgen::tree(n, 2);
  const VertexId s{static_cast<std::uint32_t>(n / 2)};
  const VertexId t{static_cast<std::uint32_t>(n - 1)};
  for (auto _ : state) {
    auto set = pathdisc::discover(g, s, t);
    benchmark::DoNotOptimize(set);
  }
  state.counters["vertices"] = static_cast<double>(n);
}
BENCHMARK(BM_Tree)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_Campus(benchmark::State& state) {
  netgen::CampusSpec spec;
  spec.distribution = static_cast<std::size_t>(state.range(0));
  const auto g = netgen::campus(spec);
  const auto endpoints = netgen::campus_endpoints(spec);
  const VertexId s = g.vertex_by_name(endpoints.client);
  const VertexId t = g.vertex_by_name(endpoints.server);
  std::size_t paths = 0;
  for (auto _ : state) {
    auto set = pathdisc::discover(g, s, t);
    paths = set.count();
    benchmark::DoNotOptimize(set);
  }
  state.counters["vertices"] = static_cast<double>(g.vertex_count());
  state.counters["paths"] = static_cast<double>(paths);
}
BENCHMARK(BM_Campus)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_ErdosRenyiDensity(benchmark::State& state) {
  const double p = static_cast<double>(state.range(0)) / 100.0;
  const auto g = netgen::erdos_renyi(12, p, 7);
  std::size_t paths = 0;
  for (auto _ : state) {
    auto set = pathdisc::discover(g, VertexId{0}, VertexId{11});
    paths = set.count();
    benchmark::DoNotOptimize(set);
  }
  state.counters["density_pct"] = static_cast<double>(state.range(0));
  state.counters["edges"] = static_cast<double>(g.edge_count());
  state.counters["paths"] = static_cast<double>(paths);
}
BENCHMARK(BM_ErdosRenyiDensity)->Arg(0)->Arg(10)->Arg(25)->Arg(50);

void BM_CompleteGraph(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto g = netgen::complete(n);
  std::size_t paths = 0;
  for (auto _ : state) {
    auto set = pathdisc::discover(
        g, VertexId{0}, VertexId{static_cast<std::uint32_t>(n - 1)});
    paths = set.count();
    benchmark::DoNotOptimize(set);
  }
  state.counters["paths"] = static_cast<double>(paths);  // ~ (n-2)! * e
}
BENCHMARK(BM_CompleteGraph)->DenseRange(4, 11);

void BM_FatTree(benchmark::State& state) {
  // Data-center redundancy: inter-pod host pairs in a k-ary fat tree.
  const auto k = static_cast<std::size_t>(state.range(0));
  const auto g = netgen::fat_tree(k);
  const VertexId s = g.vertex_by_name("h0");
  const VertexId t =
      g.vertex_by_name("h" + std::to_string(k * k * k / 4 - 1));
  std::size_t paths = 0;
  for (auto _ : state) {
    auto set = pathdisc::discover(g, s, t);
    paths = set.count();
    benchmark::DoNotOptimize(set);
  }
  state.counters["vertices"] = static_cast<double>(g.vertex_count());
  state.counters["paths"] = static_cast<double>(paths);
}
BENCHMARK(BM_FatTree)->Arg(2)->Arg(4);

void BM_MultiPair(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  netgen::CampusSpec spec;
  spec.distribution = 16;
  spec.clients_per_edge = 4;
  const auto g = netgen::campus(spec);
  std::vector<std::pair<VertexId, VertexId>> pairs;
  const VertexId server = g.vertex_by_name("srv0");
  for (std::uint32_t i = 0; i < 64; ++i) {
    pairs.emplace_back(g.vertex_by_name("t" + std::to_string(i)), server);
  }
  std::unique_ptr<util::ThreadPool> pool;
  if (threads > 0) pool = std::make_unique<util::ThreadPool>(threads);
  for (auto _ : state) {
    auto sets = pathdisc::discover_all(g, pairs, {}, pool.get());
    benchmark::DoNotOptimize(sets);
  }
  state.SetLabel(threads == 0 ? "serial" : std::to_string(threads) + "T");
  state.counters["pairs"] = static_cast<double>(pairs.size());
}
BENCHMARK(BM_MultiPair)->Arg(0)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

// -- the kernel on a prebuilt CsrView ----------------------------------------
//
// Tree sizes step decades from 10^2 to 10^5 vertices.  Campus sizes step
// component counts the same way via the distribution-switch count
// (components ~= 9*D + 6); the largest rung drops redundant uplinks because
// the redundant all-paths walk is quadratic in D, which would swamp the
// rest of the sweep.

void BM_DiscoverTreeCsr(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto g = netgen::tree(n, 2);
  const pathdisc::CsrView view(g);
  const VertexId s{static_cast<std::uint32_t>(n / 2)};
  const VertexId t{static_cast<std::uint32_t>(n - 1)};
  for (auto _ : state) {
    auto set = view.discover(s, t);
    benchmark::DoNotOptimize(set);
  }
  state.counters["vertices"] = static_cast<double>(n);
}
BENCHMARK(BM_DiscoverTreeCsr)
    ->Arg(100)->Arg(1000)->Arg(10000)->Arg(100000);

netgen::CampusSpec scaled_campus(std::int64_t distribution) {
  netgen::CampusSpec spec;
  spec.distribution = static_cast<std::size_t>(distribution);
  spec.redundant_uplinks = distribution <= 1110;
  return spec;
}

void BM_DiscoverCampusCsr(benchmark::State& state) {
  const auto spec = scaled_campus(state.range(0));
  const auto g = netgen::campus(spec);
  const pathdisc::CsrView view(g);
  const auto endpoints = netgen::campus_endpoints(spec);
  const VertexId s = g.vertex_by_name(endpoints.client);
  const VertexId t = g.vertex_by_name(endpoints.server);
  std::size_t paths = 0;
  for (auto _ : state) {
    auto set = view.discover(s, t);
    paths = set.count();
    benchmark::DoNotOptimize(set);
  }
  state.counters["vertices"] = static_cast<double>(g.vertex_count());
  state.counters["paths"] = static_cast<double>(paths);
}
BENCHMARK(BM_DiscoverCampusCsr)
    ->Arg(10)->Arg(110)->Arg(1110)->Arg(11110)->Unit(benchmark::kMicrosecond);

void BM_CsrProjection(benchmark::State& state) {
  // What the engine pays once per structural epoch to enable the flat
  // kernel for every discovery until the next topology change.
  const auto spec = scaled_campus(state.range(0));
  const auto g = netgen::campus(spec);
  for (auto _ : state) {
    pathdisc::CsrView view(g);
    benchmark::DoNotOptimize(view);
  }
  state.counters["vertices"] = static_cast<double>(g.vertex_count());
  state.counters["edges"] = static_cast<double>(g.edge_count());
}
BENCHMARK(BM_CsrProjection)
    ->Arg(10)->Arg(110)->Arg(1110)->Arg(11110)->Unit(benchmark::kMicrosecond);

void BM_BoundedLength(benchmark::State& state) {
  // k-hop bounded discovery keeps dense cores tractable.
  const auto g = netgen::complete(12);
  pathdisc::Options options;
  options.max_path_length = static_cast<std::size_t>(state.range(0));
  std::size_t paths = 0;
  for (auto _ : state) {
    auto set = pathdisc::discover(g, VertexId{0}, VertexId{11}, options);
    paths = set.count();
    benchmark::DoNotOptimize(set);
  }
  state.counters["paths"] = static_cast<double>(paths);
}
BENCHMARK(BM_BoundedLength)->Arg(3)->Arg(4)->Arg(5)->Arg(6);

}  // namespace
