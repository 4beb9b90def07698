#include "pathdisc/path_discovery.hpp"

#include <algorithm>

#include "pathdisc/csr.hpp"
#include "util/error.hpp"

namespace upsim::pathdisc {

using graph::Graph;
using graph::VertexId;
using graph::index;

std::size_t hash_value(const Options& options) noexcept {
  // splitmix64-style mixing of each field into the running state; the odd
  // multipliers keep nearby values (max_paths 1 vs 2) far apart.
  auto mix = [](std::size_t state, std::size_t v) noexcept {
    state ^= v + 0x9E3779B97F4A7C15ULL + (state << 6) + (state >> 2);
    state *= 0xBF58476D1CE4E5B9ULL;
    return state ^ (state >> 31);
  };
  std::size_t h = 0x243F6A8885A308D3ULL;
  h = mix(h, options.max_path_length);
  h = mix(h, options.max_paths);
  return h;
}

std::size_t PathSet::shortest() const noexcept {
  std::size_t best = 0;
  for (const Path& p : paths) {
    if (best == 0 || p.size() < best) best = p.size();
  }
  return best;
}

std::size_t PathSet::longest() const noexcept {
  std::size_t best = 0;
  for (const Path& p : paths) best = std::max(best, p.size());
  return best;
}

PathSet discover(const Graph& g, VertexId source, VertexId target,
                 const Options& options) {
  return CsrView(g).discover(source, target, options);
}

PathSet discover(const Graph& g, std::string_view source,
                 std::string_view target, const Options& options) {
  return discover(g, g.vertex_by_name(source), g.vertex_by_name(target),
                  options);
}

std::vector<PathSet> discover_all(
    const Graph& g,
    const std::vector<std::pair<VertexId, VertexId>>& pairs,
    const Options& options, util::ThreadPool* pool) {
  const CsrView view(g);
  std::vector<PathSet> out(pairs.size());
  if (pool == nullptr) {
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      out[i] = view.discover(pairs[i].first, pairs[i].second, options);
    }
  } else {
    pool->parallel_for(pairs.size(), [&](std::size_t i) {
      out[i] = view.discover(pairs[i].first, pairs[i].second, options);
    });
  }
  return out;
}

std::vector<VertexId> merge_path_vertices(const Graph& g,
                                          const std::vector<PathSet>& sets) {
  std::vector<bool> seen(g.vertex_count(), false);
  std::vector<VertexId> out;
  for (const PathSet& set : sets) {
    for (const Path& path : set.paths) {
      for (const VertexId v : path) {
        if (!seen[index(v)]) {
          seen[index(v)] = true;
          out.push_back(v);
        }
      }
    }
  }
  return out;
}

std::string to_string(const Graph& g, const Path& path) {
  std::string out;
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (i != 0) out += " - ";
    out += g.vertex(path[i]).name;
  }
  return out;
}

std::vector<std::string> path_names(const Graph& g, const Path& path) {
  std::vector<std::string> out;
  out.reserve(path.size());
  for (const VertexId v : path) out.push_back(g.vertex(v).name);
  return out;
}

}  // namespace upsim::pathdisc
