#include "pathdisc/csr.hpp"

#include "obs/obs.hpp"
#include "pathdisc/forecast.hpp"

namespace upsim::pathdisc {

using graph::VertexId;
using graph::index;

CsrView::CsrView(const graph::Graph& g) {
  const std::size_t n = g.vertex_count();
  offsets_.reserve(n + 1);
  arcs_.reserve(2 * g.edge_count());
  // Built straight off incident_edges(), so per-vertex arc order is
  // definitionally the graph's edge-insertion order — the property the
  // deterministic discovery order rests on.
  for (std::uint32_t v = 0; v < n; ++v) {
    offsets_.push_back(static_cast<std::uint32_t>(arcs_.size()));
    for (const graph::EdgeId e : g.incident_edges(VertexId{v})) {
      arcs_.push_back(
          CsrArc{index(g.opposite(e, VertexId{v})), index(e)});
    }
  }
  offsets_.push_back(static_cast<std::uint32_t>(arcs_.size()));
}

namespace {

/// Word-packed visited mask (1 bit per vertex).  std::vector<bool> hides
/// the same packing behind proxy iterators; this keeps the three hot
/// operations branch-free single-word accesses.
class VisitMask {
 public:
  explicit VisitMask(std::size_t n) : words_((n + 63) / 64, 0) {}
  [[nodiscard]] bool test(std::uint32_t i) const noexcept {
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }
  void set(std::uint32_t i) noexcept {
    words_[i >> 6] |= std::uint64_t{1} << (i & 63);
  }
  void reset(std::uint32_t i) noexcept {
    words_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
  }

 private:
  std::vector<std::uint64_t> words_;
};

/// Aggregates one finished pair into the obs registry (counters +
/// per-pair histograms).  Counters are recorded per discover() call (one
/// call per requester/provider pair), so they sum naturally across a
/// pipeline run; the truncation counter is touched even when zero so
/// exported metrics always show it — a bounded search that silently drops
/// paths must never look exhaustive.
void record_pair_metrics(const PathSet& out) {
  auto& registry = obs::Registry::global();
  registry.counter("pathdisc.pairs").add(1);
  registry.counter("pathdisc.vertices_visited").add(out.nodes_expanded);
  registry.counter("pathdisc.paths_found").add(out.paths.size());
  auto& truncations = registry.counter("pathdisc.truncations");
  if (out.truncated) truncations.add(1);
  registry.histogram("pathdisc.paths_per_pair")
      .record(static_cast<double>(out.paths.size()));
  registry.histogram("pathdisc.vertices_per_pair")
      .record(static_cast<double>(out.nodes_expanded));
}

/// One level of the DFS: a vertex on the current path and the index of its
/// next arc to try.  The stack of frames, bottom to top, is the path.
struct Frame {
  std::uint32_t v;
  std::uint32_t next_arc;
};

/// The all-simple-paths DFS with path tracking (Sec. V-D) — the only one in
/// pathdisc.  An explicit stack, so deep topologies cannot exhaust the call
/// stack; arcs in insertion order, so discovery order is deterministic.
/// Each path found goes to `on_path(prefix)`, where `prefix` is the stack
/// (source first, the target not yet on it).  The counts and the truncated
/// flag come back as a PathForecast; both limits cut exactly as
/// PathSet::truncated documents.
template <typename OnPath>
PathForecast search(const CsrView& view, std::uint32_t source,
                    std::uint32_t target, const Options& options,
                    OnPath on_path) {
  const std::size_t max_len =
      options.max_path_length == 0 ? SIZE_MAX : options.max_path_length;
  const std::size_t max_paths =
      options.max_paths == 0 ? SIZE_MAX : options.max_paths;
  PathForecast out;
  out.nodes_expanded = 1;
  if (source == target) {
    on_path(std::span<const Frame>{});
    out.paths = 1;
    out.would_truncate = max_paths == 1;
    return out;
  }

  VisitMask on_stack(view.vertex_count());
  std::vector<Frame> stack;
  stack.reserve(64);
  stack.push_back(Frame{source, 0});
  on_stack.set(source);
  while (!stack.empty()) {
    Frame& frame = stack.back();
    const std::span<const CsrArc> arcs = view.arcs(frame.v);
    if (frame.next_arc >= arcs.size() || stack.size() >= max_len) {
      // Arcs left here means the depth cut dropped them: a longer path may
      // have existed.
      if (frame.next_arc < arcs.size()) out.would_truncate = true;
      on_stack.reset(frame.v);
      stack.pop_back();
      continue;
    }
    const std::uint32_t w = arcs[frame.next_arc++].to;
    if (on_stack.test(w)) continue;  // path tracking: no revisits
    ++out.nodes_expanded;
    if (w == target) {
      on_path(std::span<const Frame>(stack));
      if (++out.paths >= max_paths) {
        out.would_truncate = true;
        return out;
      }
      continue;
    }
    on_stack.set(w);
    stack.push_back(Frame{w, 0});
  }
  return out;
}

}  // namespace

PathSet CsrView::discover(VertexId source, VertexId target,
                          const Options& options) const {
  obs::ScopedSpan span("pathdisc.discover", "pathdisc");
  PathSet out;
  out.source = source;
  out.target = target;
  // An unknown id is an empty answer, not an exception (see the
  // pathdisc::discover() contract).
  if (index(source) < vertex_count() && index(target) < vertex_count()) {
    const PathForecast found =
        search(*this, index(source), index(target), options,
               [&](std::span<const Frame> prefix) {
                 Path& path = out.paths.emplace_back();
                 path.reserve(prefix.size() + 1);
                 for (const Frame& f : prefix) path.push_back(VertexId{f.v});
                 path.push_back(target);
               });
    out.nodes_expanded = found.nodes_expanded;
    out.truncated = found.would_truncate;
  }
  if (obs::enabled()) record_pair_metrics(out);
  return out;
}

PathForecast forecast(const CsrView& view, VertexId source, VertexId target,
                      const Options& options) {
  if (index(source) >= view.vertex_count() ||
      index(target) >= view.vertex_count()) {
    return {};  // unknown id: the empty answer, never truncated
  }
  return search(view, index(source), index(target), options,
                [](std::span<const Frame>) {});
}

}  // namespace upsim::pathdisc
