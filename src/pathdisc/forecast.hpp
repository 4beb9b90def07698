// Count-only truncation forecast for path discovery.
//
// The semantic lint (UPS104) wants to warn *before* a query truncates: "with
// your configured limits, discovery on this pair will hit max_paths / the
// depth cut and silently return a lower bound".  The only way to promise
// that exactly is to run the same search and throw away the paths:
// forecast() runs discovery's own kernel (csr.cpp) with a sink that counts
// paths instead of storing them.  would_truncate therefore equals
// discover().truncated, and the paths / nodes_expanded counts are equal,
// because both come from the same code.
//
// Cost is bounded by the cost of the discovery it predicts (strictly less:
// no path materialization), so running it at lint time is safe wherever
// running the query would have been.
#pragma once

#include "graph/graph.hpp"
#include "pathdisc/csr.hpp"
#include "pathdisc/path_discovery.hpp"

namespace upsim::pathdisc {

struct PathForecast {
  std::size_t paths = 0;           ///< paths discovery would record
  std::size_t nodes_expanded = 0;  ///< identical to PathSet::nodes_expanded
  bool would_truncate = false;     ///< discover() would set truncated
};

/// Predicts view.discover(source, target, options) without materializing
/// paths.  Out-of-range ids forecast the empty answer, like discover().
[[nodiscard]] PathForecast forecast(const CsrView& view,
                                    graph::VertexId source,
                                    graph::VertexId target,
                                    const Options& options = {});

}  // namespace upsim::pathdisc
