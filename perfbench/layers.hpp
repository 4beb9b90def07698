// The in-process half of the traced run: the workload's own request bytes
// replayed through each layer's public function, with a span from this
// benchmark around every call.
#pragma once

#include <cstdint>
#include <string>

#include "reference.hpp"
#include "report.hpp"
#include "workload.hpp"

namespace perfbench {

struct ReplayCounts {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< replayed responses unequal to the reference
};

/// Replays connection 0's request sequence (at most `budget_seconds`, at
/// least one request) as the server would handle it — frame read, JSON
/// parse, request parse, model resolve, engine query, analysis,
/// serialization, frame write over a loopback socket pair — then the
/// workload's events (or probe events) through scenario::ScenarioPlayer
/// and one cold discovery per distinct pair.  obs must be enabled.  Adds the per-stage
/// metrics to `report` and writes every span (Chrome trace JSON, one row
/// per request) to `spans_path`.
ReplayCounts replay_layers(const Workload& workload, Reference& reference,
                           double budget_seconds, Report& report,
                           const std::string& spans_path);

}  // namespace perfbench
