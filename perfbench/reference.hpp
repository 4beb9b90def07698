// Output checks: the bytes the server sends must equal what a freshly
// built in-process engine serializes for the same perspective.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/perspective_engine.hpp"
#include "loopback.hpp"
#include "registry/model_registry.hpp"
#include "workload.hpp"

namespace perfbench {

/// A fresh model and engine, adopted as the default model of a registry of
/// its own (so the traced replay can resolve through the registry too).
struct Reference {
  std::unique_ptr<Model> model;
  std::unique_ptr<upsim::engine::PerspectiveEngine> engine;
  std::unique_ptr<upsim::registry::ModelRegistry> registry;
  /// Per perspective: the full response frame the server must send.
  std::vector<std::string> expected;

  /// Builds the engine and serializes every perspective of `workload`.
  explicit Reference(const Workload& workload);
};

struct CheckResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Sends every distinct perspective once and compares the response bytes
/// with reference.expected; on the USI model also compares the t1 -> p2
/// UPSIM node set with the Fig. 11 golden file at `golden_path`.  Each
/// mismatch is reported on stderr and counted as failed.
[[nodiscard]] CheckResult check_outputs(Stack& stack, const Workload& workload,
                                        const Reference& reference,
                                        const std::string& golden_path);

}  // namespace perfbench
