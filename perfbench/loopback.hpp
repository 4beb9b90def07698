// The serving stack under test and the closed-loop client that drives it
// over loopback TCP.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "engine/perspective_engine.hpp"
#include "net/client.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "server/server.hpp"
#include "workload.hpp"

namespace perfbench {

/// One upsimd-shaped serving stack: model, engine with a kConnections-worker
/// pool, a server on an ephemeral loopback port, and one connected client
/// per connection.  Members are destroyed clients first, so the server's
/// readers see their peers hang up before it stops.
struct Stack {
  std::unique_ptr<Model> model;
  std::unique_ptr<upsim::engine::PerspectiveEngine> engine;
  std::unique_ptr<upsim::server::Server> server;
  std::vector<upsim::net::Client> clients;
};

/// Builds and starts a stack, then runs the untimed warm-up: every
/// connection sends each perspective of its sequence once.  Throws
/// upsim::Error when a warm-up request fails.
[[nodiscard]] std::unique_ptr<Stack> set_up(const Workload& workload);

/// This process's user + system CPU time, all threads, in seconds.
[[nodiscard]] double process_cpu_s();

/// What a window measured.
struct Samples {
  upsim::obs::Histogram::Snapshot reads;   ///< query round trips, us
  upsim::obs::Histogram::Snapshot writes;  ///< event round trips, us
  std::uint64_t completed = 0;             ///< successful queries and events
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< non-200 responses and exceptions
  double seconds = 0.0;      ///< until the last response arrived
  double cpu_s = 0.0;        ///< process CPU time without the calibration
  double calibration_us = 0.0;  ///< mean calibration run meanwhile
};

/// Process CPU time (all threads, client and server) per completed request
/// over the window, scaled to the nominal host speed by the calibration
/// task timed meanwhile.  The host's speed drifts by more than the bound
/// within seconds and over minutes; the calibration drifts with it, a
/// regression in the program does not.
[[nodiscard]] double cpu_us_per_request(const Samples& samples);

/// Where the load stands: each connection's position in its sequence, so a
/// later window continues the cycle instead of replaying what is cached,
/// and the next event.  The event stream alternates fail and repair, so an
/// odd `next_event` means an element is down.
struct Cursor {
  std::array<std::size_t, kConnections> position{};
  std::size_t next_event = 0;
};

/// Closed loop for `seconds`: each connection sends its next request as soon
/// as the previous response arrived, cycling its sequence; connection 0
/// sends the next event after every workload.reads_per_event of its reads.
[[nodiscard]] Samples run_window(Stack& stack, const Workload& workload,
                                 double seconds, Cursor& cursor);

/// Sends the repair of an element a window left down.
void settle(Stack& stack, const Workload& workload, Cursor& cursor,
            Samples& samples);

/// The server's `metrics` result.
[[nodiscard]] upsim::obs::JsonValue fetch_metrics(Stack& stack);

/// One round trip; false unless the response has status 200.
[[nodiscard]] bool roundtrip(upsim::net::Client& client,
                            std::string_view payload,
                            std::string* response = nullptr);

}  // namespace perfbench
