#include "loopback.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>

#include "calibrate.hpp"
#include "util/error.hpp"

namespace perfbench {

using namespace upsim;

namespace {

using Clock = std::chrono::steady_clock;

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

Clock::time_point after(Clock::time_point start, double seconds) {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(seconds));
}

/// Runs `body(c)` on one thread per connection and joins them all.
template <class Body>
void per_connection(Body body) {
  std::vector<std::thread> threads;
  threads.reserve(kConnections);
  for (std::size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back(body, c);
  }
  for (auto& t : threads) t.join();
}

}  // namespace

bool roundtrip(net::Client& client, std::string_view payload,
               std::string* response) {
  try {
    std::string bytes = client.roundtrip_raw(payload);
    // The envelope is {"id":<n>,"status":<code>,...}: the status sits in
    // the first few dozen bytes.
    const bool ok = std::string_view(bytes).substr(0, 48).find(
                        "\"status\":200,") != std::string_view::npos;
    if (response != nullptr) *response = std::move(bytes);
    return ok;
  } catch (const std::exception&) {
    return false;
  }
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double cpu_us_per_request(const Samples& samples) {
  return samples.cpu_s * 1e6 / static_cast<double>(samples.completed) *
         kNominalCalibrationUs / samples.calibration_us;
}

std::unique_ptr<Stack> set_up(const Workload& workload) {
  auto stack = std::make_unique<Stack>();
  stack->model = workload.make_model();
  engine::EngineOptions engine_options;
  engine_options.threads = kConnections;
  engine_options.record_in_space = false;  // serving mode, as upsimd runs
  stack->engine = std::make_unique<engine::PerspectiveEngine>(
      stack->model->infrastructure(), engine_options);
  server::ServerOptions server_options;
  server_options.max_connections = kConnections + 4;
  stack->server = std::make_unique<server::Server>(
      *stack->engine, stack->model->services(), server_options);
  stack->server->start();

  net::ClientOptions client_options;
  client_options.port = stack->server->port();
  for (std::size_t c = 0; c < kConnections; ++c) {
    stack->clients.emplace_back(client_options);
  }
  std::atomic<std::uint64_t> failed{0};
  per_connection(
      [&](std::size_t c) {
        for (const std::size_t i : workload.sequence[c]) {
          if (!roundtrip(stack->clients[c],
                         workload.perspectives[i].payload)) {
            failed.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
  if (failed.load() != 0) {
    throw Error(std::to_string(failed.load()) + " warm-up request(s) failed");
  }
  return stack;
}

Samples run_window(Stack& stack, const Workload& workload, double seconds,
                   Cursor& cursor) {
  obs::Histogram reads;
  obs::Histogram writes;
  // Per connection: its completed requests, attempts, failures and the time
  // its last response arrived.
  std::array<std::uint64_t, kConnections> completed{};
  std::array<std::uint64_t, kConnections> attempted{};
  std::array<std::uint64_t, kConnections> failed{};
  std::array<double, kConnections> busy_s{};
  Calibrator calibrator;
  const double cpu_before = process_cpu_s() - calibrator.cpu_s();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline = after(start, seconds);
  per_connection([&](std::size_t c) {
    net::Client& client = stack.clients[c];
    const std::vector<std::size_t>& seq = workload.sequence[c];
    std::size_t& pos = cursor.position[c];
    std::size_t reads_since_event = 0;
    Clock::time_point t0 = Clock::now();
    while (t0 < deadline) {
      const bool event = c == 0 && !workload.event_payloads.empty() &&
                         reads_since_event == workload.reads_per_event;
      const std::string& payload =
          event ? workload.event_payloads[cursor.next_event %
                                          workload.event_payloads.size()]
                : workload.perspectives[seq[pos]].payload;
      const bool ok = roundtrip(client, payload);
      const Clock::time_point t1 = Clock::now();
      ++attempted[c];
      if (!ok) {
        ++failed[c];
      } else {
        ++completed[c];
        (event ? writes : reads).record(us_between(t0, t1));
      }
      if (event) {
        ++cursor.next_event;
        reads_since_event = 0;
      } else {
        pos = (pos + 1) % seq.size();
        ++reads_since_event;
      }
      t0 = t1;
    }
    busy_s[c] = std::chrono::duration<double>(t0 - start).count();
  });

  Samples all;
  all.cpu_s = process_cpu_s() - calibrator.cpu_s() - cpu_before;
  all.calibration_us = calibrator.take();
  all.reads = reads.snapshot();
  all.writes = writes.snapshot();
  for (std::size_t c = 0; c < kConnections; ++c) {
    all.completed += completed[c];
    all.attempted += attempted[c];
    all.failed += failed[c];
    all.seconds = std::max(all.seconds, busy_s[c]);
  }
  return all;
}

void settle(Stack& stack, const Workload& workload, Cursor& cursor,
            Samples& samples) {
  if (cursor.next_event % 2 == 0) return;
  ++samples.attempted;
  if (!roundtrip(stack.clients[0],
                 workload.event_payloads[cursor.next_event %
                                         workload.event_payloads.size()])) {
    ++samples.failed;
  }
  ++cursor.next_event;
}

obs::JsonValue fetch_metrics(Stack& stack) {
  const net::Response response = stack.clients[0].call("metrics");
  if (!response.ok()) {
    throw Error("metrics call failed: " + response.error_message());
  }
  return response.result();
}

}  // namespace perfbench
