// upsim_perfbench — the loopback serving benchmark.
//
//   upsim_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   --golden tests/golden/fig11_upsim_t1_p2.golden
//                   --spans-out spans.json
//
// One process builds the model, self-hosts a server::Server on loopback
// with a two-worker pool and drives it closed-loop from two client
// connections through net::Client::roundtrip_raw — closed, because
// upsimd's callers (upsim_query, the CLI, scripts) each wait for their
// reply.  Set-up (model, engine, server start, warm-up) runs several times
// outside the window and is reported as its median CPU time.
//
// --trace 0 measures the end-to-end metrics with obs off: CPU time per
// request and set-up CPU time, both scaled to the nominal host speed by the
// calibration task of calibrate.hpp, and peak RSS are gated; wall-clock
// throughput and latencies are printed beside them (see README.md for why).  --trace 1 is the
// per-layer run: a window with obs off, the same window with obs on (their
// throughput ratio is the tracing overhead), then the in-process replay of
// layers.hpp.  Both modes end with the output checks of reference.hpp; the
// last line of stdout is the JSON result.
#include <malloc.h>

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "calibrate.hpp"
#include "layers.hpp"
#include "loopback.hpp"
#include "obs/obs.hpp"
#include "reference.hpp"
#include "report.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"
#include "workload.hpp"

namespace {

using namespace perfbench;
using namespace upsim;

constexpr const char* kUsage =
    "usage: upsim_perfbench --workload NAME --seed N --seconds S "
    "--trace 0|1 --golden PATH --spans-out PATH";

/// A --trace 0 run sets up at least kSetups times and for at least
/// kSetupSeconds; setup_s is the median.
constexpr std::size_t kSetups = 5;
constexpr double kSetupSeconds = 2.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string golden;
  std::string spans_out;
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) throw Error("missing value after " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      args.workload = value;
    } else if (arg == "--seed") {
      args.seed = std::stoull(value);
      have_seed = true;
    } else if (arg == "--seconds") {
      args.seconds = std::stod(value);
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") throw Error("--trace takes 0 or 1");
      args.trace = value == "1";
      have_trace = true;
    } else if (arg == "--golden") {
      args.golden = value;
    } else if (arg == "--spans-out") {
      args.spans_out = value;
    } else {
      throw Error("unknown argument " + arg + "\n" + kUsage);
    }
  }
  if (args.workload.empty() || !have_seed || !have_trace ||
      !(args.seconds > 0.0) || args.golden.empty() ||
      args.spans_out.empty()) {
    throw Error(kUsage);
  }
  return args;
}

/// The process's peak resident set (VmHWM).  getrusage's ru_maxrss would
/// also count the launching process, whose peak survives the exec.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw Error("no VmHWM in /proc/self/status");
}

double throughput(const Samples& s) {
  return static_cast<double>(s.completed) / s.seconds;
}

/// Counts of the server's response cache and the engine's path cache.
struct CacheCounts {
  std::uint64_t response_hits = 0;
  std::uint64_t response_misses = 0;
  std::uint64_t response_evictions = 0;
  std::uint64_t path_hits = 0;
  std::uint64_t path_misses = 0;

  static CacheCounts of(const Stack& stack) {
    const engine::CacheStats paths = stack.engine->cache_stats();
    return {stack.server->response_cache_hits(),
            stack.server->response_cache_misses(),
            stack.server->response_cache_evictions(), paths.hits,
            paths.misses};
  }
  CacheCounts operator-(const CacheCounts& o) const {
    return {response_hits - o.response_hits,
            response_misses - o.response_misses,
            response_evictions - o.response_evictions, path_hits - o.path_hits,
            path_misses - o.path_misses};
  }
};

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

void print_workload(const Workload& w, std::uint64_t seed) {
  std::printf(
      "workload %s seed %llu: %zu perspectives, %zu events, stream hash "
      "%016llx, population hash %016llx\n",
      w.name.c_str(), static_cast<unsigned long long>(seed),
      w.perspectives.size(), w.events.size(),
      static_cast<unsigned long long>(w.stream_hash),
      static_cast<unsigned long long>(w.population_hash));
}

struct Outcome {
  Report report;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool fit = true;  ///< the traced run's workload-fitness check

  void count(const Samples& s) {
    attempted += s.attempted;
    failed += s.failed;
  }
  void count(const CheckResult& c) {
    attempted += c.attempted;
    failed += c.failed;
  }
};

Outcome run_end_to_end(const Workload& w, const Args& args) {
  Outcome out;
  // Set-ups until kSetups are done and kSetupSeconds have passed.  Each
  // one's CPU time is scaled by the calibration over the same moments;
  // setup_s is the median.
  std::vector<double> setup_s;
  std::vector<double> setup_calibration_us;
  std::unique_ptr<Stack> stack;
  {
    Calibrator calibrator;
    const util::Stopwatch watch;
    while (setup_s.size() < kSetups || watch.seconds() < kSetupSeconds) {
      stack.reset();
      // Give the freed stack back to the OS, so peak RSS is one stack's
      // and not a function of which malloc arenas the next one lands in.
      malloc_trim(0);
      (void)calibrator.take();
      const double before = process_cpu_s() - calibrator.cpu_s();
      stack = set_up(w);
      const double cpu_s = process_cpu_s() - calibrator.cpu_s() - before;
      setup_calibration_us.push_back(calibrator.take());
      setup_s.push_back(cpu_s * kNominalCalibrationUs /
                        setup_calibration_us.back());
    }
  }

  Cursor cursor;
  Samples window = run_window(*stack, w, args.seconds, cursor);
  settle(*stack, w, cursor, window);
  const double rss = peak_rss_mb();
  const Reference reference(w);
  const CheckResult check = check_outputs(*stack, w, reference, args.golden);
  out.count(window);
  out.count(check);

  // Gated: what the program costs, in CPU time scaled to the nominal host
  // speed, and memory.  The host's vCPUs are shared, so wall-clock figures
  // wander with its load; they are printed, not gated.
  std::printf(
      "calibration task: %.1f us in set-up, %.1f us in the window "
      "(nominal %.1f us); %zu set-ups\n",
      quantile(setup_calibration_us, 0.5), window.calibration_us,
      kNominalCalibrationUs, setup_s.size());
  Report& r = out.report;
  r.add("cpu_us_per_req", cpu_us_per_request(window), "us");
  r.add("setup_s", quantile(setup_s, 0.5), "s");
  r.add("peak_rss_mb", rss, "MB");

  Report shown;
  shown.add("throughput_rps", throughput(window), "req/s");
  shown.add("latency_p50_us", window.reads.quantile(0.50), "us");
  shown.add("latency_p90_us", window.reads.quantile(0.90), "us");
  shown.add("latency_p99_us", window.reads.quantile(0.99), "us");
  if (!w.events.empty()) {
    shown.add("write_latency_p50_us", window.writes.quantile(0.50), "us");
  }
  shown.add("error_rate",
            ratio(static_cast<double>(out.failed),
                  static_cast<double>(out.attempted)),
            "ratio");
  std::printf(
      "window %.3f s: %llu reads, %llu writes, %llu of %llu requests "
      "failed; wall-clock figures (not gated):\n%s",
      window.seconds, static_cast<unsigned long long>(window.reads.count),
      static_cast<unsigned long long>(window.writes.count),
      static_cast<unsigned long long>(out.failed),
      static_cast<unsigned long long>(out.attempted),
      shown.to_text().c_str());
  return out;
}

Outcome run_traced(const Workload& w, const Args& args) {
  Outcome out;
  std::unique_ptr<Stack> stack = set_up(w);
  Cursor cursor;

  // Same load twice: obs off, then on.  Their throughput ratio is what
  // tracing costs; the per-layer numbers come from the traced half.
  const Samples plain = run_window(*stack, w, args.seconds * 0.4, cursor);
  obs::Registry::global().reset();
  obs::set_enabled(true);
  const CacheCounts before = CacheCounts::of(*stack);
  const std::uint64_t writes_before = cursor.next_event;
  Samples traced = run_window(*stack, w, args.seconds * 0.4, cursor);
  const CacheCounts in_window = CacheCounts::of(*stack) - before;
  const auto events = static_cast<double>(cursor.next_event - writes_before);
  const obs::JsonValue metrics = fetch_metrics(*stack);
  settle(*stack, w, cursor, traced);
  obs::Tracer::global().clear();

  Reference reference(w);
  const CheckResult check = check_outputs(*stack, w, reference, args.golden);
  Report& r = out.report;
  const ReplayCounts replay =
      replay_layers(w, reference, args.seconds * 0.2, r, args.spans_out);
  obs::set_enabled(false);
  out.count(plain);
  out.count(traced);
  out.count(check);
  out.attempted += replay.attempted;
  out.failed += replay.failed;

  const auto histogram_p50 = [&metrics](const char* name) {
    const obs::JsonValue& h = metrics.at("metrics").at("histograms");
    return h.has(name) ? h.at(name).at("p50").number : 0.0;
  };
  const double lookups = static_cast<double>(in_window.response_hits +
                                             in_window.response_misses);
  const double path_lookups =
      static_cast<double>(in_window.path_hits + in_window.path_misses);
  r.add("server.queue_wait_us", histogram_p50("server.queue_wait_us"), "us");
  r.add("server.handle_us", histogram_p50("server.handle_us"), "us");
  r.add("server.response_cache.hit_ratio",
        ratio(static_cast<double>(in_window.response_hits), lookups), "ratio");
  r.add("server.response_cache.hits",
        static_cast<double>(in_window.response_hits), "count");
  r.add("server.response_cache.lookups", lookups, "count");
  r.add("server.response_cache.evictions_per_event",
        ratio(static_cast<double>(in_window.response_evictions), events),
        "count");
  r.add("engine.path_cache.hit_ratio",
        ratio(static_cast<double>(in_window.path_hits), path_lookups),
        "ratio");
  r.add("engine.path_cache.lookups", path_lookups, "count");

  // The stages a request crosses, by their medians.  Engine query and
  // serialization run only on response-cache misses.
  const double plain_p50 = plain.reads.quantile(0.50);
  const double traced_p50 = traced.reads.quantile(0.50);
  const double miss_share =
      w.method == Method::Upsim
          ? ratio(static_cast<double>(in_window.response_misses), lookups)
          : 1.0;
  double stages = r.get("net.frame_read_us") + r.get("json.parse_us") +
                  r.get("server.request_parse_us") +
                  r.get("server.queue_wait_us") +
                  r.get("registry.model_resolve_us") +
                  miss_share * (r.get("engine.query_us") +
                                r.get("server.serialization_us")) +
                  r.get("net.frame_write_us");
  if (w.method == Method::Availability) stages += r.get("analysis.analyze_us");
  r.add("client.throughput_rps", throughput(plain), "req/s");
  r.add("client.latency_p50_us", plain_p50, "us");
  r.add("client.latency_p90_us", plain.reads.quantile(0.90), "us");
  r.add("client.latency_p99_us", plain.reads.quantile(0.99), "us");
  r.add("client.latency_p999_us", plain.reads.quantile(0.999), "us");
  r.add("client.samples", static_cast<double>(plain.reads.count), "count");
  r.add("e2e.unaccounted_us", traced_p50 - stages, "us");
  r.add("trace.overhead_ratio", throughput(plain) / throughput(traced),
        "ratio");

  // Workload fitness: each workload must keep stressing the layer it was
  // chosen for.
  const auto require = [&out](bool ok, const std::string& what) {
    if (!ok) {
      std::fprintf(stderr, "WORKLOAD FITNESS FAILED: %s\n", what.c_str());
      out.fit = false;
    }
  };
  const double hit_ratio = r.get("server.response_cache.hit_ratio");
  if (w.name == "usi_upsim_hot") {
    require(hit_ratio >= 0.99, "response-cache hit ratio " +
                                   std::to_string(hit_ratio) + " < 0.99");
  } else if (w.name == "campus_upsim_miss") {
    require(hit_ratio <= 0.01, "response-cache hit ratio " +
                                   std::to_string(hit_ratio) + " > 0.01");
  } else if (w.name == "usi_availability") {
    require(r.get("analysis.analyze_us") >= 0.5 * plain_p50,
            "analysis p50 " + std::to_string(r.get("analysis.analyze_us")) +
                " us is under half the request p50 " +
                std::to_string(plain_p50) + " us");
  } else if (w.name == "campus_churn") {
    require(r.get("engine.invalidation.affected_keys_per_event") > 0.0,
            "events affect no cached key");
  }
  std::printf("spans written to %s\n", args.spans_out.c_str());
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    const Workload workload = make_workload(args.workload, args.seed);
    print_workload(workload, args.seed);
    check_event_safety(workload, *workload.make_model());

    const Outcome out = args.trace ? run_traced(workload, args)
                                   : run_end_to_end(workload, args);
    std::cout << out.report.to_text();
    const bool correct = out.failed == 0 && out.fit;
    std::cout << out.report.to_json(correct, out.attempted, out.failed)
              << std::endl;
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "upsim_perfbench: " << e.what() << "\n";
    return 2;
  }
}
