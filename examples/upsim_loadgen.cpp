// upsim_loadgen — closed-loop load generator for upsimd: N connections each
// issue M requests back-to-back, latency is recorded per request, and the
// run is written to BENCH_server.json (p50/p90/p95/p99/p999, throughput,
// cache effectiveness) alongside the other BENCH_*.json perf artefacts.
// Cache hit rates come from the server's own `metrics` method after the
// run, so they are per-server-lifetime truth whether the server is
// self-hosted or external.
//
//   upsim_loadgen                               # self-hosted USI demo
//   upsim_loadgen --connections 8 --requests 500 --method upsim
//   upsim_loadgen --host 10.0.0.5 --port 7777 --composite printing
//   upsim_loadgen --tenants 4                   # mixed-tenant registry mode
//   upsim_loadgen --out BENCH_server.json
//
// Without --host/--port it self-hosts: the USI case study is built
// in-process, a server::Server starts on an ephemeral loopback port, and
// the measurement exercises the full stack — client framing, TCP, accept/
// dispatch, pool handoff, engine query, serialization, response framing.
// Perspectives cycle through every (client, printer) pair of the demo so
// the engine's path cache warms within the first round, mirroring steady-
// state serving (one warm-up round runs untimed first).
//
// --tenants N exercises the multi-tenant registry: N models
// (loadtenant<i>/usi) are uploaded *over the wire* (model_upload +
// model_activate), requests cycle across all of them via the "model"
// envelope member, and halfway through the timed run one tenant's model is
// hot-swapped (upload new version + activate) under full load.  The
// BENCH_server.json gains a "tenants" section: per-model request counts
// and QPS, the swap window, and the latency distribution of requests that
// completed while the swap was in flight — the spike, if any, is visible
// next to the steady-state quantiles.  Zero request failures across the
// swap is the pass condition (the process exit code enforces it).
// Against an external server, --tenants needs --bundle-file (the bundle
// each tenant uploads); self-hosted it serializes the USI case study.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "casestudy/usi.hpp"
#include "engine/perspective_engine.hpp"
#include "net/client.hpp"
#include "obs/obs.hpp"
#include "registry/model_registry.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "umlio/serialize.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"

namespace {

constexpr const char* kUsage =
    "usage: upsim_loadgen [--connections N] [--requests M]\n"
    "                     [--method upsim|paths|availability]\n"
    "                     [--host H --port P --composite NAME]\n"
    "                     [--tenants N [--bundle-file f.xml]]\n"
    "                     [--server-threads N] [--out BENCH_server.json]";

struct Args {
  std::size_t connections = 8;
  std::size_t requests = 500;  // per connection
  std::string method = "upsim";
  std::string host;  // empty = self-host the USI demo
  std::uint16_t port = 0;
  std::string composite;
  std::size_t server_threads = 0;
  std::size_t tenants = 0;  // 0 = single-model (pre-registry) mode
  std::string bundle_file;  // external --tenants mode uploads this
  std::string out = "BENCH_server.json";
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        throw upsim::Error("missing value after " + std::string(arg));
      }
      return argv[++i];
    };
    if (arg == "--connections") {
      args.connections = std::stoul(value());
    } else if (arg == "--requests") {
      args.requests = std::stoul(value());
    } else if (arg == "--method") {
      args.method = value();
    } else if (arg == "--host") {
      args.host = value();
    } else if (arg == "--port") {
      args.port = static_cast<std::uint16_t>(std::stoul(value()));
    } else if (arg == "--composite") {
      args.composite = value();
    } else if (arg == "--server-threads") {
      args.server_threads = std::stoul(value());
    } else if (arg == "--tenants") {
      args.tenants = std::stoul(value());
    } else if (arg == "--bundle-file") {
      args.bundle_file = value();
    } else if (arg == "--out") {
      args.out = value();
    } else {
      throw upsim::Error("unknown argument: " + std::string(arg) + "\n" +
                         kUsage);
    }
  }
  if (args.connections == 0 || args.requests == 0) {
    throw upsim::Error(kUsage);
  }
  if (!args.host.empty() && (args.port == 0 || args.composite.empty())) {
    throw upsim::Error(std::string("--host needs --port and --composite\n") +
                       kUsage);
  }
  if (args.method != "upsim" && args.method != "paths" &&
      args.method != "availability") {
    throw upsim::Error("unsupported --method '" + args.method + "'\n" +
                       kUsage);
  }
  if (args.tenants > 0 && !args.host.empty() && args.bundle_file.empty()) {
    throw upsim::Error(
        std::string("--tenants against an external server needs "
                    "--bundle-file\n") +
        kUsage);
  }
  return args;
}

[[nodiscard]] std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw upsim::Error("cannot read '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

/// The USI case study as a bundle document — what self-hosted --tenants
/// mode uploads for every tenant.
[[nodiscard]] std::string usi_bundle_xml() {
  auto cs = upsim::casestudy::make_usi_case_study();
  upsim::umlio::UmlBundle bundle;
  bundle.profiles.push_back(std::move(cs.availability_profile));
  bundle.profiles.push_back(std::move(cs.network_profile));
  bundle.classes = std::move(cs.classes);
  bundle.objects = std::move(cs.infrastructure);
  bundle.services = std::move(cs.services);
  return upsim::umlio::to_xml(bundle);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace upsim;
  try {
    const Args args = parse_args(argc, argv);

    // Self-hosted mode keeps the case study and server alive for the run.
    std::optional<casestudy::UsiCaseStudy> cs;
    std::optional<engine::PerspectiveEngine> engine;
    std::optional<registry::ModelRegistry> reg;
    std::optional<server::Server> server;
    std::string host = args.host;
    std::uint16_t port = args.port;
    std::string composite = args.composite;
    std::vector<std::string> param_sets;  // distinct perspectives to cycle

    if (host.empty()) {
      cs.emplace(casestudy::make_usi_case_study());
      server::ServerOptions server_options;
      server_options.max_connections = args.connections + 8;
      if (args.tenants > 0) {
        // Registry mode boots *empty*; tenants upload their models over
        // the wire below, same as they would against a real deployment.
        registry::ModelRegistry::Options registry_options;
        registry_options.engine.threads = args.server_threads;
        registry_options.engine.record_in_space = false;  // pure serving
        reg.emplace(std::move(registry_options));
        server.emplace(*reg, server_options);
      } else {
        engine::EngineOptions engine_options;
        engine_options.threads = args.server_threads;
        engine_options.record_in_space = false;  // pure serving
        engine.emplace(*cs->infrastructure, engine_options);
        server.emplace(*engine, *cs->services, server_options);
      }
      server->start();
      host = "127.0.0.1";
      port = server->port();
      composite = casestudy::printing_service_name();
      const std::vector<std::string> clients = {"t1", "t6", "t9", "t13",
                                                "t15"};
      const std::vector<std::string> printers = {"p1", "p2", "p3"};
      for (const auto& client : clients) {
        for (const auto& printer : printers) {
          param_sets.push_back(server::query_params_json(
              composite, cs->printing_mapping(client, printer),
              "load_" + client + "_" + printer));
        }
      }
      std::cout << "self-hosted USI demo on 127.0.0.1:" << port << " ("
                << (args.tenants > 0 ? reg->pool().thread_count()
                                     : engine->pool().thread_count())
                << " worker threads)\n";
    } else {
      // External server: Table I's t1 -> p2 printing perspective.
      cs.emplace(casestudy::make_usi_case_study());
      param_sets.push_back(
          server::query_params_json(composite, cs->mapping_t1_p2(), "load"));
    }

    // Mixed-tenant mode: register every tenant's model over the wire
    // (model_upload + model_activate) before any load flows, exactly as a
    // tenant onboarding would.
    std::vector<std::string> model_ids;  // "" entries = default model
    std::string bundle_xml;
    if (args.tenants > 0) {
      bundle_xml = args.bundle_file.empty() ? usi_bundle_xml()
                                            : read_file(args.bundle_file);
      std::string upload_params;
      {
        obs::JsonWriter w;
        w.begin_object();
        w.key("bundle");
        w.value(bundle_xml);
        w.end_object();
        upload_params = std::move(w).str();
      }
      net::ClientOptions admin_options;
      admin_options.host = host;
      admin_options.port = port;
      net::Client admin(admin_options);
      for (std::size_t t = 0; t < args.tenants; ++t) {
        const std::string id = "loadtenant" + std::to_string(t + 1) + "/usi";
        admin.set_model(id);
        const net::Response up = admin.call("model_upload", upload_params);
        if (!up.ok()) {
          throw Error("model_upload for " + id + " failed: " +
                      up.error_message());
        }
        const net::Response act = admin.call("model_activate");
        if (!act.ok()) {
          throw Error("model_activate for " + id + " failed: " +
                      act.error_message());
        }
        model_ids.push_back(id);
      }
      std::cout << "registered " << args.tenants
                << " tenant model(s) over the wire\n";
    } else {
      model_ids.emplace_back();  // default model only
    }

    // Request payloads are pre-built once: the measured loop is pure
    // send/receive (roundtrip_raw) plus a substring status check, so the
    // client side stays off the profile and the numbers isolate the server.
    // Deliberately no "trace" member — a pre-built payload would repeat one
    // id across requests; the server assigns a fresh id per request
    // instead, so its access log and trace export stay per-request.
    std::vector<std::string> payloads;
    std::vector<std::size_t> payload_model;  // payload index -> model_ids index
    payloads.reserve(model_ids.size() * param_sets.size());
    for (std::size_t m = 0; m < model_ids.size(); ++m) {
      for (std::size_t i = 0; i < param_sets.size(); ++i) {
        obs::JsonWriter w;
        w.begin_object();
        w.key("id");
        w.value(static_cast<std::uint64_t>(payloads.size() + 1));
        w.key("method");
        w.value(args.method);
        w.key("params");
        w.raw_value(param_sets[i]);
        if (!model_ids[m].empty()) {
          w.key("model");
          w.value(model_ids[m]);
        }
        w.end_object();
        payloads.push_back(std::move(w).str());
        payload_model.push_back(m);
      }
    }

    // One connection per worker thread; each records into the shared
    // lock-free histogram.  Closed loop: a worker's next request leaves
    // only after its previous response arrived.
    auto& latency =
        obs::Registry::global().histogram("loadgen.request_latency_us");
    // Requests that completed while a hot-swap was in flight land here too,
    // so the swap's latency cost is visible next to steady state.
    auto& swap_latency =
        obs::Registry::global().histogram("loadgen.swap_window_latency_us");
    std::atomic<std::uint64_t> errors{0};
    std::atomic<std::uint64_t> completed{0};
    std::atomic<bool> swap_active{false};
    std::vector<std::atomic<std::uint64_t>> per_model(model_ids.size());

    auto run_connection = [&](std::size_t index, std::size_t requests,
                              bool timed) {
      net::ClientOptions client_options;
      client_options.host = host;
      client_options.port = port;
      net::Client client(client_options);
      for (std::size_t r = 0; r < requests; ++r) {
        const std::size_t p = (index + r) % payloads.size();
        const std::string& payload = payloads[p];
        util::Stopwatch watch;
        try {
          const std::string response = client.roundtrip_raw(payload);
          if (response.find("\"status\":200") == std::string::npos) {
            errors.fetch_add(1, std::memory_order_relaxed);
          }
        } catch (const std::exception&) {
          errors.fetch_add(1, std::memory_order_relaxed);
        }
        if (timed) {
          const double us = watch.seconds() * 1e6;
          latency.record(us);
          if (swap_active.load(std::memory_order_relaxed)) {
            swap_latency.record(us);
          }
          per_model[payload_model[p]].fetch_add(1, std::memory_order_relaxed);
          completed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    };

    // Untimed warm-up: touch every distinct perspective (of every model)
    // once so the timed window measures steady-state (warm path cache)
    // serving.
    run_connection(0, payloads.size(), /*timed=*/false);

    // Mixed-tenant mode hot-swaps the first tenant's model mid-run: a new
    // version of the same bundle is uploaded and activated while every
    // connection keeps hammering it.  The swap window bounds the
    // swap-latency histogram above; any failed request fails the run.
    const std::uint64_t total_requests = args.connections * args.requests;
    double swap_window_ms = -1.0;
    std::uint64_t swap_version = 0;
    std::string swap_error;
    std::thread swapper;
    if (args.tenants > 0) {
      swapper = std::thread([&] {
        while (completed.load(std::memory_order_relaxed) <
               total_requests / 2) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        try {
          net::ClientOptions admin_options;
          admin_options.host = host;
          admin_options.port = port;
          admin_options.model = model_ids.front();
          net::Client admin(admin_options);
          std::string upload_params;
          {
            obs::JsonWriter w;
            w.begin_object();
            w.key("bundle");
            w.value(bundle_xml);
            w.end_object();
            upload_params = std::move(w).str();
          }
          util::Stopwatch swap_watch;
          swap_active.store(true);
          const net::Response up = admin.call("model_upload", upload_params);
          if (!up.ok()) throw Error("upload: " + up.error_message());
          const net::Response act = admin.call("model_activate");
          if (!act.ok()) throw Error("activate: " + act.error_message());
          swap_active.store(false);
          swap_window_ms = swap_watch.seconds() * 1e3;
          swap_version = net::integer_field(act.result(), "version");
        } catch (const std::exception& e) {
          swap_active.store(false);
          swap_error = e.what();
          errors.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }

    std::vector<std::thread> workers;
    util::Stopwatch wall;
    for (std::size_t c = 0; c < args.connections; ++c) {
      workers.emplace_back(run_connection, c, args.requests, /*timed=*/true);
    }
    for (auto& worker : workers) worker.join();
    const double wall_s = wall.seconds();
    if (swapper.joinable()) swapper.join();
    if (!swap_error.empty()) {
      std::cerr << "hot-swap FAILED: " << swap_error << "\n";
    }

    const auto snapshot = latency.snapshot();
    const double throughput =
        static_cast<double>(completed.load()) / wall_s;
    std::cout << "served " << completed.load() << " requests ("
              << errors.load() << " errors) over " << args.connections
              << " connections in " << util::format_sig(wall_s * 1e3, 4)
              << " ms\nthroughput " << util::format_sig(throughput, 5)
              << " req/s; latency p50 "
              << util::format_sig(snapshot.quantile(0.50), 4) << " us, p95 "
              << util::format_sig(snapshot.quantile(0.95), 4) << " us, p99 "
              << util::format_sig(snapshot.quantile(0.99), 4) << " us, p999 "
              << util::format_sig(snapshot.quantile(0.999), 4) << " us, max "
              << util::format_sig(snapshot.max, 4) << " us\n";

    if (args.tenants > 0) {
      for (std::size_t m = 0; m < model_ids.size(); ++m) {
        const std::uint64_t count = per_model[m].load();
        std::cout << "  " << model_ids[m] << ": " << count << " requests, "
                  << util::format_sig(static_cast<double>(count) / wall_s, 4)
                  << " req/s\n";
      }
      if (swap_window_ms >= 0.0) {
        const auto swap_snapshot = swap_latency.snapshot();
        std::cout << "hot-swap of " << model_ids.front() << " to v"
                  << swap_version << " took "
                  << util::format_sig(swap_window_ms, 4) << " ms under load; "
                  << swap_snapshot.count << " request(s) completed in the "
                  << "swap window (p99 "
                  << util::format_sig(swap_snapshot.quantile(0.99), 4)
                  << " us)\n";
      }
    }

    // Cache effectiveness from the server's own `metrics` method — the
    // same numbers whether the server is self-hosted or across the
    // network.  Best effort: an old or unreachable server just drops the
    // section.
    double path_cache_hit_rate = -1.0;
    double response_cache_hit_rate = -1.0;
    std::uint64_t response_cache_hits = 0;
    std::uint64_t response_cache_misses = 0;
    // Invalidation-granularity counters (numbers only), keyed as served by
    // the `metrics` method's "invalidation" section.
    std::map<std::string, double> invalidation;
    try {
      net::ClientOptions metrics_options;
      metrics_options.host = host;
      metrics_options.port = port;
      net::Client metrics_client(metrics_options);
      const net::Response resp = metrics_client.call("metrics");
      if (resp.ok()) {
        const obs::JsonValue& result = resp.result();
        path_cache_hit_rate = result.at("cache").at("hit_rate").number;
        if (result.has("response_cache")) {
          const obs::JsonValue& rc = result.at("response_cache");
          response_cache_hits = net::integer_field(rc, "hits");
          response_cache_misses = net::integer_field(rc, "misses");
          response_cache_hit_rate = rc.at("hit_rate").number;
        }
        if (result.has("invalidation")) {
          for (const auto& [key, value] :
               result.at("invalidation").object) {
            if (value.kind == obs::JsonValue::Kind::Number) {
              invalidation[key] = value.number;
            }
          }
        }
      }
    } catch (const std::exception&) {
      // Nothing to report; the latency numbers above stand on their own.
    }
    if (path_cache_hit_rate >= 0.0) {
      std::cout << "server path cache: hit rate "
                << util::format_sig(path_cache_hit_rate * 100.0, 3) << "%\n";
    }
    if (response_cache_hit_rate >= 0.0) {
      std::cout << "server response cache: hit rate "
                << util::format_sig(response_cache_hit_rate * 100.0, 3)
                << "% (" << response_cache_hits << " hits, "
                << response_cache_misses << " misses)\n";
    }

    if (!args.out.empty()) {
      obs::JsonWriter w;
      w.begin_object();
      w.key("bench");
      w.value("upsim_loadgen");
      w.key("model");
      w.value(args.host.empty() ? "usi_demo" : "external");
      w.key("method");
      w.value(args.method);
      w.key("connections");
      w.value(static_cast<std::uint64_t>(args.connections));
      w.key("requests_per_connection");
      w.value(static_cast<std::uint64_t>(args.requests));
      w.key("total_requests");
      w.value(completed.load());
      w.key("errors");
      w.value(errors.load());
      w.key("wall_ms");
      w.value(wall_s * 1e3);
      w.key("throughput_rps");
      w.value(throughput);
      w.key("latency_us");
      w.begin_object();
      w.key("mean");
      w.value(snapshot.mean());
      w.key("p50");
      w.value(snapshot.quantile(0.50));
      w.key("p90");
      w.value(snapshot.quantile(0.90));
      w.key("p95");
      w.value(snapshot.quantile(0.95));
      w.key("p99");
      w.value(snapshot.quantile(0.99));
      w.key("p999");
      w.value(snapshot.quantile(0.999));
      w.key("min");
      w.value(snapshot.min);
      w.key("max");
      w.value(snapshot.max);
      w.end_object();
      if (args.tenants > 0) {
        w.key("tenants");
        w.begin_object();
        w.key("count");
        w.value(static_cast<std::uint64_t>(args.tenants));
        w.key("per_model");
        w.begin_array();
        for (std::size_t m = 0; m < model_ids.size(); ++m) {
          const std::uint64_t count = per_model[m].load();
          w.begin_object();
          w.key("model");
          w.value(model_ids[m]);
          w.key("requests");
          w.value(count);
          w.key("qps");
          w.value(static_cast<double>(count) / wall_s);
          w.end_object();
        }
        w.end_array();
        w.key("hot_swap");
        w.begin_object();
        w.key("model");
        w.value(model_ids.front());
        w.key("ok");
        w.value(swap_window_ms >= 0.0);
        if (swap_window_ms >= 0.0) {
          const auto swap_snapshot = swap_latency.snapshot();
          w.key("version");
          w.value(swap_version);
          w.key("window_ms");
          w.value(swap_window_ms);
          w.key("requests_in_window");
          w.value(swap_snapshot.count);
          w.key("window_latency_us");
          w.begin_object();
          w.key("p50");
          w.value(swap_snapshot.quantile(0.50));
          w.key("p99");
          w.value(swap_snapshot.quantile(0.99));
          w.key("max");
          w.value(swap_snapshot.max);
          w.end_object();
        }
        w.end_object();
        w.end_object();
      }
      if (server || path_cache_hit_rate >= 0.0) {
        w.key("server");
        w.begin_object();
        if (server) {
          w.key("worker_threads");
          w.value(static_cast<std::uint64_t>(
              engine ? engine->pool().thread_count()
                     : reg->pool().thread_count()));
        }
        if (path_cache_hit_rate >= 0.0) {
          w.key("cache_hit_rate");
          w.value(path_cache_hit_rate);
        }
        if (response_cache_hit_rate >= 0.0) {
          w.key("response_cache_hits");
          w.value(response_cache_hits);
          w.key("response_cache_misses");
          w.value(response_cache_misses);
          w.key("response_cache_hit_rate");
          w.value(response_cache_hit_rate);
        }
        if (!invalidation.empty()) {
          w.key("invalidation");
          w.begin_object();
          for (const auto& [key, value] : invalidation) {
            w.key(key);
            w.value(value);
          }
          w.end_object();
        }
        w.end_object();
      }
      w.end_object();
      const std::string doc = std::move(w).str();
      std::FILE* f = std::fopen(args.out.c_str(), "wb");
      if (f == nullptr) throw Error("cannot write " + args.out);
      std::fwrite(doc.data(), 1, doc.size(), f);
      std::fclose(f);
      std::cout << "wrote " << args.out << "\n";
    }

    if (server) server->stop();
    return errors.load() == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "upsim_loadgen: " << e.what() << "\n";
    return 1;
  }
}
