// upsim_scenario — record, replay and serve discrete-event scenarios
// (docs/TUTORIAL.md §13).
//
// Three modes, all built on src/scenario/:
//
//   upsim_scenario generate --out trace.jsonl [--horizon H] [--seed S]
//       Derives a Poisson failure/repair trace from the USI printing
//       perspective's own MTBF/MTTR values (the model predicting its own
//       operational future) and writes it as JSONL.  Deterministic for a
//       (horizon, seed) pair.
//
//   upsim_scenario replay --trace trace.jsonl [--coarse] [--query-threads N]
//       Replays the trace against a live PerspectiveEngine while N threads
//       hammer it with queries — the sustained-churn scenario.  --coarse
//       uses the epoch-flush invalidation baseline instead of the
//       fine-grained reverse-index path; served answers are identical,
//       the work is not (compare the cache lines of both runs).
//
//   upsim_scenario remote --host H --port P --trace trace.jsonl
//                         [--coarse] [--batch N]
//       Streams the trace into a running upsimd (scenario_load, then
//       scenario_step in batches) and closes with an availability query.
//       The final line is deterministic for a given bundle + trace — CI's
//       churn job asserts it byte for byte against a golden file.
#include <atomic>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "casestudy/usi.hpp"
#include "core/upsim_generator.hpp"
#include "engine/perspective_engine.hpp"
#include "net/client.hpp"
#include "obs/json.hpp"
#include "scenario/player.hpp"
#include "scenario/trace.hpp"
#include "server/protocol.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

constexpr const char* kUsage =
    "usage: upsim_scenario generate --out trace.jsonl [--horizon HOURS]\n"
    "                               [--seed S]\n"
    "   or: upsim_scenario replay --trace trace.jsonl [--coarse]\n"
    "                             [--query-threads N]\n"
    "   or: upsim_scenario remote --host H --port P --trace trace.jsonl\n"
    "                             [--coarse] [--batch N]";

struct Args {
  std::string mode;
  std::string out;
  std::string trace_path;
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  double horizon_hours = 24.0 * 365.0;
  std::uint64_t seed = 2013;
  bool coarse = false;
  std::size_t query_threads = 2;
  std::size_t batch = 64;
};

Args parse_args(int argc, char** argv) {
  using upsim::Error;
  Args args;
  if (argc < 2) throw Error(kUsage);
  args.mode = argv[1];
  if (args.mode != "generate" && args.mode != "replay" &&
      args.mode != "remote") {
    throw Error("unknown mode '" + args.mode + "'\n" + kUsage);
  }
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        throw Error("missing value after " + std::string(arg));
      }
      return argv[++i];
    };
    if (arg == "--out") {
      args.out = value();
    } else if (arg == "--trace") {
      args.trace_path = value();
    } else if (arg == "--host") {
      args.host = value();
    } else if (arg == "--port") {
      args.port = static_cast<std::uint16_t>(std::stoul(value()));
    } else if (arg == "--horizon") {
      args.horizon_hours = std::stod(value());
    } else if (arg == "--seed") {
      args.seed = std::stoull(value());
    } else if (arg == "--coarse") {
      args.coarse = true;
    } else if (arg == "--query-threads") {
      args.query_threads = std::stoul(value());
    } else if (arg == "--batch") {
      args.batch = std::stoul(value());
    } else {
      throw Error("unknown argument: " + std::string(arg) + "\n" + kUsage);
    }
  }
  return args;
}

int run_generate(const Args& args) {
  using namespace upsim;
  if (args.out.empty()) throw Error("generate needs --out\n" + std::string(kUsage));
  const auto cs = casestudy::make_usi_case_study();
  core::UpsimGenerator generator(*cs.infrastructure);
  const auto result = generator.generate(
      cs.services->get_composite(casestudy::printing_service_name()),
      cs.mapping_t1_p2(), "scenario");

  scenario::GeneratorOptions options;
  options.horizon_hours = args.horizon_hours;
  options.seed = args.seed;
  const auto events =
      scenario::generate_failure_trace(result.upsim_graph, options);
  scenario::write_trace_file(args.out, events);
  std::cout << "wrote " << events.size() << " events ("
            << util::format_sig(args.horizon_hours, 6) << " h horizon, seed "
            << args.seed << ") to " << args.out << "\n";
  return 0;
}

int run_replay(const Args& args) {
  using namespace upsim;
  if (args.trace_path.empty()) {
    throw Error("replay needs --trace\n" + std::string(kUsage));
  }
  const auto trace = scenario::read_trace_file(args.trace_path);
  const auto cs = casestudy::make_usi_case_study();
  const auto& printing =
      cs.services->get_composite(casestudy::printing_service_name());

  engine::EngineOptions engine_options;
  engine_options.record_in_space = false;
  engine::PerspectiveEngine engine(*cs.infrastructure, engine_options);

  scenario::PlayerOptions player_options;
  player_options.coarse = args.coarse;
  scenario::ScenarioPlayer player(engine, player_options);
  player.register_mapping("view", cs.mapping_t1_p2());

  // Warm the caches first so the replay exercises what it claims to: with
  // cold caches there is nothing to invalidate and every counter reads 0.
  (void)engine.query(printing, cs.mapping_t1_p2(), "load0");
  (void)engine.query(printing, cs.mapping_t15_p3(), "load1");

  // Concurrent query load: each thread cycles the two Sec. VI perspectives
  // while the main thread absorbs the trace.
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> queries{0};
  std::vector<std::thread> load;
  load.reserve(args.query_threads);
  for (std::size_t t = 0; t < args.query_threads; ++t) {
    load.emplace_back([&, t] {
      const mapping::ServiceMapping mappings[2] = {cs.mapping_t1_p2(),
                                                   cs.mapping_t15_p3()};
      std::size_t i = t;
      while (!stop.load(std::memory_order_relaxed)) {
        try {
          (void)engine.query(printing, mappings[i % 2],
                             "load" + std::to_string(i % 2));
        } catch (const Error&) {
          // A query racing a failure event can legitimately find no
          // operational path; churn load shrugs and retries.
        }
        queries.fetch_add(1, std::memory_order_relaxed);
        ++i;
      }
    });
  }

  const auto stats = player.play(trace);
  stop.store(true, std::memory_order_relaxed);
  for (auto& thread : load) thread.join();

  const auto inv = engine.invalidation_stats();
  const auto cache = engine.cache_stats();
  std::cout << "replayed " << args.trace_path << " ("
            << (args.coarse ? "coarse epoch-flush" : "fine-grained")
            << " invalidation):\n";
  util::TextTable table({"metric", "value"});
  table.add_row({"events applied", std::to_string(stats.events)});
  table.add_row({"  failures / repairs", std::to_string(stats.failures) +
                                             " / " +
                                             std::to_string(stats.repairs)});
  table.add_row({"affected cached pairs", std::to_string(stats.affected_keys)});
  table.add_row({"full epoch flushes", std::to_string(inv.full_flushes)});
  table.add_row({"path-cache evictions", std::to_string(cache.evictions)});
  table.add_row({"path-cache hits / misses", std::to_string(cache.hits) +
                                                 " / " +
                                                 std::to_string(cache.misses)});
  table.add_row({"queries served under churn", std::to_string(queries.load())});
  table.add_row({"elements down at end",
                 std::to_string(inv.down_elements)});
  std::cout << table.render(2);

  const auto report = engine.query_availability(printing, cs.mapping_t1_p2(),
                                                "final");
  std::cout << "final availability (t1 -> p2, exact): "
            << util::format_sig(report.exact, 12) << "\n";
  return 0;
}

int run_remote(const Args& args) {
  using namespace upsim;
  if (args.trace_path.empty() || args.port == 0) {
    throw Error("remote needs --port and --trace\n" + std::string(kUsage));
  }
  const auto trace = scenario::read_trace_file(args.trace_path);

  net::ClientOptions client_options;
  client_options.host = args.host;
  client_options.port = args.port;
  net::Client client(client_options);

  const auto expect_ok = [](const net::Response& response,
                            const char* what) -> const obs::JsonValue& {
    if (!response.ok()) {
      throw Error(std::string(what) + " failed: " + response.error_code() +
                  ": " + response.error_message());
    }
    return response.result();
  };

  // Load the whole trace server-side...
  {
    obs::JsonWriter w;
    w.begin_object();
    w.key("events");
    w.begin_array();
    for (const auto& event : trace) w.raw_value(event.to_json());
    w.end_array();
    w.end_object();
    const net::Response response =
        client.call("scenario_load", std::move(w).str());
    const obs::JsonValue& result = expect_ok(response, "scenario_load");
    std::cout << "loaded " << net::integer_field(result, "loaded")
              << " events\n";
  }

  // ...then step through it in batches, accumulating what each step
  // invalidated.
  std::uint64_t affected = 0;
  std::uint64_t path_evictions = 0;
  std::uint64_t response_evictions = 0;
  std::uint64_t applied = 0;
  for (;;) {
    obs::JsonWriter w;
    w.begin_object();
    w.key("count");
    w.value(static_cast<std::uint64_t>(args.batch));
    if (args.coarse) {
      w.key("mode");
      w.value("coarse");
    }
    w.end_object();
    const net::Response response =
        client.call("scenario_step", std::move(w).str());
    const obs::JsonValue& result = expect_ok(response, "scenario_step");
    applied += net::integer_field(result, "applied");
    affected += net::integer_field(result, "affected_keys");
    path_evictions += net::integer_field(result, "path_evictions");
    response_evictions += net::integer_field(result, "response_evictions");
    if (result.at("position").number >= result.at("total").number ||
        result.at("applied").number == 0) {
      break;
    }
  }
  std::cout << "applied " << applied << " events ("
            << (args.coarse ? "coarse" : "fine") << "): " << affected
            << " affected pairs, " << path_evictions << " path evictions, "
            << response_evictions << " response evictions\n";

  // Close with the monitored perspective's availability; its exact value
  // only depends on the bundle and the trace's surviving overlay, so the
  // printed line doubles as the golden end-state assertion.
  const auto cs = casestudy::make_usi_case_study();
  const net::Response response = client.call(
      "availability",
      server::query_params_json(casestudy::printing_service_name(),
                                cs.mapping_t1_p2(), "churn_final"));
  const obs::JsonValue& result = expect_ok(response, "availability");
  std::cout << "final availability (t1 -> p2, exact): "
            << util::format_sig(result.at("exact").number, 12) << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    if (args.mode == "generate") return run_generate(args);
    if (args.mode == "replay") return run_replay(args);
    return run_remote(args);
  } catch (const std::exception& e) {
    std::cerr << "upsim_scenario: " << e.what() << "\n";
    return 1;
  }
}
