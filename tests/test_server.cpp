// upsimd serving-stack integration suite: every test starts a real
// server::Server on an ephemeral loopback port and talks to it over real
// sockets — the loopback round trip is the point, not an implementation
// detail being mocked away.
//
// The centrepiece is the differential contract: a served response must be
// *byte-identical* to serializing an in-process PerspectiveEngine answer
// with the same protocol writers (fixed key order, fixed float formatting,
// no timings), so remote and embedded users of the model can never drift
// apart.  Around it: protocol error paths (malformed, oversized, unknown
// method), overload behaviour (backlog 503, connection-limit 503), the
// read-timeout reaper, concurrent clients, truncation surfacing, epoch
// invalidation and the graceful drain.  The whole binary runs under
// -DUPSIM_SANITIZE=thread in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "casestudy/usi.hpp"
#include "core/analysis.hpp"
#include "engine/perspective_engine.hpp"
#include "lint/diagnostics.hpp"
#include "lint/semantic.hpp"
#include "mapping/mapping.hpp"
#include "net/client.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "obs/obs.hpp"
#include "registry/model_registry.hpp"
#include "server/access_log.hpp"
#include "server/metrics_http.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "umlio/serialize.hpp"

namespace upsim {
namespace {

/// One self-contained serving stack: case study, engine, running server.
struct Stack {
  casestudy::UsiCaseStudy cs;
  engine::PerspectiveEngine engine;
  server::Server server;

  explicit Stack(engine::EngineOptions engine_options = {},
                 server::ServerOptions server_options = {})
      : cs(casestudy::make_usi_case_study()),
        engine(*cs.infrastructure,
               [&] {
                 engine_options.record_in_space = false;
                 engine_options.threads =
                     engine_options.threads == 0 ? 2 : engine_options.threads;
                 return engine_options;
               }()),
        server(engine, *cs.services, std::move(server_options)) {
    server.start();
  }

  [[nodiscard]] net::Client client(int request_timeout_ms = 10000) const {
    net::ClientOptions options;
    options.port = server.port();
    options.request_timeout_ms = request_timeout_ms;
    return net::Client(options);
  }

  [[nodiscard]] std::string t1_p2_params(const char* name = "view") const {
    return server::query_params_json(casestudy::printing_service_name(),
                                     cs.mapping_t1_p2(), name);
  }
};

TEST(ServerTest, ServesUpsimQueryForTableIPerspective) {
  Stack stack;
  net::Client client = stack.client();
  const net::Response response =
      client.call("upsim", stack.t1_p2_params());
  ASSERT_TRUE(response.ok()) << response.error_message();
  const obs::JsonValue& result = response.result();
  EXPECT_EQ(result.at("name").string, "view");
  EXPECT_FALSE(result.at("truncated").boolean);
  EXPECT_GT(result.at("total_paths").number, 0.0);
  EXPECT_FALSE(result.at("instances").array.empty());
  EXPECT_FALSE(result.at("pairs").array.empty());
  // The perspective's instances all come from the t1 -> p2 slice, so the
  // requester and provider must be among them.
  std::vector<std::string> instances;
  for (const auto& v : result.at("instances").array) {
    instances.push_back(v.string);
  }
  EXPECT_NE(std::find(instances.begin(), instances.end(), "t1"),
            instances.end());
  EXPECT_NE(std::find(instances.begin(), instances.end(), "p2"),
            instances.end());
}

// The tentpole contract: served bytes == in-process serialization bytes,
// for upsim, paths and availability alike.  A second, independent engine
// (fresh case-study instance) produces the expected side, so any hidden
// server-side state would show up as a mismatch.
TEST(ServerTest, ServedResponsesAreByteIdenticalToInProcessSerialization) {
  Stack stack;
  casestudy::UsiCaseStudy cs2 = casestudy::make_usi_case_study();
  engine::EngineOptions eo;
  eo.record_in_space = false;
  engine::PerspectiveEngine engine2(*cs2.infrastructure, eo);
  const auto& composite =
      cs2.services->get_composite(casestudy::printing_service_name());

  net::Client client = stack.client();
  const std::string params = stack.t1_p2_params("diff");

  std::uint64_t id = 0;
  const std::string served_upsim = client.call_raw("upsim", params, &id);
  const core::UpsimResult fresh =
      engine2.query(composite, cs2.mapping_t1_p2(), "diff");
  EXPECT_EQ(served_upsim,
            server::make_response(id, server::upsim_result_json(
                                          fresh, /*paths_only=*/false)));

  const std::string served_paths = client.call_raw("paths", params, &id);
  EXPECT_EQ(served_paths,
            server::make_response(id, server::upsim_result_json(
                                          fresh, /*paths_only=*/true)));

  const std::string served_avail =
      client.call_raw("availability", params, &id);
  core::AnalysisOptions analysis;
  analysis.monte_carlo_samples = 0;  // mirrors the server default
  EXPECT_EQ(served_avail,
            server::make_response(
                id, server::availability_json(
                        core::analyze_availability(fresh, analysis), fresh)));

  // Serving the same perspective again (now from the response cache) must
  // not change a single byte — only the echoed id may differ.
  std::uint64_t id2 = 0;
  const std::string again = client.call_raw("upsim", params, &id2);
  EXPECT_EQ(again,
            server::make_response(id2, server::upsim_result_json(
                                           fresh, /*paths_only=*/false)));
}

TEST(ServerTest, ResponseCacheDisabledServesTheSameBytes) {
  server::ServerOptions so;
  so.response_cache_entries = 0;
  Stack uncached({}, so);
  Stack cached;
  net::Client a = uncached.client();
  net::Client b = cached.client();
  const std::string params = uncached.t1_p2_params("diff");
  std::uint64_t id_a = 0;
  std::uint64_t id_b = 0;
  const std::string raw_a = a.call_raw("upsim", params, &id_a);
  std::string raw_b = b.call_raw("upsim", params, &id_b);
  ASSERT_EQ(id_a, id_b);  // both fresh clients start at the same id
  EXPECT_EQ(raw_a, raw_b);
}

TEST(ServerTest, MalformedDocumentGets400AndConnectionSurvives) {
  Stack stack;
  net::Client client = stack.client();
  const std::string raw = client.roundtrip_raw("this is not json");
  const obs::JsonValue doc = obs::json_parse(raw);
  EXPECT_EQ(static_cast<int>(doc.at("status").number), 400);
  EXPECT_EQ(doc.at("error").at("code").string, "parse_error");
  // A well-framed garbage payload is a request-level problem, not a
  // stream-level one: the same connection keeps working.
  const net::Response health = client.call("health");
  EXPECT_TRUE(health.ok());
}

TEST(ServerTest, MissingMethodAndUnknownMethodGet400) {
  Stack stack;
  net::Client client = stack.client();
  const obs::JsonValue no_method =
      obs::json_parse(client.roundtrip_raw(R"({"id":1})"));
  EXPECT_EQ(static_cast<int>(no_method.at("status").number), 400);

  const net::Response unknown = client.call("no_such_method");
  EXPECT_EQ(unknown.status, 400);
  EXPECT_EQ(unknown.error_code(), "unknown_method");
}

TEST(ServerTest, UnknownCompositeGets404) {
  Stack stack;
  net::Client client = stack.client();
  const net::Response response = client.call(
      "upsim", server::query_params_json("nope", stack.cs.mapping_t1_p2()));
  EXPECT_EQ(response.status, 404);
  EXPECT_EQ(response.error_code(), "not_found");
}

TEST(ServerTest, OversizedRequestGets413ThenClose) {
  server::ServerOptions so;
  so.max_request_bytes = 64;
  Stack stack({}, so);
  net::Client client = stack.client();
  const std::string big(200, 'x');
  const obs::JsonValue doc = obs::json_parse(client.roundtrip_raw(big));
  EXPECT_EQ(static_cast<int>(doc.at("status").number), 413);
  EXPECT_EQ(doc.at("error").at("code").string, "payload_too_large");
  // The oversized payload was never consumed, so the server closed the
  // stream; the next raw exchange on this connection must fail.
  EXPECT_THROW((void)client.roundtrip_raw("{}"), net::NetError);
}

TEST(ServerTest, StalledPartialFrameIsClosedAfterReadTimeout) {
  server::ServerOptions so;
  so.read_timeout_ms = 150;
  Stack stack({}, so);
  net::Socket sock = net::connect_tcp("127.0.0.1", stack.server.port(), 1000);
  // Two bytes of a four-byte header, then silence.
  ASSERT_NO_THROW(sock.send_all("\x00\x00", 2));
  sock.set_recv_timeout_ms(2000);
  char byte = 0;
  // The server must give up on us and close; we see EOF, not a stall.
  EXPECT_EQ(sock.recv_some(&byte, 1), 0u);
}

TEST(ServerTest, BacklogLimitRepliesBusy503) {
  server::ServerOptions so;
  so.max_backlog = 0;  // every request is "one too many"
  Stack stack({}, so);
  net::Client client = stack.client();
  const net::Response response = client.call("health");
  EXPECT_EQ(response.status, 503);
  EXPECT_EQ(response.error_code(), "busy");
}

TEST(ServerTest, ConnectionLimitRepliesUnavailable503) {
  server::ServerOptions so;
  so.max_connections = 1;
  Stack stack({}, so);
  net::Client first = stack.client();
  ASSERT_TRUE(first.call("health").ok());  // occupies the only slot
  net::Socket second =
      net::connect_tcp("127.0.0.1", stack.server.port(), 1000);
  second.set_recv_timeout_ms(2000);
  const auto frame = net::read_frame(second, 1u << 20);
  ASSERT_TRUE(frame.has_value());
  const obs::JsonValue doc = obs::json_parse(*frame);
  EXPECT_EQ(static_cast<int>(doc.at("status").number), 503);
  EXPECT_EQ(doc.at("error").at("code").string, "too_many_connections");
  // And the rejected socket is closed afterwards.
  char byte = 0;
  EXPECT_EQ(second.recv_some(&byte, 1), 0u);
}

TEST(ServerTest, TruncatedDiscoveryIsSurfacedInUpsimAndPaths) {
  engine::EngineOptions eo;
  eo.discovery.max_paths = 1;  // cut discovery short on purpose
  Stack stack(eo);
  net::Client client = stack.client();
  const std::string params = stack.t1_p2_params();
  const net::Response upsim = client.call("upsim", params);
  ASSERT_TRUE(upsim.ok());
  EXPECT_TRUE(upsim.result().at("truncated").boolean);
  const net::Response paths = client.call("paths", params);
  ASSERT_TRUE(paths.ok());
  EXPECT_TRUE(paths.result().at("truncated").boolean);
  // Per-pair flags are carried too.
  bool any_pair_truncated = false;
  for (const auto& pair : paths.result().at("pairs").array) {
    any_pair_truncated |= pair.at("truncated").boolean;
  }
  EXPECT_TRUE(any_pair_truncated);
}

TEST(ServerTest, InvalidateTopologyBumpsTheServedEpoch) {
  Stack stack;
  net::Client client = stack.client();
  const net::Response before = client.call("health");
  ASSERT_TRUE(before.ok());
  const double epoch_before = before.result().at("epoch").number;

  const net::Response invalidate = client.call("invalidate_topology");
  ASSERT_TRUE(invalidate.ok());
  EXPECT_GT(invalidate.result().at("epoch").number, epoch_before);

  const net::Response after = client.call("health");
  ASSERT_TRUE(after.ok());
  EXPECT_GT(after.result().at("epoch").number, epoch_before);

  // And the model still answers — byte-identically, epochs don't leak into
  // result payloads.
  std::uint64_t id = 0;
  const std::string served =
      client.call_raw("upsim", stack.t1_p2_params("post"), &id);
  casestudy::UsiCaseStudy cs2 = casestudy::make_usi_case_study();
  engine::EngineOptions eo;
  eo.record_in_space = false;
  engine::PerspectiveEngine engine2(*cs2.infrastructure, eo);
  const core::UpsimResult fresh = engine2.query(
      cs2.services->get_composite(casestudy::printing_service_name()),
      cs2.mapping_t1_p2(), "post");
  EXPECT_EQ(served, server::make_response(
                        id, server::upsim_result_json(fresh, false)));
}

TEST(ServerTest, MetricsAndHealthHaveTheDocumentedShape) {
  Stack stack;
  net::Client client = stack.client();
  ASSERT_TRUE(client.call("upsim", stack.t1_p2_params()).ok());

  const net::Response metrics = client.call("metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_TRUE(metrics.result().has("epoch"));
  const obs::JsonValue& cache = metrics.result().at("cache");
  EXPECT_GE(cache.at("size").number, 1.0);
  EXPECT_TRUE(metrics.result().has("metrics"));

  const net::Response health = client.call("health");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health.result().at("status").string, "ok");
  EXPECT_GE(health.result().at("active_connections").number, 1.0);
  EXPECT_FALSE(health.result().at("draining").boolean);
}

TEST(ServerTest, ValidateMethodLintsOverLoopback) {
  Stack stack;
  net::Client client = stack.client();

  // Bare validate: served infrastructure + catalog only — USI is clean.
  const net::Response clean = client.call("validate", "{}");
  ASSERT_TRUE(clean.ok()) << clean.error_message();
  EXPECT_TRUE(clean.result().at("ok").boolean);
  EXPECT_TRUE(clean.result().at("diagnostics").array.empty());

  // The full query inputs (composite + mapping) are clean too.
  const net::Response full = client.call("validate", stack.t1_p2_params());
  ASSERT_TRUE(full.ok()) << full.error_message();
  EXPECT_TRUE(full.result().at("ok").boolean);

  // A dangling requester comes back as findings in a 200 result — lint
  // reports, it does not fail the request.
  mapping::ServiceMapping broken = stack.cs.mapping_t1_p2();
  broken.map("request_printing", "ghost", "printS");
  const net::Response findings = client.call(
      "validate", server::query_params_json(
                      casestudy::printing_service_name(), broken));
  ASSERT_TRUE(findings.ok()) << findings.error_message();
  EXPECT_FALSE(findings.result().at("ok").boolean);
  EXPECT_GE(findings.result().at("errors").number, 1.0);
  bool saw_dangling = false;
  for (const auto& d : findings.result().at("diagnostics").array) {
    if (d.at("code").string == "UPS001") {
      saw_dangling = true;
      EXPECT_EQ(d.at("severity").string, "error");
      EXPECT_NE(d.at("message").string.find("ghost"), std::string::npos);
    }
  }
  EXPECT_TRUE(saw_dangling);

  // An unknown composite is still a request error, mirroring the query
  // methods' lookup semantics.
  const net::Response missing =
      client.call("validate", R"({"composite":"no_such_service"})");
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status, 404);
}

TEST(ServerTest, ValidateSemanticLevelRunsTheSecondPass) {
  Stack stack;
  net::Client client = stack.client();

  // The default level stays byte-identical to an explicit "syntax" — old
  // clients see no change from the semantic pass existing.
  std::uint64_t id = 0;
  const std::string bare = client.call_raw("validate", "{}", &id);
  const std::string syntax =
      client.call_raw("validate", R"({"level":"syntax"})", &id);
  EXPECT_EQ(bare.substr(bare.find(',')), syntax.substr(syntax.find(',')))
      << "default level drifted (ignoring the request-id echo)";

  // Semantic on the served infrastructure alone: infrastructure mode —
  // the USI topology's articulation points come back as notes, still ok.
  const net::Response semantic =
      client.call("validate", R"({"level":"semantic"})");
  ASSERT_TRUE(semantic.ok()) << semantic.error_message();
  EXPECT_TRUE(semantic.result().at("ok").boolean);
  bool saw_spof = false;
  for (const auto& d : semantic.result().at("diagnostics").array) {
    if (d.at("code").string == "UPS100") {
      saw_spof = true;
      EXPECT_EQ(d.at("severity").string, "note");
      EXPECT_FALSE(d.at("fingerprint").string.empty());
    }
  }
  EXPECT_TRUE(saw_spof);

  // With the full query inputs and an unreachable SLO the UPS103 warning
  // joins the findings; "ok" still gates on errors only.
  std::string params = stack.t1_p2_params();
  params.insert(1, R"("level":"semantic","slo":0.9999,)");
  const net::Response slo = client.call("validate", params);
  ASSERT_TRUE(slo.ok()) << slo.error_message();
  EXPECT_TRUE(slo.result().at("ok").boolean);
  bool saw_slo = false;
  for (const auto& d : slo.result().at("diagnostics").array) {
    if (d.at("code").string == "UPS103") {
      saw_slo = true;
      EXPECT_EQ(d.at("severity").string, "warning");
    }
  }
  EXPECT_TRUE(saw_slo);

  // An unknown level is a request error.
  const net::Response bad = client.call("validate", R"({"level":"deep"})");
  EXPECT_EQ(bad.status, server::kStatusBadRequest);
}

TEST(ServerTest, ConcurrentClientsAllSucceed) {
  Stack stack;
  constexpr int kThreads = 4;
  constexpr int kRequests = 40;
  std::atomic<int> ok_count{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      net::Client client = stack.client();
      const std::string params =
          t % 2 == 0 ? stack.t1_p2_params()
                     : server::query_params_json(
                           casestudy::printing_service_name(),
                           stack.cs.mapping_t15_p3(), "view15");
      for (int r = 0; r < kRequests; ++r) {
        try {
          if (client.call("upsim", params).ok()) {
            ok_count.fetch_add(1);
          } else {
            failures.fetch_add(1);
          }
        } catch (const std::exception&) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(ok_count.load(), kThreads * kRequests);
  EXPECT_EQ(failures.load(), 0);
}

/// Turns instrumentation on for a test and restores the default-off state
/// (with a clean tracer) afterwards, so the byte-identical differential
/// tests in this binary never see trace spillover.
struct ObsOn {
  ObsOn() {
    obs::set_enabled(true);
    obs::Tracer::global().clear();
  }
  ~ObsOn() { obs::set_enabled(false); }
};

/// Builds the params object for the `trace` wire method.
std::string trace_params(std::uint64_t trace_id) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("trace");
  w.value(obs::format_trace_id(trace_id));
  w.end_object();
  return std::move(w).str();
}

TEST(ServerTest, TraceMethodReturnsTheRequestsSpanTree) {
  ObsOn obs_on;
  Stack stack;
  net::Client client = stack.client();
  ASSERT_TRUE(client.call("upsim", stack.t1_p2_params()).ok());
  const std::uint64_t trace = client.last_trace_id();
  ASSERT_NE(trace, 0u);

  const net::Response response = client.call("trace", trace_params(trace));
  ASSERT_TRUE(response.ok()) << response.error_message();
  EXPECT_EQ(response.result().at("trace").string,
            obs::format_trace_id(trace));
  const auto& spans = response.result().at("spans").array;
  ASSERT_FALSE(spans.empty());

  // The tree roots at server.request; the engine's query span (a cache
  // miss — this was the perspective's first serve) parents directly
  // under it, and path discovery under that.
  double server_request_id = 0.0;
  double engine_query_id = 0.0;
  double engine_query_parent = -1.0;
  bool saw_discovery = false;
  for (const auto& s : spans) {
    if (s.at("name").string == "server.request") {
      EXPECT_EQ(s.at("parent_span_id").number, 0.0);
      server_request_id = s.at("span_id").number;
    }
    if (s.at("name").string == "engine.query") {
      engine_query_id = s.at("span_id").number;
      engine_query_parent = s.at("parent_span_id").number;
    }
    if (s.at("name").string == "engine.step7_discovery") {
      saw_discovery = true;
    }
  }
  EXPECT_GT(server_request_id, 0.0);
  EXPECT_GT(engine_query_id, 0.0);
  EXPECT_EQ(engine_query_parent, server_request_id);
  EXPECT_TRUE(saw_discovery);

  // Unknown and malformed trace params are request errors.
  EXPECT_EQ(client.call("trace", "{}").status, 400);
  EXPECT_EQ(client.call("trace", R"({"trace":"xyz"})").status, 400);
  // A valid id nobody recorded under is an empty tree, not an error.
  const net::Response empty =
      client.call("trace", trace_params(0xdeadbeefdeadbeefULL));
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.result().at("spans").array.empty());
}

// The satellite contract: 8 clients hammering concurrently, every span
// lands under the right request, no cross-request bleed — and the whole
// binary runs under -DUPSIM_SANITIZE=thread in CI to prove the per-thread
// span buffers race-free.
TEST(ServerTest, TracePropagationIsPerRequestUnderConcurrentClients) {
  ObsOn obs_on;
  Stack stack;
  constexpr int kClients = 8;
  constexpr int kRequests = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      net::Client client = stack.client();
      const std::string params =
          t % 2 == 0 ? stack.t1_p2_params()
                     : server::query_params_json(
                           casestudy::printing_service_name(),
                           stack.cs.mapping_t15_p3(), "view15");
      for (int r = 0; r < kRequests; ++r) {
        try {
          if (!client.call("upsim", params).ok()) {
            failures.fetch_add(1);
            continue;
          }
          const std::uint64_t trace = client.last_trace_id();
          const net::Response tree =
              client.call("trace", trace_params(trace));
          if (!tree.ok()) {
            failures.fetch_add(1);
            continue;
          }
          const auto& spans = tree.result().at("spans").array;
          // Exactly one request ran under this id: one root span, and
          // every other span's parent is inside the tree (a bled-in span
          // from another request would dangle or add a second root).
          std::unordered_set<std::uint64_t> ids;
          for (const auto& s : spans) {
            ids.insert(static_cast<std::uint64_t>(s.at("span_id").number));
          }
          int roots = 0;
          bool closed = !spans.empty();
          for (const auto& s : spans) {
            const auto parent =
                static_cast<std::uint64_t>(s.at("parent_span_id").number);
            if (s.at("name").string == "server.request") ++roots;
            if (parent != 0 && ids.count(parent) == 0) closed = false;
          }
          if (roots != 1 || !closed) failures.fetch_add(1);
        } catch (const std::exception&) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ServerTest, OldFormatFramesWithoutTraceAreStillServed) {
  Stack stack;

  // A client configured like a pre-trace build: no "trace" member at all.
  net::ClientOptions legacy_options;
  legacy_options.port = stack.server.port();
  legacy_options.send_trace = false;
  net::Client legacy(legacy_options);
  const net::Response response =
      legacy.call("upsim", stack.t1_p2_params());
  ASSERT_TRUE(response.ok()) << response.error_message();
  EXPECT_EQ(legacy.last_trace_id(), 0u);

  // Raw old-format frame, exact envelope bytes an old client sends.
  net::Client raw = stack.client();
  const obs::JsonValue health = obs::json_parse(
      raw.roundtrip_raw(R"({"id":1,"method":"health","params":{}})"));
  EXPECT_EQ(static_cast<int>(health.at("status").number), 200);

  // A well-formed trace member is accepted...
  const obs::JsonValue traced = obs::json_parse(raw.roundtrip_raw(
      R"({"id":2,"method":"health","trace":"0123456789abcdef"})"));
  EXPECT_EQ(static_cast<int>(traced.at("status").number), 200);

  // ...but a present-and-malformed one is a 400, not a silent ignore.
  for (const char* bad :
       {R"({"id":3,"method":"health","trace":"xyz"})",
        R"({"id":4,"method":"health","trace":"0000000000000000"})",
        R"({"id":5,"method":"health","trace":17})"}) {
    const obs::JsonValue doc = obs::json_parse(raw.roundtrip_raw(bad));
    EXPECT_EQ(static_cast<int>(doc.at("status").number), 400) << bad;
    EXPECT_EQ(doc.at("error").at("code").string, "bad_request") << bad;
  }
}

TEST(ServerTest, OutOfRangeIntegerParamsGet400) {
  // Every integer wire value goes through one checked conversion: a
  // string, a fraction, a negative number or one beyond 2^53 is a
  // 400 bad_request, never a cast of an out-of-range double.
  Stack stack;
  net::Client raw = stack.client();
  std::string query = stack.t1_p2_params("ints");
  query.back() = ',';  // room for one more member
  for (const std::string bad : {"1e300", "-1", "1.5", R"("x")"}) {
    const std::string requests[] = {
        R"({"id":)" + bad + R"(,"method":"health"})",
        R"({"id":1,"method":"availability","params":)" + query +
            R"("monte_carlo_samples":)" + bad + "}}",
        R"({"id":1,"method":"availability","params":)" + query +
            R"("seed":)" + bad + "}}",
        R"({"id":1,"method":"scenario_step","params":{"count":)" + bad +
            "}}",
        R"({"id":1,"method":"model_activate","model":"acme/usi",)"
        R"("params":{"version":)" + bad + "}}",
        R"({"id":1,"method":"model_delete","model":"acme/usi",)"
        R"("params":{"version":)" + bad + "}}",
    };
    for (const std::string& request : requests) {
      const obs::JsonValue doc = obs::json_parse(raw.roundtrip_raw(request));
      EXPECT_EQ(static_cast<int>(doc.at("status").number), 400) << request;
      EXPECT_EQ(doc.at("error").at("code").string, "bad_request") << request;
    }
  }
  // Each method's lower bound holds too; in-range values are served.
  const obs::JsonValue zero = obs::json_parse(raw.roundtrip_raw(
      R"({"id":1,"method":"scenario_step","params":{"count":0}})"));
  EXPECT_EQ(static_cast<int>(zero.at("status").number), 400);
  const obs::JsonValue largest = obs::json_parse(raw.roundtrip_raw(
      R"({"id":9007199254740992,"method":"scenario_step",)"
      R"("params":{"count":2}})"));
  EXPECT_EQ(static_cast<int>(largest.at("status").number), 200);
  EXPECT_EQ(largest.at("id").number, 9007199254740992.0);
  const obs::JsonValue seeded = obs::json_parse(raw.roundtrip_raw(
      R"({"id":2,"method":"availability","params":)" + query +
      R"("monte_carlo_samples":0,"seed":7}})"));
  EXPECT_EQ(static_cast<int>(seeded.at("status").number), 200);
}

TEST(ServerTest, ClientRejectsOutOfRangeResponseIntegers) {
  // The client reads a response's status and id through the same checked
  // conversion as the server's integer params: a fake server's 1e300, -1
  // or 200.5 is a ParseError, never a cast of an out-of-range double.
  const std::vector<std::string> replies = {
      R"({"status":1e300})", R"({"status":-1})", R"({"status":200.5})",
      R"({"id":1e300,"status":200})"};
  net::Listener listener("127.0.0.1", 0);
  std::thread fake([&] {
    try {
      std::optional<net::Socket> conn = listener.accept(5000);
      if (!conn) return;
      conn->set_recv_timeout_ms(5000);
      for (const std::string& reply : replies) {
        if (!net::read_frame(*conn, 1u << 20)) return;
        net::write_frame(*conn, reply);
      }
    } catch (const std::exception&) {
      // A transport failure leaves a call unanswered; the expectations
      // below report it.
    }
  });
  net::ClientOptions options;
  options.port = listener.port();
  options.max_retries = 0;
  options.request_timeout_ms = 5000;
  net::Client client(options);
  for (const std::string& reply : replies) {
    EXPECT_THROW((void)client.call("health"), ParseError) << reply;
  }
  fake.join();
}

TEST(ServerTest, MetricsReportsResponseCacheEffectiveness) {
  Stack stack;
  net::Client client = stack.client();
  ASSERT_TRUE(client.call("upsim", stack.t1_p2_params()).ok());  // miss
  ASSERT_TRUE(client.call("upsim", stack.t1_p2_params()).ok());  // hit
  const net::Response metrics = client.call("metrics");
  ASSERT_TRUE(metrics.ok());
  const obs::JsonValue& rc = metrics.result().at("response_cache");
  EXPECT_EQ(rc.at("hits").number, 1.0);
  EXPECT_EQ(rc.at("misses").number, 1.0);
  EXPECT_EQ(rc.at("entries").number, 1.0);
  EXPECT_DOUBLE_EQ(rc.at("hit_rate").number, 0.5);
  // Path cache stats ride along in the same result (obs off — these are
  // the always-on counters).
  EXPECT_TRUE(metrics.result().at("cache").has("hit_rate"));
}

TEST(ServerTest, AccessLogRecordsEveryRequestAndMatchesTraceExport) {
  ObsOn obs_on;
  std::ostringstream sink;
  server::AccessLogOptions log_options;
  log_options.stream = &sink;
  server::AccessLog access_log(log_options);
  server::ServerOptions so;
  so.access_log = &access_log;

  std::uint64_t trace_miss = 0;
  std::uint64_t trace_hit = 0;
  std::uint64_t trace_health = 0;
  {
    Stack stack({}, so);
    net::Client client = stack.client();
    ASSERT_TRUE(client.call("upsim", stack.t1_p2_params()).ok());
    trace_miss = client.last_trace_id();
    ASSERT_TRUE(client.call("upsim", stack.t1_p2_params()).ok());
    trace_hit = client.last_trace_id();
    ASSERT_TRUE(client.call("health").ok());
    trace_health = client.last_trace_id();
    (void)client.roundtrip_raw("not json at all");
    // Drain before reading the sink: the worker writes the log line after
    // the response, so the stream is only quiescent once stop() joined.
    stack.server.stop();
  }
  EXPECT_EQ(access_log.lines_written(), 4u);
  EXPECT_EQ(access_log.lines_dropped(), 0u);

  std::vector<obs::JsonValue> lines;
  std::istringstream in(sink.str());
  std::string line;
  while (std::getline(in, line)) lines.push_back(obs::json_parse(line));
  ASSERT_EQ(lines.size(), 4u);

  for (const auto& l : lines) {
    EXPECT_GT(l.at("ts_us").number, 0.0);
    EXPECT_EQ(l.at("trace").string.size(), 16u);
    EXPECT_GE(l.at("queue_wait_us").number, 0.0);
    EXPECT_GT(l.at("handle_us").number, 0.0);
    EXPECT_GT(l.at("bytes_out").number, 0.0);
  }

  EXPECT_EQ(lines[0].at("method").string, "upsim");
  EXPECT_EQ(static_cast<int>(lines[0].at("status").number), 200);
  EXPECT_FALSE(lines[0].at("cache_hit").boolean);
  EXPECT_EQ(lines[0].at("trace").string, obs::format_trace_id(trace_miss));
  EXPECT_EQ(lines[0].at("level").string, "info");

  EXPECT_TRUE(lines[1].at("cache_hit").boolean);
  EXPECT_EQ(lines[1].at("trace").string, obs::format_trace_id(trace_hit));

  EXPECT_EQ(lines[2].at("method").string, "health");
  EXPECT_EQ(lines[2].at("trace").string,
            obs::format_trace_id(trace_health));

  // The unparseable request still logged — server-assigned trace id,
  // empty method, the 400 status.
  EXPECT_EQ(lines[3].at("method").string, "");
  EXPECT_EQ(static_cast<int>(lines[3].at("status").number), 400);
  EXPECT_NE(obs::parse_trace_id(lines[3].at("trace").string), 0u);

  // Acceptance criterion (c): every served request's access-log trace id
  // reappears as a stitched per-request process row in the trace export.
  const std::string chrome = obs::Tracer::global().to_chrome_json_by_trace();
  for (const std::uint64_t trace : {trace_miss, trace_hit, trace_health}) {
    EXPECT_NE(chrome.find("trace " + obs::format_trace_id(trace)),
              std::string::npos);
  }
}

TEST(ServerTest, SlowRequestsPromoteToWarnRecordsWithSpanTrees) {
  ObsOn obs_on;
  std::ostringstream sink;
  server::AccessLogOptions log_options;
  log_options.stream = &sink;
  log_options.slow_ms = 1e-6;  // everything is "slow": promotion always on
  server::AccessLog access_log(log_options);
  server::ServerOptions so;
  so.access_log = &access_log;
  {
    Stack stack({}, so);
    net::Client client = stack.client();
    ASSERT_TRUE(client.call("upsim", stack.t1_p2_params()).ok());
    stack.server.stop();
  }
  std::istringstream in(sink.str());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  const obs::JsonValue record = obs::json_parse(line);
  EXPECT_EQ(record.at("level").string, "warn");
  EXPECT_DOUBLE_EQ(record.at("slow_ms").number, 1e-6);
  const auto& spans = record.at("spans").array;
  ASSERT_FALSE(spans.empty());
  bool saw_request = false;
  bool saw_engine = false;
  for (const auto& s : spans) {
    if (s.at("name").string == "server.request") saw_request = true;
    if (s.at("name").string == "engine.query") saw_engine = true;
  }
  EXPECT_TRUE(saw_request);
  EXPECT_TRUE(saw_engine);
}

TEST(ServerTest, FastRequestsStayInfoUnderSlowThreshold) {
  ObsOn obs_on;
  std::ostringstream sink;
  server::AccessLogOptions log_options;
  log_options.stream = &sink;
  log_options.slow_ms = 1e9;  // nothing is slow
  server::AccessLog access_log(log_options);
  server::ServerOptions so;
  so.access_log = &access_log;
  {
    Stack stack({}, so);
    net::Client client = stack.client();
    ASSERT_TRUE(client.call("health").ok());
    stack.server.stop();
  }
  std::istringstream in(sink.str());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  const obs::JsonValue record = obs::json_parse(line);
  EXPECT_EQ(record.at("level").string, "info");
  EXPECT_FALSE(record.has("slow_ms"));
  EXPECT_FALSE(record.has("spans"));
}

TEST(ServerTest, PrometheusEndpointServesAScrapableRegistry) {
  ObsOn obs_on;
  Stack stack;
  net::Client client = stack.client();
  ASSERT_TRUE(client.call("upsim", stack.t1_p2_params()).ok());
  ASSERT_TRUE(client.call("health").ok());

  server::MetricsHttpServer prom;  // ephemeral port, global-registry body
  prom.start();

  const auto fetch = [&](const std::string& request) {
    net::Socket sock = net::connect_tcp("127.0.0.1", prom.port(), 1000);
    sock.set_recv_timeout_ms(2000);
    sock.send_all(request.data(), request.size());
    std::string out;
    char buf[4096];
    for (;;) {
      const std::size_t n = sock.recv_some(buf, sizeof buf);
      if (n == 0) break;  // Connection: close — EOF ends the exchange
      out.append(buf, n);
    }
    return out;
  };

  const std::string response =
      fetch("GET /metrics HTTP/1.1\r\nHost: t\r\nAccept: */*\r\n\r\n");
  ASSERT_EQ(response.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << response;
  EXPECT_NE(response.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  const std::size_t split = response.find("\r\n\r\n");
  ASSERT_NE(split, std::string::npos);
  const std::string head = response.substr(0, split);
  const std::string body = response.substr(split + 4);
  // Content-Length must frame the body exactly.
  const std::size_t cl = head.find("Content-Length: ");
  ASSERT_NE(cl, std::string::npos);
  EXPECT_EQ(std::stoul(head.substr(cl + 16)), body.size());
  // The registry made it through the renderer: request counters and the
  // latency histogram in cumulative-bucket form.
  EXPECT_NE(body.find("upsim_server_requests_upsim_total"),
            std::string::npos);
  EXPECT_NE(body.find("upsim_server_handle_us_bucket{le=\""),
            std::string::npos);
  EXPECT_NE(body.find("upsim_server_handle_us_count"), std::string::npos);

  EXPECT_EQ(fetch("GET /nope HTTP/1.1\r\n\r\n").rfind("HTTP/1.1 404", 0),
            0u);
  EXPECT_EQ(
      fetch("POST /metrics HTTP/1.1\r\n\r\n").rfind("HTTP/1.1 405", 0), 0u);
  EXPECT_EQ(prom.scrapes_served(), 1u);
  prom.stop();
}

TEST(ServerTest, GracefulStopDrainsInFlightRequestsThenRefuses) {
  Stack stack;
  const std::uint16_t port = stack.server.port();

  // Park a slow request in flight: a Monte-Carlo availability run is long
  // enough that stop() lands mid-handler (the sample count is modest so
  // the run still fits the request timeout under ThreadSanitizer).
  std::string params = stack.t1_p2_params("drain");
  params.back() = ',';
  params += R"("monte_carlo_samples":200000})";
  std::optional<net::Response> slow;
  std::thread requester([&] {
    net::Client client = stack.client(/*request_timeout_ms=*/30000);
    try {
      slow = client.call("availability", params);
    } catch (const std::exception&) {
      // leaving `slow` empty fails the assertions below
    }
  });
  // Let the request reach a pool worker before pulling the plug.
  while (stack.server.requests_in_flight() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  stack.server.stop();
  requester.join();

  // The drain guarantee: the in-flight request completed and its response
  // flushed before stop() tore the connection down.
  ASSERT_TRUE(slow.has_value());
  EXPECT_TRUE(slow->ok()) << slow->error_message();
  EXPECT_GT(slow->result().at("monte_carlo").at("estimate").number, 0.0);

  // And the server is really gone: no listener, no acceptor.
  EXPECT_FALSE(stack.server.running());
  EXPECT_THROW((void)net::connect_tcp("127.0.0.1", port, 500),
               net::NetError);
}

TEST(ServerTest, FineInvalidationEvictsOnlyAffectedResponses) {
  Stack stack;
  net::Client client = stack.client();
  const std::string a_params = stack.t1_p2_params("a");
  const std::string b_params = server::query_params_json(
      casestudy::printing_service_name(), stack.cs.mapping_t15_p3(), "b");

  // Warm both perspectives: two misses, then two hits.
  ASSERT_TRUE(client.call("upsim", a_params).ok());
  ASSERT_TRUE(client.call("upsim", b_params).ok());
  ASSERT_TRUE(client.call("upsim", a_params).ok());
  ASSERT_TRUE(client.call("upsim", b_params).ok());

  // e4 is t15's edge switch: it carries b's paths and none of a's.  A
  // fine-grained invalidation must evict exactly b's served entry and
  // leave the epoch alone — no full flush.
  const net::Response health = client.call("health");
  ASSERT_TRUE(health.ok());
  const double epoch = health.result().at("epoch").number;
  const net::Response invalidate =
      client.call("invalidate_topology", R"({"elements":["e4"]})");
  ASSERT_TRUE(invalidate.ok()) << invalidate.error_message();
  EXPECT_FALSE(invalidate.result().at("full_flush").boolean);
  EXPECT_EQ(invalidate.result().at("response_evictions").number, 1.0);
  // An external topology notice (unlike the fail/repair overlay) must
  // recompute the affected path sets — but only those.
  EXPECT_GT(invalidate.result().at("path_evictions").number, 0.0);
  EXPECT_GT(invalidate.result().at("affected_keys").number, 0.0);
  EXPECT_EQ(invalidate.result().at("epoch").number, epoch);

  // a is still served from cache; b recomputes.
  ASSERT_TRUE(client.call("upsim", a_params).ok());
  ASSERT_TRUE(client.call("upsim", b_params).ok());
  const net::Response metrics = client.call("metrics");
  ASSERT_TRUE(metrics.ok());
  const obs::JsonValue& rc = metrics.result().at("response_cache");
  EXPECT_EQ(rc.at("hits").number, 3.0);    // a, b, then a again post-evict
  EXPECT_EQ(rc.at("misses").number, 3.0);  // a, b cold + b re-serve
  const obs::JsonValue& inv = metrics.result().at("invalidation");
  EXPECT_EQ(inv.at("response_evictions").number, 1.0);
  EXPECT_EQ(inv.at("full_flushes").number, 0.0);
  EXPECT_GT(inv.at("index_elements").number, 0.0);
  EXPECT_EQ(inv.at("down_elements").number, 0.0);

  // Mistyped elements params are a 400, not a silent coarse flush.
  const net::Response bad =
      client.call("invalidate_topology", R"({"elements":[1]})");
  EXPECT_EQ(bad.status, server::kStatusBadRequest);
}

TEST(ServerTest, InvalidatePropertiesAppliesUpdatesOverTheWire) {
  Stack stack;
  net::Client client = stack.client();
  const std::string params = stack.t1_p2_params("prop");

  const net::Response before = client.call("availability", params);
  ASSERT_TRUE(before.ok()) << before.error_message();
  const double a_before = before.result().at("exact").number;

  // Monitoring feeds an observed MTBF collapse of the print server back
  // into the model; the next availability answer must reflect it.
  const net::Response update = client.call(
      "invalidate_properties",
      R"({"updates":[{"element":"printS","attribute":"mtbf","value":100}]})");
  ASSERT_TRUE(update.ok()) << update.error_message();
  EXPECT_FALSE(update.result().at("full_flush").boolean);
  EXPECT_EQ(update.result().at("response_evictions").number, 0.0);

  const net::Response after = client.call("availability", params);
  ASSERT_TRUE(after.ok());
  EXPECT_LT(after.result().at("exact").number, a_before);

  const net::Response bad = client.call(
      "invalidate_properties", R"({"updates":[{"element":"printS"}]})");
  EXPECT_EQ(bad.status, server::kStatusBadRequest);
}

TEST(ServerTest, ScenarioStepReplaysALoadedTraceOverLoopback) {
  Stack stack;
  net::Client client = stack.client();
  const std::string params = stack.t1_p2_params("scn");

  std::uint64_t id = 0;
  const std::string baseline = client.call_raw("upsim", params, &id);

  // Load a two-event trace: fail c1 (t1 keeps a bypass via d2/c2), then
  // repair it.
  const net::Response load = client.call(
      "scenario_load",
      R"({"events":[{"t":1,"kind":"fail_component","element":"c1"},)"
      R"({"t":2,"kind":"repair_component","element":"c1"}]})");
  ASSERT_TRUE(load.ok()) << load.error_message();
  EXPECT_EQ(load.result().at("loaded").number, 2.0);
  EXPECT_EQ(load.result().at("position").number, 0.0);

  const net::Response step1 = client.call("scenario_step", "{}");
  ASSERT_TRUE(step1.ok()) << step1.error_message();
  EXPECT_EQ(step1.result().at("applied").number, 1.0);
  EXPECT_EQ(step1.result().at("position").number, 1.0);
  EXPECT_EQ(step1.result().at("total").number, 2.0);
  EXPECT_FALSE(step1.result().at("full_flush").boolean);
  EXPECT_EQ(step1.result().at("path_evictions").number, 0.0);

  // Mid-scenario the served answer is the degraded overlay, byte-identical
  // to a fresh engine with the same element down.
  std::uint64_t degraded_id = 0;
  const std::string degraded =
      client.call_raw("upsim", params, &degraded_id);
  casestudy::UsiCaseStudy cs2 = casestudy::make_usi_case_study();
  engine::EngineOptions eo;
  eo.record_in_space = false;
  engine::PerspectiveEngine engine2(*cs2.infrastructure, eo);
  (void)engine2.set_element_state({"c1"}, false);
  const core::UpsimResult fresh = engine2.query(
      cs2.services->get_composite(casestudy::printing_service_name()),
      cs2.mapping_t1_p2(), "scn");
  EXPECT_EQ(degraded,
            server::make_response(degraded_id,
                                  server::upsim_result_json(fresh, false)));
  EXPECT_NE(degraded.substr(degraded.find("\"result\"")),
            baseline.substr(baseline.find("\"result\"")));

  // Repair: the trace drains and the baseline bytes come back.
  const net::Response step2 = client.call("scenario_step", R"({"count":5})");
  ASSERT_TRUE(step2.ok());
  EXPECT_EQ(step2.result().at("applied").number, 1.0);
  EXPECT_EQ(step2.result().at("position").number, 2.0);
  std::uint64_t healed_id = 0;
  const std::string healed = client.call_raw("upsim", params, &healed_id);
  EXPECT_EQ(healed.substr(healed.find("\"result\"")),
            baseline.substr(baseline.find("\"result\"")));

  // Past the end: nothing to apply.
  const net::Response drained = client.call("scenario_step", "{}");
  ASSERT_TRUE(drained.ok());
  EXPECT_EQ(drained.result().at("applied").number, 0.0);

  // Malformed events are rejected at load time with a dedicated code.
  const net::Response bad = client.call(
      "scenario_load", R"({"events":[{"kind":"explode"}]})");
  EXPECT_EQ(bad.status, server::kStatusBadRequest);
  EXPECT_EQ(bad.error_code(), "bad_event");
}

TEST(ServerTest, ScenarioStepInlineEventAndCoarseMode) {
  Stack stack;
  net::Client client = stack.client();
  ASSERT_TRUE(client.call("upsim", stack.t1_p2_params()).ok());
  const net::Response health = client.call("health");
  ASSERT_TRUE(health.ok());
  const double epoch = health.result().at("epoch").number;

  // Inline fine event: no epoch movement, no flush.
  const net::Response fine = client.call(
      "scenario_step",
      R"({"event":{"t":0,"kind":"fail_component","element":"c1"}})");
  ASSERT_TRUE(fine.ok()) << fine.error_message();
  EXPECT_EQ(fine.result().at("applied").number, 1.0);
  EXPECT_FALSE(fine.result().at("full_flush").boolean);
  EXPECT_EQ(fine.result().at("epoch").number, epoch);
  EXPECT_GT(fine.result().at("affected_keys").number, 0.0);

  // The same repair in coarse mode forces the pre-index behaviour: a full
  // epoch flush — same final state, different work.
  const net::Response coarse = client.call(
      "scenario_step",
      R"({"mode":"coarse",)"
      R"("event":{"t":1,"kind":"repair_component","element":"c1"}})");
  ASSERT_TRUE(coarse.ok()) << coarse.error_message();
  EXPECT_TRUE(coarse.result().at("full_flush").boolean);
  EXPECT_GT(coarse.result().at("epoch").number, epoch);

  const net::Response bad_mode =
      client.call("scenario_step", R"({"mode":"sloppy"})");
  EXPECT_EQ(bad_mode.status, server::kStatusBadRequest);
}

// ---------------------------------------------------------------------------
// Multi-tenant registry serving: the Server(registry) shape upsimd boots.
// ---------------------------------------------------------------------------

/// The USI case study serialised as bundle XML — v1 of every model these
/// tests upload over the wire.
const std::string& usi_xml() {
  static const std::string xml = [] {
    auto cs = casestudy::make_usi_case_study();
    umlio::UmlBundle bundle;
    bundle.profiles.push_back(std::move(cs.availability_profile));
    bundle.profiles.push_back(std::move(cs.network_profile));
    bundle.classes = std::move(cs.classes);
    bundle.objects = std::move(cs.infrastructure);
    bundle.services = std::move(cs.services);
    return umlio::to_xml(bundle);
  }();
  return xml;
}

/// v1 plus a second uplink dual-homing edge switch e1 onto d2.  The extra
/// link changes the t1 -> p2 path set, so v1/v2 upsim responses are
/// byte-distinguishable — exactly what the hot-swap test needs.
const std::string& usi_v2_xml() {
  static const std::string xml = [] {
    umlio::UmlBundle bundle = umlio::from_xml(usi_xml());
    bundle.objects->link("e1", "d2", "uplink_2650_3750");
    return umlio::to_xml(bundle);
  }();
  return xml;
}

/// Table I t1 -> p2 printing query params, independent of any Stack.
std::string usi_query_params(const char* name = "view") {
  const auto cs = casestudy::make_usi_case_study();
  return server::query_params_json(casestudy::printing_service_name(),
                                   cs.mapping_t1_p2(), name);
}

/// model_upload params embedding `xml` as the JSON-escaped "bundle" member.
std::string bundle_params(const std::string& xml) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("bundle");
  w.value(xml);
  w.end_object();
  return std::move(w).str();
}

/// The expected side of the differential contract for a routed model: a
/// fresh engine built from `bundle_xml` alone, serialised with the same
/// protocol writers the server uses.
std::string expected_upsim_payload(const std::string& bundle_xml,
                                   const std::string& name) {
  const umlio::UmlBundle bundle = umlio::from_xml(bundle_xml);
  engine::EngineOptions eo;
  eo.record_in_space = false;
  eo.threads = 2;
  engine::PerspectiveEngine engine(*bundle.objects, eo);
  const auto cs = casestudy::make_usi_case_study();
  const core::UpsimResult result = engine.query(
      bundle.services->get_composite(casestudy::printing_service_name()),
      cs.mapping_t1_p2(), name);
  return server::upsim_result_json(result, /*paths_only=*/false);
}

/// upsimd's multi-model shape: a server over an external ModelRegistry that
/// boots empty (degraded) and is populated over the wire.
struct RegistryStack {
  registry::ModelRegistry registry;
  server::Server server;

  explicit RegistryStack(registry::TenantQuota quota = {})
      : registry([&] {
          registry::ModelRegistry::Options options;
          options.engine.record_in_space = false;
          options.engine.threads = 2;
          options.quota = quota;
          return options;
        }()),
        server(registry) {
    server.start();
  }

  /// A client whose requests carry the "model" envelope member (empty =
  /// default-model routing, the pre-registry wire shape).
  [[nodiscard]] net::Client client(const std::string& model = "",
                                   int request_timeout_ms = 10000) const {
    net::ClientOptions options;
    options.port = server.port();
    options.request_timeout_ms = request_timeout_ms;
    options.model = model;
    return net::Client(options);
  }
};

TEST(RegistryServerTest, DegradedBootServes503AndRecoversOverTheWire) {
  RegistryStack stack;
  net::Client client = stack.client();

  // No active default: the daemon is up but degraded, and default-routed
  // queries shed with 503 instead of crashing or refusing connections.
  const net::Response degraded = client.call("health");
  ASSERT_TRUE(degraded.ok()) << degraded.error_message();
  EXPECT_EQ(degraded.result().at("status").string, "degraded");
  EXPECT_FALSE(degraded.result().at("serving").boolean);

  const net::Response refused = client.call("upsim", usi_query_params());
  EXPECT_EQ(refused.status, server::kStatusUnavailable);
  EXPECT_EQ(refused.error_code(), "no_default_model");

  // model_upload must name a model; an unknown routed model is 404.
  const net::Response anonymous =
      client.call("model_upload", bundle_params(usi_xml()));
  EXPECT_EQ(anonymous.status, server::kStatusBadRequest);
  EXPECT_EQ(anonymous.error_code(), "model_required");

  net::Client ghost = stack.client("acme/ghost");
  const net::Response unknown = ghost.call("upsim", usi_query_params());
  EXPECT_EQ(unknown.status, server::kStatusNotFound);
  EXPECT_EQ(unknown.error_code(), "unknown_model");

  // Upload + activate the default id over the wire: full recovery without
  // a restart.
  net::Client admin = stack.client(stack.registry.default_id());
  const net::Response up =
      admin.call("model_upload", bundle_params(usi_xml()));
  ASSERT_TRUE(up.ok()) << up.error_message();
  EXPECT_EQ(up.result().at("version").number, 1.0);
  ASSERT_TRUE(admin.call("model_activate").ok());

  const net::Response healthy = client.call("health");
  ASSERT_TRUE(healthy.ok());
  EXPECT_EQ(healthy.result().at("status").string, "ok");
  EXPECT_TRUE(healthy.result().at("serving").boolean);

  const net::Response served = client.call("upsim", usi_query_params());
  ASSERT_TRUE(served.ok()) << served.error_message();
  EXPECT_GT(served.result().at("total_paths").number, 0.0);
}

TEST(RegistryServerTest, ModelLifecycleAndQuotasOverTheWire) {
  registry::TenantQuota quota;
  quota.max_models = 1;
  RegistryStack stack(quota);

  net::Client acme = stack.client("acme/usi");
  ASSERT_TRUE(acme.call("model_upload", bundle_params(usi_xml())).ok());
  const net::Response act = acme.call("model_activate");
  ASSERT_TRUE(act.ok()) << act.error_message();
  EXPECT_EQ(act.result().at("version").number, 1.0);

  // The routed model serves queries even though no default is active, and
  // its bytes match a fresh engine built from the same bundle.
  std::uint64_t id = 0;
  const std::string raw = acme.call_raw("upsim", usi_query_params(), &id);
  EXPECT_EQ(raw, server::make_response(
                     id, expected_upsim_payload(usi_xml(), "view")));

  const net::Response list = stack.client().call("model_list");
  ASSERT_TRUE(list.ok());
  EXPECT_FALSE(list.result().at("serving").boolean);
  ASSERT_EQ(list.result().at("models").array.size(), 1u);
  const obs::JsonValue& entry = list.result().at("models").array.front();
  EXPECT_EQ(entry.at("model").string, "acme/usi");
  EXPECT_EQ(entry.at("tenant").string, "acme");
  EXPECT_EQ(entry.at("active_version").number, 1.0);

  // Same tenant, second model id: over quota -> 403 on the wire.
  net::Client second = stack.client("acme/other");
  const net::Response denied =
      second.call("model_upload", bundle_params(usi_xml()));
  EXPECT_EQ(denied.status, server::kStatusForbidden);
  EXPECT_EQ(denied.error_code(), "model_quota");

  // The active version refuses deletion (409); dropping the whole model
  // works and subsequent routed queries answer 404.
  const net::Response held = acme.call("model_delete", R"({"version":1})");
  EXPECT_EQ(held.status, server::kStatusConflict);
  EXPECT_EQ(held.error_code(), "version_active");
  ASSERT_TRUE(acme.call("model_delete").ok());
  EXPECT_EQ(acme.call("upsim", usi_query_params()).status,
            server::kStatusNotFound);
}

/// model_upload params embedding the bundle plus a "baseline" fingerprint
/// array for wire-side suppression.
std::string bundle_params_with_baseline(
    const std::string& xml, const std::vector<std::string>& fingerprints) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("bundle");
  w.value(xml);
  w.key("baseline");
  w.begin_array();
  for (const std::string& fp : fingerprints) w.value(fp);
  w.end_array();
  w.end_object();
  return std::move(w).str();
}

/// What the registry's infrastructure-mode semantic pass finds in `xml`,
/// as baseline fingerprints — computed in-process, the expected side of
/// the wire differential.
std::vector<std::string> semantic_fingerprints_of(const std::string& xml) {
  const umlio::UmlBundle bundle = umlio::from_xml(xml);
  lint::SemanticInput in;
  in.objects = bundle.objects.get();
  const lint::Report report = lint::analyze_semantic(in);
  std::vector<std::string> fingerprints;
  for (const lint::Diagnostic& d : report.diagnostics()) {
    fingerprints.push_back(lint::fingerprint(d));
  }
  return fingerprints;
}

TEST(RegistryServerTest, UploadCarriesSemanticFindingsAndBaselineSuppresses) {
  RegistryStack stack;
  net::Client acme = stack.client("acme/usi");

  // The USI infrastructure has real articulation points, so an upload's
  // semantic findings are non-empty — warnings on the response, not a
  // rejection (the default quota is not strict).
  const net::Response up = acme.call("model_upload", bundle_params(usi_xml()));
  ASSERT_TRUE(up.ok()) << up.error_message();
  const auto& findings = up.result().at("semantic_findings").array;
  ASSERT_FALSE(findings.empty());
  EXPECT_EQ(up.result().at("semantic_suppressed").number, 0.0);
  std::vector<std::string> fingerprints;
  bool saw_spof = false;
  for (const auto& f : findings) {
    EXPECT_FALSE(f.at("severity").string.empty());
    EXPECT_FALSE(f.at("message").string.empty());
    ASSERT_EQ(f.at("fingerprint").string.size(), 16u);
    fingerprints.push_back(f.at("fingerprint").string);
    if (f.at("code").string == "UPS100") saw_spof = true;
  }
  EXPECT_TRUE(saw_spof);
  EXPECT_EQ(fingerprints, semantic_fingerprints_of(usi_xml()))
      << "wire fingerprints must match an in-process semantic run";

  // Re-upload with every finding baselined: v2 stages with zero remaining
  // findings and the suppression count on the response.
  const net::Response blessed = acme.call(
      "model_upload", bundle_params_with_baseline(usi_xml(), fingerprints));
  ASSERT_TRUE(blessed.ok()) << blessed.error_message();
  EXPECT_EQ(blessed.result().at("version").number, 2.0);
  EXPECT_TRUE(blessed.result().at("semantic_findings").array.empty());
  EXPECT_EQ(blessed.result().at("semantic_suppressed").number,
            static_cast<double>(fingerprints.size()));

  // A malformed baseline member is a request error, not a crash.
  const net::Response bad =
      acme.call("model_upload", R"({"bundle":"x","baseline":[1]})");
  EXPECT_EQ(bad.status, server::kStatusBadRequest);
}

TEST(RegistryServerTest, StrictSemanticQuotaGatesUploadsUnlessBaselined) {
  registry::TenantQuota quota;
  quota.strict_semantic = true;
  RegistryStack stack(quota);
  net::Client acme = stack.client("acme/usi");

  // Under a strict quota the semantic findings promote to a 400 rejection
  // naming the rule codes.
  const net::Response denied =
      acme.call("model_upload", bundle_params(usi_xml()));
  EXPECT_EQ(denied.status, server::kStatusBadRequest);
  EXPECT_EQ(denied.error_code(), "semantic_lint_failed");
  EXPECT_NE(denied.error_message().find("UPS100"), std::string::npos);

  // The same bundle with its findings baselined passes the strict gate,
  // and the model serves.
  const net::Response blessed = acme.call(
      "model_upload", bundle_params_with_baseline(
                          usi_xml(), semantic_fingerprints_of(usi_xml())));
  ASSERT_TRUE(blessed.ok()) << blessed.error_message();
  ASSERT_TRUE(acme.call("model_activate").ok());
  const net::Response served = acme.call("upsim", usi_query_params());
  ASSERT_TRUE(served.ok()) << served.error_message();

  // A *partial* baseline still fails: one unsuppressed finding is enough.
  std::vector<std::string> partial = semantic_fingerprints_of(usi_xml());
  partial.pop_back();
  const net::Response still_denied = acme.call(
      "model_upload", bundle_params_with_baseline(usi_xml(), partial));
  EXPECT_EQ(still_denied.status, server::kStatusBadRequest);
  EXPECT_EQ(still_denied.error_code(), "semantic_lint_failed");
}

// The hot-swap correctness contract, under real concurrency (this binary
// runs under TSan in CI): while reader threads hammer a routed
// perspective, v2 is uploaded and activated.  Every response must be
// byte-identical to ONE whole version — never a half-switched mix — a
// thread that has seen v2 never sees v1 again, every in-flight v1 request
// completes (zero failures), and the drained v1 engine is torn down once
// its refcount releases.
TEST(RegistryServerTest, HotSwapUnderConcurrentQueriesIsAtomicPerVersion) {
  RegistryStack stack;
  const std::string id = "acme/swap";
  net::Client admin = stack.client(id);
  ASSERT_TRUE(admin.call("model_upload", bundle_params(usi_xml())).ok());
  ASSERT_TRUE(admin.call("model_activate").ok());

  const std::string params = usi_query_params("swap");
  const std::string v1_payload = expected_upsim_payload(usi_xml(), "swap");
  const std::string v2_payload =
      expected_upsim_payload(usi_v2_xml(), "swap");
  ASSERT_NE(v1_payload, v2_payload);  // dual-homing e1 must change paths

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> v1_seen{0};
  std::atomic<std::uint64_t> v2_seen{0};
  std::atomic<std::uint64_t> torn{0};

  constexpr int kThreads = 4;
  std::vector<std::thread> readers;
  readers.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    readers.emplace_back([&] {
      net::Client client = stack.client(id);
      bool saw_v2 = false;
      while (!stop.load(std::memory_order_relaxed)) {
        std::uint64_t rid = 0;
        const std::string raw = client.call_raw("upsim", params, &rid);
        if (raw == server::make_response(rid, v1_payload)) {
          v1_seen.fetch_add(1, std::memory_order_relaxed);
          if (saw_v2) torn.fetch_add(1, std::memory_order_relaxed);
        } else if (raw == server::make_response(rid, v2_payload)) {
          v2_seen.fetch_add(1, std::memory_order_relaxed);
          saw_v2 = true;
        } else {
          torn.fetch_add(1, std::memory_order_relaxed);
        }
        completed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Let v1 serve for a while, then swap under load.
  while (completed.load(std::memory_order_relaxed) < 8) {
    std::this_thread::yield();
  }
  ASSERT_TRUE(
      admin.call("model_upload", bundle_params(usi_v2_xml())).ok());
  const net::Response swapped = admin.call("model_activate");
  ASSERT_TRUE(swapped.ok()) << swapped.error_message();
  EXPECT_EQ(swapped.result().at("version").number, 2.0);
  EXPECT_EQ(swapped.result().at("previous").number, 1.0);

  // At most one request per thread was in flight when activate returned;
  // eight more completions guarantee post-swap requests ran.
  const std::uint64_t at_swap = completed.load(std::memory_order_relaxed);
  while (completed.load(std::memory_order_relaxed) < at_swap + 8) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(torn.load(), 0u);     // never a half-switched response
  EXPECT_GT(v1_seen.load(), 0u);  // the old version really served
  EXPECT_GT(v2_seen.load(), 0u);  // the swap really landed under load

  // A fresh request now serves v2 bytes exactly.
  std::uint64_t rid = 0;
  const std::string raw = admin.call_raw("upsim", params, &rid);
  EXPECT_EQ(raw, server::make_response(rid, v2_payload));

  // With every in-flight v1 handle released, the old engine drains away.
  for (int i = 0; i < 500 && stack.registry.draining_count() != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(stack.registry.draining_count(), 0u);
}

TEST(ServerTest, ReportObservationsShiftsAvailabilityWithoutEpochFlush) {
  Stack stack;
  net::Client client = stack.client();
  const std::string params = stack.t1_p2_params("obs");

  // Warm the served-result cache and take the baselines.
  ASSERT_TRUE(client.call("upsim", params).ok());
  std::uint64_t id1 = 0;
  const std::string cached_before = client.call_raw("upsim", params, &id1);
  const std::uint64_t hits_before = stack.server.response_cache_hits();
  EXPECT_GT(hits_before, 0u);

  const net::Response avail_before = client.call("availability", params);
  ASSERT_TRUE(avail_before.ok()) << avail_before.error_message();
  const double a_before = avail_before.result().at("exact").number;

  const net::Response health_before = client.call("health");
  ASSERT_TRUE(health_before.ok());
  const double epoch = health_before.result().at("epoch").number;

  // Twenty observed 50h-up / 2h-down cycles on the print server (a far
  // worse MTBF/MTTR than the modelled values), plus one event for an
  // element the model does not know — skipped, not fatal.
  obs::JsonWriter w;
  w.begin_object();
  w.key("observations");
  w.begin_array();
  double t = 0.0;
  for (int cycle = 0; cycle < 20; ++cycle) {
    t += 50.0;
    w.begin_object();
    w.key("element");
    w.value("printS");
    w.key("kind");
    w.value("fail");
    w.key("t");
    w.value(t);
    w.end_object();
    t += 2.0;
    w.begin_object();
    w.key("element");
    w.value("printS");
    w.key("kind");
    w.value("repair");
    w.key("t");
    w.value(t);
    w.end_object();
  }
  w.begin_object();
  w.key("element");
  w.value("ghost_element");
  w.key("kind");
  w.value("fail");
  w.key("t");
  w.value(t + 1.0);
  w.end_object();
  w.end_array();
  w.end_object();

  const net::Response report =
      client.call("report_observations", std::move(w).str());
  ASSERT_TRUE(report.ok()) << report.error_message();
  EXPECT_EQ(report.result().at("observed").number, 41.0);
  EXPECT_EQ(report.result().at("applied").number, 1.0);
  EXPECT_EQ(report.result().at("skipped").number, 1.0);
  EXPECT_EQ(report.result().at("epoch").number, epoch);
  bool found = false;
  for (const obs::JsonValue& e : report.result().at("estimates").array) {
    if (e.at("element").string != "printS") continue;
    found = true;
    EXPECT_EQ(e.at("up_intervals").number, 20.0);
    EXPECT_EQ(e.at("down_intervals").number, 20.0);
    EXPECT_NEAR(e.at("mtbf").number, 50.0, 1e-9);
    EXPECT_NEAR(e.at("mttr").number, 2.0, 1e-9);
  }
  EXPECT_TRUE(found);

  // Availability followed the worse estimates...
  const net::Response avail_after = client.call("availability", params);
  ASSERT_TRUE(avail_after.ok());
  EXPECT_LT(avail_after.result().at("exact").number, a_before);

  // ...while the epoch and the served-result cache did not move: the
  // perspective re-serves straight from cache, byte-identical modulo the
  // echoed id.
  const net::Response health_after = client.call("health");
  ASSERT_TRUE(health_after.ok());
  EXPECT_EQ(health_after.result().at("epoch").number, epoch);
  std::uint64_t id2 = 0;
  const std::string cached_after = client.call_raw("upsim", params, &id2);
  EXPECT_GT(stack.server.response_cache_hits(), hits_before);
  EXPECT_EQ(cached_before.substr(cached_before.find("\"result\"")),
            cached_after.substr(cached_after.find("\"result\"")));
}

}  // namespace
}  // namespace upsim
