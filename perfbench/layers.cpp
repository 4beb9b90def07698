#include "layers.hpp"

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "core/analysis.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "obs/obs.hpp"
#include "pathdisc/csr.hpp"
#include "scenario/player.hpp"
#include "server/protocol.hpp"
#include "transform/projection.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"

namespace perfbench {

using namespace upsim;

namespace {

/// Category of this benchmark's spans; the library's own spans recorded
/// underneath them keep theirs.
constexpr const char* kCategory = "perfbench";
constexpr std::size_t kMaxReplayRequests = 2000;
/// Perspectives analysed off the request path when the workload's method
/// does not analyse.
constexpr std::size_t kSideAnalyses = 16;

/// Every span of one request or event shares its trace id.
class RequestTrace {
 public:
  explicit RequestTrace(const char* name)
      : scope_({obs::generate_trace_id(), 0}), span_(name, kCategory) {}

 private:
  obs::TraceScope scope_;
  obs::ScopedSpan span_;
};

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

struct LoopbackPair {
  net::Socket client;
  net::Socket server;
};

LoopbackPair connect_pair() {
  net::Listener listener("127.0.0.1", 0);
  LoopbackPair pair;
  pair.client = net::connect_tcp("127.0.0.1", listener.port(), 2000);
  std::optional<net::Socket> accepted = listener.accept(2000);
  if (!accepted) throw Error("replay: loopback accept timed out");
  pair.server = std::move(*accepted);
  for (net::Socket* s : {&pair.client, &pair.server}) {
    s->set_nodelay(true);
    s->set_recv_timeout_ms(5000);
    s->set_send_timeout_ms(5000);
  }
  return pair;
}

std::string read_one(net::Socket& sock) {
  std::optional<std::string> frame = net::read_frame(sock, 0);
  if (!frame) throw Error("replay: loopback peer closed");
  return *std::move(frame);
}

}  // namespace

ReplayCounts replay_layers(const Workload& workload, Reference& reference,
                           double budget_seconds, Report& report,
                           const std::string& spans_path) {
  obs::Tracer::global().clear();
  ReplayCounts counts;
  LoopbackPair pair = connect_pair();
  core::AnalysisOptions analysis;
  analysis.monte_carlo_samples = 0;  // the wire default
  const bool upsim_method = workload.method == Method::Upsim;

  std::vector<double> step7_us;
  std::vector<double> step8_us;
  std::vector<double> paths;
  std::vector<double> request_bytes;
  std::vector<double> response_bytes;
  const std::vector<std::size_t>& seq = workload.sequence[0];
  util::Stopwatch watch;
  for (std::size_t k = 0; k < kMaxReplayRequests &&
                          (k == 0 || watch.seconds() < budget_seconds);
       ++k) {
    const std::size_t p = seq[k % seq.size()];
    const std::string& payload = workload.perspectives[p].payload;
    const RequestTrace trace("perfbench.request");
    net::write_frame(pair.client, payload);
    std::string frame;
    {
      obs::ScopedSpan span("net.frame_read", kCategory);
      frame = read_one(pair.server);
    }
    obs::JsonValue document;
    {
      obs::ScopedSpan span("json.parse", kCategory);
      document = obs::json_parse(frame, obs::JsonLimits{64, 1u << 20});
    }
    server::Request request;
    mapping::ServiceMapping mapping;
    std::string name;
    const service::CompositeService* composite = nullptr;
    {
      obs::ScopedSpan span("server.request_parse", kCategory);
      request = server::parse_request(document);
      mapping = server::mapping_from_params(request.params);
      composite = &reference.model->services().get_composite(
          request.params.at("composite").string);
      name = request.params.at("name").string;
    }
    std::shared_ptr<registry::ServingModel> model;
    {
      obs::ScopedSpan span("registry.model_resolve", kCategory);
      model = reference.registry->acquire(request.model);
    }
    std::optional<core::UpsimResult> queried;
    {
      obs::ScopedSpan span("engine.query", kCategory);
      engine::QueryInfo info;  // the server's cache-miss path asks for it
      queried.emplace(model->engine->query(*composite, mapping, name,
                                           upsim_method ? &info : nullptr));
    }
    const core::UpsimResult& result = *queried;
    step7_us.push_back(result.timings.discovery_ms * 1e3);
    step8_us.push_back(result.timings.merge_emit_ms * 1e3);
    paths.push_back(static_cast<double>(result.total_paths()));
    core::AvailabilityReport availability;
    if (!upsim_method) {
      obs::ScopedSpan span("analysis.analyze", kCategory);
      availability = core::analyze_availability(result, analysis);
    }
    std::string response;
    {
      obs::ScopedSpan span("server.serialization", kCategory);
      response = server::make_response(
          request.id, upsim_method
                          ? server::upsim_result_json(result, false)
                          : server::availability_json(availability, result));
    }
    {
      obs::ScopedSpan span("net.frame_write", kCategory);
      net::write_frame(pair.server, response);
    }
    ++counts.attempted;
    if (read_one(pair.client) != reference.expected[p]) ++counts.failed;
    request_bytes.push_back(
        static_cast<double>(payload.size() + net::kFrameHeaderBytes));
    response_bytes.push_back(
        static_cast<double>(response.size() + net::kFrameHeaderBytes));
  }

  // Analysis is off the upsim request path; time it on a few perspectives
  // so every workload reports it.
  const service::CompositeService& composite =
      reference.model->services().get_composite(workload.composite);
  if (upsim_method) {
    for (std::size_t k = 0; k < std::min(kSideAnalyses, seq.size()); ++k) {
      const Perspective& p = workload.perspectives[seq[k]];
      const core::UpsimResult result =
          reference.engine->query(composite, p.mapping, p.name);
      const RequestTrace trace("perfbench.side_analysis");
      obs::ScopedSpan span("analysis.analyze", kCategory);
      (void)core::analyze_availability(result, analysis);
    }
  }

  // Invalidation: the workload's events (its probe on the read-only
  // workloads) against the warm reference engine.  Both streams end with a
  // repair, so the engine returns to its baseline.
  std::vector<double> affected;
  std::vector<double> evicted;
  double full_flushes = 0.0;
  {
    scenario::ScenarioPlayer player(*reference.engine);
    for (const scenario::Event& event : workload.events.empty()
                                            ? workload.probe_events
                                            : workload.events) {
      engine::InvalidationReport one;
      {
        const RequestTrace trace("perfbench.event");
        obs::ScopedSpan span("engine.invalidate", kCategory);
        one = player.apply(event);
      }
      affected.push_back(static_cast<double>(one.affected_keys));
      evicted.push_back(static_cast<double>(one.evicted_keys));
      if (one.full_flush) full_flushes += 1.0;
    }
  }

  // Cold discovery of every distinct pair, outside any cache.
  std::vector<double> nodes_expanded;
  {
    const graph::Graph g = transform::project(reference.model->infrastructure());
    const pathdisc::CsrView csr(g);
    std::set<std::pair<std::string, std::string>> pairs;
    for (const Perspective& p : workload.perspectives) {
      for (const auto& pair_names : p.mapping.pairs_for(composite)) {
        pairs.emplace(pair_names.requester, pair_names.provider);
      }
    }
    for (const auto& [requester, provider] : pairs) {
      const graph::VertexId s = g.vertex_by_name(requester);
      const graph::VertexId t = g.vertex_by_name(provider);
      pathdisc::PathSet set;
      {
        const RequestTrace trace("perfbench.discovery");
        obs::ScopedSpan span("pathdisc.discover", kCategory);
        set = csr.discover(s, t);
      }
      nodes_expanded.push_back(static_cast<double>(set.nodes_expanded));
    }
  }

  std::map<std::string, std::vector<double>> spans;
  for (const obs::SpanRecord& s : obs::Tracer::global().finished_spans()) {
    if (s.category == kCategory) spans[s.name].push_back(s.duration_us);
  }
  const auto p50 = [&spans](const char* name) {
    return quantile(spans[name], 0.5);
  };
  report.add("net.frame_read_us", p50("net.frame_read"), "us");
  report.add("net.frame_write_us", p50("net.frame_write"), "us");
  report.add("net.request_bytes", mean(request_bytes), "bytes");
  report.add("net.response_bytes", mean(response_bytes), "bytes");
  report.add("json.parse_us", p50("json.parse"), "us");
  report.add("server.request_parse_us", p50("server.request_parse"), "us");
  report.add("server.serialization_us", p50("server.serialization"), "us");
  report.add("registry.model_resolve_us", p50("registry.model_resolve"),
             "us");
  report.add("engine.query_us", p50("engine.query"), "us");
  report.add("engine.step7_discovery_us", quantile(step7_us, 0.5), "us");
  report.add("engine.step8_merge_emit_us", quantile(step8_us, 0.5), "us");
  report.add("engine.invalidate_us", p50("engine.invalidate"), "us");
  report.add("engine.invalidation.affected_keys_per_event", mean(affected),
             "count");
  report.add("engine.invalidation.evicted_keys_per_event", mean(evicted),
             "count");
  report.add("engine.invalidation.full_flushes", full_flushes, "count");
  report.add("pathdisc.discover_us", p50("pathdisc.discover"), "us");
  report.add("pathdisc.nodes_expanded", mean(nodes_expanded), "count");
  report.add("pathdisc.paths_per_query", mean(paths), "count");
  report.add("analysis.analyze_us", p50("analysis.analyze"), "us");

  obs::Tracer::global().write_chrome_json(spans_path, /*group_by_trace=*/true);
  obs::Tracer::global().clear();
  return counts;
}

}  // namespace perfbench
