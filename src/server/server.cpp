#include "server/server.hpp"

#include <chrono>
#include <exception>

#include "lint/analyzer.hpp"
#include "lint/render.hpp"
#include "lint/semantic.hpp"
#include "obs/obs.hpp"

namespace upsim::server {

namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double us_since(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

void count(const std::string& name, std::uint64_t n = 1) {
  if (obs::enabled()) obs::Registry::global().counter(name).add(n);
}

void record(const std::string& name, double v) {
  if (obs::enabled()) obs::Registry::global().histogram(name).record(v);
}

void gauge(const std::string& name, double v) {
  if (obs::enabled()) obs::Registry::global().gauge(name).set(v);
}

}  // namespace

Server::Server(engine::PerspectiveEngine& engine,
               const service::ServiceCatalog& services, ServerOptions options)
    : options_(std::move(options)) {
  registry::ModelRegistry::Options ropts;
  ropts.engine.pool = &engine.pool();  // one pool, not one more per model
  ropts.quota = options_.default_quota;
  owned_registry_ = std::make_unique<registry::ModelRegistry>(std::move(ropts));
  owned_registry_->adopt(engine, services);
  registry_ = owned_registry_.get();
  pool_ = options_.pool != nullptr ? options_.pool : &registry_->pool();
}

Server::Server(registry::ModelRegistry& registry, ServerOptions options)
    : registry_(&registry),
      options_(std::move(options)),
      pool_(options_.pool != nullptr ? options_.pool : &registry.pool()) {}

Server::~Server() { stop(); }

void Server::start() {
  if (running()) throw Error("server: already running");
  listener_.emplace(options_.host, options_.port,
                    static_cast<int>(options_.max_connections));
  port_ = listener_->port();
  draining_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  acceptor_ = std::thread([this] { accept_loop(); });
}

void Server::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  // Drain order: refuse new work first, then stop listening, then
  // half-close readers so in-flight requests finish and flush.
  draining_.store(true, std::memory_order_release);
  if (acceptor_.joinable()) acceptor_.join();
  listener_->close();
  {
    std::lock_guard lock(connections_mutex_);
    for (const auto& conn : connections_) conn->sock.shutdown_read();
  }
  std::vector<std::unique_ptr<Connection>> doomed;
  {
    std::lock_guard lock(connections_mutex_);
    doomed.swap(connections_);
  }
  for (const auto& conn : doomed) {
    if (conn->reader.joinable()) conn->reader.join();
  }
}

void Server::reap_connections() {
  std::lock_guard lock(connections_mutex_);
  for (auto it = connections_.begin(); it != connections_.end();) {
    if ((*it)->finished.load(std::memory_order_acquire)) {
      if ((*it)->reader.joinable()) (*it)->reader.join();
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::accept_loop() {
  while (running()) {
    std::optional<net::Socket> accepted;
    try {
      accepted = listener_->accept(/*timeout_ms=*/50);
    } catch (const std::exception&) {
      break;  // listener closed under us: shutting down
    }
    if (!accepted) continue;
    reap_connections();

    if (active_connections_.load(std::memory_order_relaxed) >=
        options_.max_connections) {
      count("server.connections_rejected");
      try {
        accepted->set_send_timeout_ms(options_.write_timeout_ms);
        net::write_frame(*accepted,
                         make_error(0, kStatusUnavailable,
                                    "too_many_connections",
                                    "connection limit reached"));
      } catch (const std::exception&) {
        // Best effort; the close below says it all.
      }
      continue;
    }

    count("server.connections_accepted");
    auto conn = std::make_unique<Connection>();
    conn->sock = *std::move(accepted);
    Connection* raw = conn.get();
    gauge("server.connections_active",
          static_cast<double>(
              active_connections_.fetch_add(1, std::memory_order_relaxed) +
              1));
    conn->reader = std::thread([this, raw] { serve_connection(raw); });
    std::lock_guard lock(connections_mutex_);
    connections_.push_back(std::move(conn));
  }
}

void Server::serve_connection(Connection* conn) {
  try {
    conn->sock.set_recv_timeout_ms(options_.read_timeout_ms);
    conn->sock.set_send_timeout_ms(options_.write_timeout_ms);
    for (;;) {
      std::string payload;
      try {
        auto frame = net::read_frame(conn->sock, options_.max_request_bytes);
        if (!frame) break;  // clean hang-up (or our drain half-close)
        payload = *std::move(frame);
      } catch (const net::FrameTooLargeError& e) {
        // The oversized payload was never read, so the stream is beyond
        // recovery: report and close.
        write_response(conn, kStatusPayloadTooLarge,
                       make_error(0, kStatusPayloadTooLarge,
                                  "payload_too_large", e.what()));
        break;
      } catch (const net::TimeoutError&) {
        count("server.requests_timed_out");
        break;  // stalled or idle past the budget
      } catch (const net::NetError&) {
        break;  // reset mid-frame etc.; nothing to say to anyone
      }
      count("server.bytes_in",
            payload.size() + net::kFrameHeaderBytes);

      // Rejections get a line too — an access log that hides the 503s
      // would paint a healthy picture of an overloaded server.
      const auto log_unserved = [this, &payload](std::string_view response) {
        if (options_.access_log == nullptr) return;
        AccessRecord rec;
        rec.trace_id = obs::generate_trace_id();
        rec.status = kStatusUnavailable;
        rec.bytes_in = payload.size() + net::kFrameHeaderBytes;
        rec.bytes_out = response.size() + net::kFrameHeaderBytes;
        options_.access_log->log(rec);
      };
      if (draining_.load(std::memory_order_acquire)) {
        const std::string response = make_error(
            0, kStatusUnavailable, "draining", "server is shutting down");
        write_response(conn, kStatusUnavailable, response);
        log_unserved(response);
        continue;
      }
      if (in_flight_.fetch_add(1, std::memory_order_acq_rel) >=
          options_.max_backlog) {
        in_flight_.fetch_sub(1, std::memory_order_acq_rel);
        const std::string response =
            make_error(0, kStatusUnavailable, "busy",
                       "request backlog limit reached");
        write_response(conn, kStatusUnavailable, response);
        log_unserved(response);
        continue;
      }
      // The worker writes the response itself *before* fulfilling the
      // future: the client's wakeup is the very next thing after the
      // handler, and this reader's wakeup happens off the critical path.
      // The reader still waits before touching the socket again, so a
      // connection has at most one request in flight and responses cannot
      // interleave.
      const auto enqueued = Clock::now();
      auto fut = pool_->submit([this, conn, &payload, enqueued] {
        AccessRecord access;
        access.queue_wait_us = us_since(enqueued);
        // Assign a fallback trace id up front so even a request that never
        // parses logs a real, correlatable id.
        access.trace_id = obs::generate_trace_id();
        access.bytes_in = payload.size() + net::kFrameHeaderBytes;
        record("server.queue_wait_us", access.queue_wait_us);
        auto [status, response] = handle_payload(payload, access);
        bool ok = true;
        try {
          write_response(conn, status, response);
        } catch (const std::exception&) {
          ok = false;  // peer vanished or write timeout: drop the connection
        }
        in_flight_.fetch_sub(1, std::memory_order_acq_rel);
        if (options_.access_log != nullptr) {
          access.status = status;
          access.bytes_out = response.size() + net::kFrameHeaderBytes;
          options_.access_log->log(access);
        }
        return ok;
      });
      if (!fut.get()) break;
    }
  } catch (const std::exception&) {
    // Send-side failures (peer vanished, write timeout): drop the
    // connection; per-request accounting already happened.
  }
  conn->sock.shutdown_both();
  gauge("server.connections_active",
        static_cast<double>(
            active_connections_.fetch_sub(1, std::memory_order_relaxed) - 1));
  conn->finished.store(true, std::memory_order_release);
}

void Server::write_response(Connection* conn, int status,
                            std::string_view response) {
  net::write_frame(conn->sock, response);
  count("server.responses." + std::to_string(status));
  count("server.bytes_out", response.size() + net::kFrameHeaderBytes);
}

std::pair<int, std::string> Server::handle_payload(std::string_view payload,
                                                   AccessRecord& access) {
  const auto started = Clock::now();
  std::uint64_t id = 0;
  int status = kStatusOk;
  std::string response;
  try {
    const obs::JsonValue document = obs::json_parse(
        payload, obs::JsonLimits{/*max_depth=*/64,
                                 /*max_bytes=*/options_.max_request_bytes});
    const Request req = parse_request(document);
    id = req.id;
    access.id = req.id;
    access.method = req.method;
    if (req.trace_id != 0) access.trace_id = req.trace_id;
    count("server.requests." + req.method);
    // Everything the handler records — this span, the engine's query and
    // discovery spans, serialization — carries the request's trace id and
    // parents into one per-request tree.
    obs::TraceScope trace({access.trace_id, /*span_id=*/0});
    obs::ScopedSpan span("server.request", "server");
    response = dispatch(req, access);
  } catch (const ProtocolError& e) {
    status = e.status();
    response = make_error(id, status, e.code(), e.what());
  } catch (const registry::RegistryError& e) {
    // Covers QuotaError too: 403 (model count / bundle bytes), 429
    // (concurrency), 404 (unknown model/version), 409 (conflicts).
    status = e.status();
    response = make_error(id, status, e.code(), e.what());
  } catch (const ParseError& e) {
    status = kStatusBadRequest;
    response = make_error(id, status, "parse_error", e.what());
  } catch (const NotFoundError& e) {
    status = kStatusNotFound;
    response = make_error(id, status, "not_found", e.what());
  } catch (const ModelError& e) {
    status = kStatusBadRequest;
    response = make_error(id, status, "invalid_model", e.what());
  } catch (const std::exception& e) {
    status = kStatusInternalError;
    response = make_error(id, status, "internal_error", e.what());
  }
  access.handle_us = us_since(started);
  record("server.handle_us", access.handle_us);
  if (!access.model.empty() && obs::enabled()) {
    const auto slash = access.model.find('/');
    record("server.model.handle_us#tenant=" + access.model.substr(0, slash) +
               ",model=" + access.model.substr(slash + 1),
           access.handle_us);
  }
  return {status, std::move(response)};
}

Server::ModelContext Server::resolve_model(const Request& req,
                                           AccessRecord& access) {
  ModelContext ctx;
  ctx.model = registry_->acquire(req.model);
  if (ctx.model == nullptr) {
    if (req.model.empty()) {
      throw ProtocolError(kStatusUnavailable, "no_default_model",
                          "no default model is active; upload and activate "
                          "one (model_upload/model_activate)");
    }
    throw ProtocolError(kStatusNotFound, "unknown_model",
                        "unknown model '" + req.model + "'");
  }
  const auto slash = ctx.model->id.find('/');
  const std::string tenant = ctx.model->id.substr(0, slash);
  ctx.ticket = registry_->ticket(tenant);
  access.model = ctx.model->id;
  if (obs::enabled()) {
    count("server.model.requests#tenant=" + tenant +
          ",model=" + ctx.model->id.substr(slash + 1));
  }
  return ctx;
}

std::string Server::dispatch(const Request& req, AccessRecord& access) {
  if (req.method == "upsim") {
    const ModelContext ctx = resolve_model(req, access);
    return make_response(req.id,
                         handle_query(ctx, req, /*paths_only=*/false, access));
  }
  if (req.method == "paths") {
    const ModelContext ctx = resolve_model(req, access);
    return make_response(req.id,
                         handle_query(ctx, req, /*paths_only=*/true, access));
  }
  if (req.method == "availability") {
    const ModelContext ctx = resolve_model(req, access);
    return make_response(req.id, handle_availability(ctx, req));
  }
  if (req.method == "invalidate_topology") {
    const ModelContext ctx = resolve_model(req, access);
    return make_response(req.id, handle_invalidate_topology(ctx, req));
  }
  if (req.method == "invalidate_properties") {
    const ModelContext ctx = resolve_model(req, access);
    return make_response(req.id, handle_invalidate_properties(ctx, req));
  }
  if (req.method == "scenario_load") {
    return make_response(req.id, handle_scenario_load(req));
  }
  if (req.method == "scenario_step") {
    const ModelContext ctx = resolve_model(req, access);
    return make_response(req.id, handle_scenario_step(ctx, req));
  }
  if (req.method == "invalidate_mapping") {
    const ModelContext ctx = resolve_model(req, access);
    const obs::JsonValue& params = req.params;
    if (!params.has("name") ||
        params.at("name").kind != obs::JsonValue::Kind::String) {
      throw ProtocolError(kStatusBadRequest, "bad_request",
                          "invalidate_mapping needs params 'name'");
    }
    ctx.engine().notify_mapping_changed(params.at("name").string);
    return make_response(req.id, R"({"ok":true})");
  }
  if (req.method == "validate") {
    const ModelContext ctx = resolve_model(req, access);
    return make_response(req.id, handle_validate(ctx, req));
  }
  if (req.method == "report_observations") {
    const ModelContext ctx = resolve_model(req, access);
    return make_response(req.id, handle_report_observations(ctx, req));
  }
  if (req.method == "model_upload") {
    return make_response(req.id, handle_model_upload(req));
  }
  if (req.method == "model_activate") {
    return make_response(req.id, handle_model_activate(req));
  }
  if (req.method == "model_list") {
    return make_response(req.id, handle_model_list());
  }
  if (req.method == "model_delete") {
    return make_response(req.id, handle_model_delete(req));
  }
  if (req.method == "metrics") {
    return make_response(req.id, handle_metrics());
  }
  if (req.method == "trace") {
    return make_response(req.id, handle_trace(req));
  }
  if (req.method == "health") {
    return make_response(req.id, handle_health());
  }
  throw ProtocolError(kStatusBadRequest, "unknown_method",
                      "unknown method '" + req.method + "'");
}

namespace {

/// Shared params of upsim/paths/availability: composite name, mapping and
/// the optional perspective name ("net_view" when the request sends none).
struct QueryParams {
  const service::CompositeService* composite;
  mapping::ServiceMapping mapping;
  std::string name;
};

QueryParams parse_query_params(const Request& req,
                               const service::ServiceCatalog& services) {
  const obs::JsonValue& params = req.params;
  if (!params.has("composite") ||
      params.at("composite").kind != obs::JsonValue::Kind::String) {
    throw ProtocolError(kStatusBadRequest, "bad_request",
                        "params 'composite' (string) is required");
  }
  QueryParams q{&services.get_composite(params.at("composite").string),
                mapping_from_params(params), "net_view"};
  if (params.has("name")) {
    if (params.at("name").kind != obs::JsonValue::Kind::String) {
      throw ProtocolError(kStatusBadRequest, "bad_request",
                          "params 'name' must be a string");
    }
    q.name = params.at("name").string;
  }
  return q;
}

}  // namespace

std::string Server::handle_query(const ModelContext& ctx, const Request& req,
                                 bool paths_only, AccessRecord& access) {
  QueryParams q = parse_query_params(req, ctx.services());
  if (options_.response_cache_entries == 0) {
    const core::UpsimResult result =
        ctx.engine().query(*q.composite, q.mapping, std::move(q.name));
    return upsim_result_json(result, paths_only);
  }

  // The canonical params serialization doubles as the cache key; the epoch
  // is read *before* the query so a concurrent topology bump can only key
  // fresh data under a stale epoch (a harmless miss later), never stale
  // data under a fresh one.  The model id *and version* prefix the key:
  // tenants can never cross-serve bytes, and a hot-swap implicitly retires
  // the outgoing version's entries ('#' cannot appear in an id, so one
  // model's prefix is never a prefix of another's).
  const std::uint64_t epoch = ctx.engine().epoch();
  const std::string model_prefix =
      ctx.model->id + '#' + std::to_string(ctx.model->version) + ':';
  std::string key = model_prefix + (paths_only ? "paths@" : "upsim@") +
                    std::to_string(epoch) + ':' +
                    query_params_json(q.composite->name(), q.mapping, q.name);
  std::uint64_t version = 0;
  {
    std::shared_lock lock(response_cache_mutex_);
    const auto it = response_cache_.find(key);
    if (it != response_cache_.end()) {
      const std::shared_ptr<const std::string> hit = it->second;
      lock.unlock();
      response_cache_hits_.fetch_add(1, std::memory_order_relaxed);
      access.cache_hit = true;
      count("server.response_cache.hits");
      return *hit;
    }
    version = invalidation_version_;
  }
  response_cache_misses_.fetch_add(1, std::memory_order_relaxed);
  count("server.response_cache.misses");
  engine::QueryInfo info;
  const core::UpsimResult result =
      ctx.engine().query(*q.composite, q.mapping, std::move(q.name), &info);
  auto entry =
      std::make_shared<const std::string>(upsim_result_json(result, paths_only));
  {
    std::unique_lock lock(response_cache_mutex_);
    // A fine-grained eviction between our version snapshot and here may
    // have targeted this key's elements while the engine was computing —
    // the bytes could predate the event.  Serve them (they were valid when
    // computed) but never cache them.
    if (invalidation_version_ == version) {
      if (response_cache_.size() >= options_.response_cache_entries) {
        response_cache_.clear();
        response_index_.clear();
      }
      for (const std::string& element : info.elements) {
        // Index buckets are model-scoped by id (not version): events name
        // elements of the *model*, and eviction must reach entries of any
        // version still in the map.
        response_index_[ctx.model->id + '\x1f' + element].insert(key);
      }
      response_cache_.emplace(std::move(key), entry);
    }
  }
  return *entry;
}

std::string Server::handle_availability(const ModelContext& ctx,
                                        const Request& req) {
  QueryParams q = parse_query_params(req, ctx.services());
  core::AnalysisOptions analysis;
  // Deterministic by default: the Monte-Carlo cross-check only runs when
  // asked, with a fixed (overridable) seed.
  analysis.monte_carlo_samples = 0;
  const obs::JsonValue& params = req.params;
  if (params.has("monte_carlo_samples")) {
    analysis.monte_carlo_samples = integer_param(
        params.at("monte_carlo_samples"), "params 'monte_carlo_samples'");
  }
  if (params.has("seed")) {
    analysis.monte_carlo_seed =
        integer_param(params.at("seed"), "params 'seed'");
  }
  const core::UpsimResult result =
      ctx.engine().query(*q.composite, q.mapping, std::move(q.name));
  return availability_json(core::analyze_availability(result, analysis),
                           result);
}

namespace {

/// Reads params' optional "elements" (array of element names); empty means
/// the member was absent — the caller falls back to the coarse path.
std::vector<std::string> elements_from_params(const obs::JsonValue& params) {
  std::vector<std::string> elements;
  if (!params.has("elements")) return elements;
  const obs::JsonValue& list = params.at("elements");
  if (!list.is_array() || list.array.empty()) {
    throw ProtocolError(kStatusBadRequest, "bad_request",
                        "params 'elements' must be a non-empty array");
  }
  elements.reserve(list.array.size());
  for (const obs::JsonValue& item : list.array) {
    if (item.kind != obs::JsonValue::Kind::String) {
      throw ProtocolError(kStatusBadRequest, "bad_request",
                          "params 'elements' entries must be strings");
    }
    elements.push_back(item.string);
  }
  return elements;
}

std::string invalidation_result_json(std::uint64_t epoch,
                                     const engine::InvalidationReport& report,
                                     std::uint64_t response_evicted) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("epoch");
  w.value(epoch);
  w.key("affected_keys");
  w.value(report.affected_keys);
  w.key("path_evictions");
  w.value(report.evicted_keys);
  w.key("response_evictions");
  w.value(response_evicted);
  w.key("full_flush");
  w.value(report.full_flush);
  w.end_object();
  return std::move(w).str();
}

}  // namespace

std::uint64_t Server::evict_responses_for(
    const std::string& model_id, const std::vector<std::string>& elements) {
  std::unique_lock lock(response_cache_mutex_);
  ++invalidation_version_;
  std::uint64_t evicted = 0;
  for (const std::string& element : elements) {
    const auto bucket = response_index_.find(model_id + '\x1f' + element);
    if (bucket == response_index_.end()) continue;
    for (const std::string& key : bucket->second) {
      evicted += response_cache_.erase(key);
    }
    // Dead keys may linger in other elements' buckets; erasing a missing
    // key is free, and the full clear when the cache fills resets the
    // index, so the garbage is bounded.
    response_index_.erase(bucket);
  }
  if (evicted != 0) {
    response_evictions_.fetch_add(evicted, std::memory_order_relaxed);
    count("server.response_cache.evictions", evicted);
  }
  return evicted;
}

std::uint64_t Server::flush_responses_for(const std::string& model_id) {
  const std::string key_prefix = model_id + '#';
  const std::string index_prefix = model_id + '\x1f';
  std::unique_lock lock(response_cache_mutex_);
  ++invalidation_version_;
  const std::uint64_t retired =
      std::erase_if(response_cache_, [&key_prefix](const auto& kv) {
        return kv.first.starts_with(key_prefix);
      });
  std::erase_if(response_index_, [&index_prefix](const auto& kv) {
    return kv.first.starts_with(index_prefix);
  });
  return retired;
}

std::string Server::handle_invalidate_topology(const ModelContext& ctx,
                                               const Request& req) {
  const std::vector<std::string> elements = elements_from_params(req.params);
  if (elements.empty()) {
    // Coarse: the epoch bump retires every cached served result of this
    // model (the epoch is part of the key); other models' entries stay.
    ctx.engine().notify_topology_changed();
    const std::uint64_t retired = flush_responses_for(ctx.model->id);
    engine::InvalidationReport report;
    report.evicted_keys = retired;  // everything the epoch made unreachable
    report.full_flush = true;
    return invalidation_result_json(ctx.engine().epoch(), report, retired);
  }
  const engine::InvalidationReport report =
      ctx.engine().notify_topology_changed(elements);
  const std::uint64_t evicted = evict_responses_for(ctx.model->id, elements);
  return invalidation_result_json(ctx.engine().epoch(), report, evicted);
}

std::string Server::handle_invalidate_properties(const ModelContext& ctx,
                                                 const Request& req) {
  const obs::JsonValue& params = req.params;
  engine::InvalidationReport report;
  // Optional "updates": targeted attribute overrides (observed MTBF/MTTR
  // feeding back) applied before the re-projection notice.
  if (params.has("updates")) {
    const obs::JsonValue& updates = params.at("updates");
    if (!updates.is_array()) {
      throw ProtocolError(kStatusBadRequest, "bad_request",
                          "params 'updates' must be an array");
    }
    for (const obs::JsonValue& update : updates.array) {
      if (!update.is_object() || !update.has("element") ||
          update.at("element").kind != obs::JsonValue::Kind::String ||
          !update.has("attribute") ||
          update.at("attribute").kind != obs::JsonValue::Kind::String ||
          !update.has("value") ||
          update.at("value").kind != obs::JsonValue::Kind::Number) {
        throw ProtocolError(kStatusBadRequest, "bad_request",
                            "each update needs 'element', 'attribute' "
                            "(strings) and 'value' (number)");
      }
      const engine::InvalidationReport one = ctx.engine().set_property_override(
          update.at("element").string, update.at("attribute").string,
          update.at("value").number);
      report.affected_keys += one.affected_keys;
    }
  }
  const std::vector<std::string> elements = elements_from_params(params);
  if (elements.empty() && !params.has("updates")) {
    ctx.engine().notify_properties_changed();
    report.full_flush = true;
  } else if (!elements.empty()) {
    const engine::InvalidationReport fine =
        ctx.engine().notify_properties_changed(elements);
    report.affected_keys += fine.affected_keys;
  }
  // Property values never appear in upsim/paths bytes (names only) and
  // availability is uncached, so no served results need evicting.
  return invalidation_result_json(ctx.engine().epoch(), report, 0);
}

engine::InvalidationReport Server::apply_scenario_event(
    const ModelContext& ctx, const scenario::Event& event, bool coarse,
    std::uint64_t& response_evicted) {
  engine::InvalidationReport report;
  if (event.is_state_change()) {
    report =
        ctx.engine().set_element_state({event.element}, !event.is_failure());
    if (coarse) {
      ctx.engine().notify_topology_changed();
      report.full_flush = true;
      response_evicted += flush_responses_for(ctx.model->id);
    } else {
      response_evicted += evict_responses_for(ctx.model->id, {event.element});
    }
  } else if (event.kind == scenario::EventKind::PropertyUpdate) {
    report = ctx.engine().set_property_override(event.element, event.attribute,
                                                event.value);
    if (coarse) {
      ctx.engine().notify_properties_changed();
      report.full_flush = true;
    }
    // upsim/paths bytes carry no property values; nothing cached to evict.
  } else {
    // Mapping events: the mapping is a query *input* here — remote clients
    // send the post-migration mapping with their next query, which is a
    // different cache key, so only the engine's recorded run needs
    // forgetting.
    ctx.engine().notify_mapping_changed(event.perspective);
  }
  return report;
}

std::string Server::handle_scenario_load(const Request& req) {
  const obs::JsonValue& params = req.params;
  if (!params.has("events") || !params.at("events").is_array()) {
    throw ProtocolError(kStatusBadRequest, "bad_request",
                        "scenario_load needs params 'events' (array)");
  }
  std::vector<scenario::Event> events;
  events.reserve(params.at("events").array.size());
  for (const obs::JsonValue& entry : params.at("events").array) {
    try {
      events.push_back(scenario::Event::from_json(entry));
    } catch (const ParseError& e) {
      throw ProtocolError(kStatusBadRequest, "bad_event", e.what());
    }
  }
  std::size_t loaded = 0;
  {
    std::lock_guard lock(scenario_mutex_);
    scenario_trace_ = std::move(events);
    scenario_pos_ = 0;
    loaded = scenario_trace_.size();
  }
  obs::JsonWriter w;
  w.begin_object();
  w.key("loaded");
  w.value(static_cast<std::uint64_t>(loaded));
  w.key("position");
  w.value(static_cast<std::uint64_t>(0));
  w.end_object();
  return std::move(w).str();
}

std::string Server::handle_scenario_step(const ModelContext& ctx,
                                         const Request& req) {
  const obs::JsonValue& params = req.params;
  bool coarse = false;
  if (params.has("mode")) {
    if (params.at("mode").kind != obs::JsonValue::Kind::String ||
        (params.at("mode").string != "fine" &&
         params.at("mode").string != "coarse")) {
      throw ProtocolError(kStatusBadRequest, "bad_request",
                          "params 'mode' must be \"fine\" or \"coarse\"");
    }
    coarse = params.at("mode").string == "coarse";
  }

  engine::InvalidationReport total;
  std::uint64_t response_evicted = 0;
  std::uint64_t applied = 0;
  std::size_t position = 0;
  std::size_t loaded = 0;

  if (params.has("event")) {
    scenario::Event event;
    try {
      event = scenario::Event::from_json(params.at("event"));
    } catch (const ParseError& e) {
      throw ProtocolError(kStatusBadRequest, "bad_event", e.what());
    }
    total = apply_scenario_event(ctx, event, coarse, response_evicted);
    applied = 1;
    std::lock_guard lock(scenario_mutex_);
    position = scenario_pos_;
    loaded = scenario_trace_.size();
  } else {
    std::uint64_t want = 1;
    if (params.has("count")) {
      want = integer_param(params.at("count"), "params 'count'", 1);
    }
    // Serialized: steps apply in trace order even under concurrent
    // requests.  Engine mutators synchronize internally; queries keep
    // flowing between events.
    std::lock_guard lock(scenario_mutex_);
    loaded = scenario_trace_.size();
    while (applied < want && scenario_pos_ < scenario_trace_.size()) {
      const engine::InvalidationReport one = apply_scenario_event(
          ctx, scenario_trace_[scenario_pos_], coarse, response_evicted);
      total.affected_keys += one.affected_keys;
      total.evicted_keys += one.evicted_keys;
      total.full_flush = total.full_flush || one.full_flush;
      ++scenario_pos_;
      ++applied;
    }
    position = scenario_pos_;
  }

  obs::JsonWriter w;
  w.begin_object();
  w.key("applied");
  w.value(applied);
  w.key("position");
  w.value(static_cast<std::uint64_t>(position));
  w.key("total");
  w.value(static_cast<std::uint64_t>(loaded));
  w.key("epoch");
  w.value(ctx.engine().epoch());
  w.key("affected_keys");
  w.value(total.affected_keys);
  w.key("path_evictions");
  w.value(total.evicted_keys);
  w.key("response_evictions");
  w.value(response_evicted);
  w.key("full_flush");
  w.value(total.full_flush);
  w.end_object();
  return std::move(w).str();
}

std::string Server::handle_validate(const ModelContext& ctx,
                                    const Request& req) {
  // Lint on demand: the served infrastructure and catalog, plus an optional
  // composite/mapping pair from the params, checked without running a
  // query.  Findings do not fail the request — the report *is* the 200
  // result, and clients branch on its "ok" member.
  lint::Input input;
  input.objects = &ctx.engine().infrastructure();
  input.services = &ctx.services();
  const obs::JsonValue& params = req.params;
  if (params.has("composite")) {
    if (params.at("composite").kind != obs::JsonValue::Kind::String) {
      throw ProtocolError(kStatusBadRequest, "bad_request",
                          "params 'composite' must be a string");
    }
    input.composite =
        &ctx.services().get_composite(params.at("composite").string);
  }
  mapping::ServiceMapping mapping;
  if (params.has("mapping")) {
    mapping = mapping_from_params(params);
    lint::MappingInput entry;
    entry.mapping = &mapping;
    input.mappings.push_back(std::move(entry));
  }
  // "level" selects the analysis depth: "syntax" (the default — response
  // bytes unchanged for old clients) or "semantic", which appends the
  // SemanticAnalyzer's graph-theoretic findings (optionally judged against
  // a numeric "slo" param, UPS103).
  std::string level = "syntax";
  if (params.has("level")) {
    if (params.at("level").kind != obs::JsonValue::Kind::String) {
      throw ProtocolError(kStatusBadRequest, "bad_request",
                          "params 'level' must be a string");
    }
    level = params.at("level").string;
    if (level != "syntax" && level != "semantic") {
      throw ProtocolError(kStatusBadRequest, "bad_request",
                          "params 'level' must be 'syntax' or 'semantic'");
    }
  }
  lint::Report report = lint::analyze(input);
  if (level == "semantic") {
    lint::SemanticOptions sem_options;
    if (params.has("slo")) {
      if (params.at("slo").kind != obs::JsonValue::Kind::Number) {
        throw ProtocolError(kStatusBadRequest, "bad_request",
                            "params 'slo' must be a number");
      }
      sem_options.availability_slo = params.at("slo").number;
    }
    lint::SemanticInput sem_input;
    sem_input.objects = input.objects;
    sem_input.mappings = input.mappings;
    const lint::Report semantic =
        lint::analyze_semantic(sem_input, sem_options);
    for (const lint::Diagnostic& d : semantic.diagnostics()) {
      report.add(d.rule, d.severity, d.message, d.location);
    }
    report.sort();
  }
  return lint::render_json(report);
}

std::string Server::handle_trace(const Request& req) {
  const obs::JsonValue& params = req.params;
  if (!params.has("trace") ||
      params.at("trace").kind != obs::JsonValue::Kind::String) {
    throw ProtocolError(kStatusBadRequest, "bad_request",
                        "trace needs params 'trace' (16 hex characters)");
  }
  const std::uint64_t trace_id =
      obs::parse_trace_id(params.at("trace").string);
  if (trace_id == 0) {
    throw ProtocolError(kStatusBadRequest, "bad_request",
                        "params 'trace' must be 16 hex characters");
  }
  // Only *finished* spans appear, so a request can query its predecessors
  // but never its own still-open server.request span.  With obs disabled
  // nothing was recorded and the tree is empty.
  obs::JsonWriter w;
  w.begin_object();
  w.key("trace");
  w.value(obs::format_trace_id(trace_id));
  w.key("spans");
  w.raw_value(span_tree_json(obs::Tracer::global().spans_for_trace(trace_id)));
  w.end_object();
  return std::move(w).str();
}

std::string Server::handle_metrics() {
  // The top-level epoch/cache/invalidation sections report the *default*
  // model (zeros when degraded) so pre-registry consumers keep parsing;
  // per-model breakouts follow under "models".
  const std::shared_ptr<registry::ServingModel> def =
      registry_->acquire_default();
  const engine::CacheStats stats =
      def != nullptr ? def->engine->cache_stats() : engine::CacheStats{};
  obs::JsonWriter w;
  w.begin_object();
  w.key("epoch");
  w.value(def != nullptr ? def->engine->epoch() : 0);
  w.key("cache");
  w.begin_object();
  w.key("hits");
  w.value(static_cast<std::uint64_t>(stats.hits));
  w.key("misses");
  w.value(static_cast<std::uint64_t>(stats.misses));
  w.key("evictions");
  w.value(static_cast<std::uint64_t>(stats.evictions));
  w.key("size");
  w.value(static_cast<std::uint64_t>(stats.size));
  w.key("hit_rate");
  w.value(stats.hit_rate());
  w.end_object();
  w.key("response_cache");
  w.begin_object();
  {
    const std::uint64_t hits = response_cache_hits();
    const std::uint64_t misses = response_cache_misses();
    std::size_t entries = 0;
    {
      std::shared_lock lock(response_cache_mutex_);
      entries = response_cache_.size();
    }
    w.key("hits");
    w.value(hits);
    w.key("misses");
    w.value(misses);
    w.key("entries");
    w.value(static_cast<std::uint64_t>(entries));
    w.key("hit_rate");
    w.value(hits + misses == 0
                ? 0.0
                : static_cast<double>(hits) /
                      static_cast<double>(hits + misses));
  }
  w.end_object();
  w.key("invalidation");
  w.begin_object();
  {
    const engine::InvalidationStats inv =
        def != nullptr ? def->engine->invalidation_stats()
                       : engine::InvalidationStats{};
    std::size_t index_entries = 0;
    {
      std::shared_lock lock(response_cache_mutex_);
      index_entries = response_index_.size();
    }
    w.key("events");
    w.value(inv.events);
    w.key("affected_keys");
    w.value(inv.affected_keys);
    w.key("path_evictions");
    w.value(inv.evicted_keys);
    w.key("full_flushes");
    w.value(inv.full_flushes);
    w.key("index_elements");
    w.value(static_cast<std::uint64_t>(inv.index_elements));
    w.key("index_links");
    w.value(static_cast<std::uint64_t>(inv.index_links));
    w.key("down_elements");
    w.value(static_cast<std::uint64_t>(inv.down_elements));
    w.key("property_overrides");
    w.value(static_cast<std::uint64_t>(inv.property_overrides));
    w.key("response_evictions");
    w.value(response_cache_evictions());
    w.key("response_index_elements");
    w.value(static_cast<std::uint64_t>(index_entries));
  }
  w.end_object();
  w.key("registry");
  w.begin_object();
  w.key("models");
  w.value(static_cast<std::uint64_t>(registry_->model_count()));
  w.key("tenants");
  w.value(static_cast<std::uint64_t>(registry_->tenant_count()));
  w.key("draining");
  w.value(static_cast<std::uint64_t>(registry_->draining_count()));
  w.end_object();
  w.key("models");
  w.begin_array();
  for (const registry::ModelInfo& info : registry_->list()) {
    if (info.active_version == 0) continue;
    const std::shared_ptr<registry::ServingModel> model =
        registry_->acquire(info.id);
    if (model == nullptr) continue;
    const engine::CacheStats mstats = model->engine->cache_stats();
    w.begin_object();
    w.key("model");
    w.value(info.id);
    w.key("version");
    w.value(model->version);
    w.key("epoch");
    w.value(model->engine->epoch());
    w.key("cache");
    w.begin_object();
    w.key("hits");
    w.value(static_cast<std::uint64_t>(mstats.hits));
    w.key("misses");
    w.value(static_cast<std::uint64_t>(mstats.misses));
    w.key("size");
    w.value(static_cast<std::uint64_t>(mstats.size));
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.key("metrics");
  w.raw_value(obs::Registry::global().snapshot().to_json());
  w.end_object();
  return std::move(w).str();
}

std::string Server::handle_health() {
  const std::shared_ptr<registry::ServingModel> def =
      registry_->acquire_default();
  obs::JsonWriter w;
  w.begin_object();
  w.key("status");
  // "degraded": booted without (or lost) a default model — model_* methods
  // and explicitly routed requests still serve, default-routed ones 503.
  w.value(def != nullptr ? "ok" : "degraded");
  w.key("serving");
  w.value(def != nullptr);
  w.key("epoch");
  w.value(def != nullptr ? def->engine->epoch() : 0);
  w.key("models");
  w.value(static_cast<std::uint64_t>(registry_->model_count()));
  w.key("active_connections");
  w.value(static_cast<std::uint64_t>(active_connections()));
  w.key("in_flight");
  w.value(static_cast<std::uint64_t>(requests_in_flight()));
  w.key("draining");
  w.value(draining_.load(std::memory_order_acquire));
  w.end_object();
  return std::move(w).str();
}

std::string Server::handle_model_upload(const Request& req) {
  if (req.model.empty()) {
    throw ProtocolError(kStatusBadRequest, "model_required",
                        "model_upload routes by the envelope 'model' member "
                        "(tenant/model)");
  }
  const obs::JsonValue& params = req.params;
  if (!params.has("bundle") ||
      params.at("bundle").kind != obs::JsonValue::Kind::String) {
    throw ProtocolError(kStatusBadRequest, "bad_request",
                        "model_upload needs params 'bundle' (the umlbundle "
                        "XML document as a string)");
  }
  registry::UploadOptions upload_options;
  if (params.has("baseline")) {
    // Wire-side baseline: known semantic findings, by fingerprint.
    const obs::JsonValue& baseline = params.at("baseline");
    if (!baseline.is_array()) {
      throw ProtocolError(kStatusBadRequest, "bad_request",
                          "params 'baseline' must be an array of fingerprint "
                          "strings");
    }
    for (const obs::JsonValue& fp : baseline.array) {
      if (fp.kind != obs::JsonValue::Kind::String) {
        throw ProtocolError(kStatusBadRequest, "bad_request",
                            "params 'baseline' must be an array of "
                            "fingerprint strings");
      }
      upload_options.baseline_fingerprints.push_back(fp.string);
    }
  }
  const registry::UploadResult result = registry_->upload(
      req.model, params.at("bundle").string, upload_options);
  obs::JsonWriter w;
  w.begin_object();
  w.key("model");
  w.value(result.id);
  w.key("version");
  w.value(result.version);
  w.key("lint_warnings");
  w.value(static_cast<std::uint64_t>(result.lint_warnings));
  w.key("semantic_findings");
  w.begin_array();
  for (const lint::Diagnostic& d : result.semantic_findings) {
    w.begin_object();
    w.key("code");
    w.value(d.code());
    w.key("severity");
    w.value(lint::to_string(d.severity));
    w.key("message");
    w.value(d.message);
    w.key("fingerprint");
    w.value(lint::fingerprint(d));
    w.end_object();
  }
  w.end_array();
  w.key("semantic_suppressed");
  w.value(static_cast<std::uint64_t>(result.semantic_suppressed));
  w.end_object();
  return std::move(w).str();
}

std::string Server::handle_model_activate(const Request& req) {
  if (req.model.empty()) {
    throw ProtocolError(kStatusBadRequest, "model_required",
                        "model_activate routes by the envelope 'model' "
                        "member (tenant/model)");
  }
  std::uint64_t version = 0;
  const obs::JsonValue& params = req.params;
  if (params.has("version")) {
    version = integer_param(params.at("version"), "params 'version'");
  }
  const registry::ActivateResult result =
      registry_->activate(req.model, version);
  obs::JsonWriter w;
  w.begin_object();
  w.key("model");
  w.value(result.id);
  w.key("version");
  w.value(result.version);
  w.key("previous");
  w.value(result.previous_version);
  w.key("observations_applied");
  w.value(static_cast<std::uint64_t>(result.observations_applied));
  w.end_object();
  return std::move(w).str();
}

std::string Server::handle_model_list() {
  const std::shared_ptr<registry::ServingModel> def =
      registry_->acquire_default();
  obs::JsonWriter w;
  w.begin_object();
  w.key("default");
  w.value(registry_->default_id());
  w.key("serving");
  w.value(def != nullptr);
  w.key("models");
  w.begin_array();
  for (const registry::ModelInfo& info : registry_->list()) {
    w.begin_object();
    w.key("model");
    w.value(info.id);
    w.key("tenant");
    w.value(info.tenant);
    w.key("active_version");
    w.value(info.active_version);
    w.key("staged");
    w.begin_array();
    for (const std::uint64_t v : info.staged_versions) w.value(v);
    w.end_array();
    w.key("draining");
    w.value(static_cast<std::uint64_t>(info.draining));
    w.key("observations");
    w.value(info.observations);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return std::move(w).str();
}

std::string Server::handle_model_delete(const Request& req) {
  if (req.model.empty()) {
    throw ProtocolError(kStatusBadRequest, "model_required",
                        "model_delete routes by the envelope 'model' member "
                        "(tenant/model)");
  }
  std::uint64_t version = 0;
  const obs::JsonValue& params = req.params;
  if (params.has("version")) {
    version = integer_param(params.at("version"), "params 'version'", 1);
  }
  registry_->erase(req.model, version);
  if (version == 0) {
    // The whole model is gone; a future re-upload restarts version
    // numbering, so its cached bytes must not outlive it.
    (void)flush_responses_for(req.model);
  }
  obs::JsonWriter w;
  w.begin_object();
  w.key("model");
  w.value(req.model);
  w.key("deleted");
  w.value(true);
  w.key("version");
  w.value(version);
  w.end_object();
  return std::move(w).str();
}

std::string Server::handle_report_observations(const ModelContext& ctx,
                                               const Request& req) {
  const obs::JsonValue& params = req.params;
  if (!params.has("observations") || !params.at("observations").is_array() ||
      params.at("observations").array.empty()) {
    throw ProtocolError(kStatusBadRequest, "bad_request",
                        "report_observations needs params 'observations' "
                        "(non-empty array)");
  }
  const std::shared_ptr<registry::ObservationStore> store =
      registry_->observations(ctx.model->id);

  // Fold every observation in, tracking which elements were touched so the
  // override pass (and the result) stays scoped to them.
  std::set<std::string> touched;
  std::uint64_t observed = 0;
  for (const obs::JsonValue& entry : params.at("observations").array) {
    if (!entry.is_object() || !entry.has("element") ||
        entry.at("element").kind != obs::JsonValue::Kind::String ||
        !entry.has("kind") ||
        entry.at("kind").kind != obs::JsonValue::Kind::String ||
        !entry.has("t") ||
        entry.at("t").kind != obs::JsonValue::Kind::Number) {
      throw ProtocolError(kStatusBadRequest, "bad_request",
                          "each observation needs 'element', 'kind' "
                          "(strings) and 't' (hours, number)");
    }
    const std::string& kind = entry.at("kind").string;
    bool failure = false;
    if (kind == "fail" || kind == "failure" || kind == "fail_component" ||
        kind == "fail_link") {
      failure = true;
    } else if (kind != "repair" && kind != "repair_component" &&
               kind != "repair_link") {
      throw ProtocolError(kStatusBadRequest, "bad_request",
                          "observation 'kind' must be fail/repair (or a "
                          "scenario state-event kind name)");
    }
    (void)store->observe(entry.at("element").string, failure,
                         entry.at("t").number);
    touched.insert(entry.at("element").string);
    ++observed;
  }

  // Element-scoped feedback: running estimates flow in through
  // set_property_override — the epoch holds, path/response caches survive,
  // only availability answers routed through these elements change.
  const std::vector<std::string> only(touched.begin(), touched.end());
  const registry::ApplyReport applied = store->apply_to(ctx.engine(), &only);

  obs::JsonWriter w;
  w.begin_object();
  w.key("observed");
  w.value(observed);
  w.key("elements");
  w.value(static_cast<std::uint64_t>(touched.size()));
  w.key("applied");
  w.value(static_cast<std::uint64_t>(applied.elements_applied));
  w.key("skipped");
  w.value(static_cast<std::uint64_t>(applied.elements_skipped));
  w.key("affected_keys");
  w.value(applied.affected_keys);
  w.key("epoch");
  w.value(ctx.engine().epoch());
  w.key("estimates");
  w.begin_array();
  for (const std::string& element : only) {
    const registry::Estimate est = store->estimate(element);
    w.begin_object();
    w.key("element");
    w.value(element);
    w.key("up_intervals");
    w.value(est.up_intervals);
    w.key("down_intervals");
    w.value(est.down_intervals);
    if (est.up_intervals > 0) {
      w.key("mtbf");
      w.value(est.mtbf_hours);
    }
    if (est.down_intervals > 0) {
      w.key("mttr");
      w.value(est.mttr_hours);
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return std::move(w).str();
}

}  // namespace upsim::server
