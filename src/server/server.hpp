// upsimd's serving core: a TCP request router over a registry of
// engine::PerspectiveEngines (one per active model version).
//
// Model routing — every request resolves to one registry::ServingModel
// before its handler runs:
//
//   - envelope "model" absent: the registry's *default* model, acquired
//     through a lock-free atomic shared_ptr load (the pre-registry hot
//     path; response bytes are unchanged from the single-model days).  A
//     daemon with no active default (degraded start, default deleted)
//     answers 503 no_default_model but keeps serving model_* methods and
//     health.
//   - envelope "model" present: a shared-lock registry lookup by
//     tenant/model id (404 unknown_model when absent), plus one
//     per-tenant concurrency ticket (429 past the quota).
//
// The resolved shared_ptr rides in a ModelContext for the handler's whole
// run, so a model_activate mid-request cannot tear the engine down under
// it — the old version drains by refcount.  Served-result cache keys are
// prefixed with the model id *and version*, so a hot-swap implicitly
// retires the old version's entries and two tenants can never cross-serve
// each other's bytes; per-element eviction goes through model-scoped
// index buckets for the same reason.
//
// Thread model — one acceptor thread, one lightweight reader thread per
// connection, and a shared util::ThreadPool that executes every request
// body:
//
//   acceptor ──accept──▶ connection reader ──frame──▶ pool worker
//                         (waits for completion)       (engine query +
//                                                       response write)
//
// The reader/pool split keeps slow clients from pinning engine capacity
// (a reader blocked in recv costs a ~dormant thread, not a pool slot) and
// funnels all CPU-bound work through one pool the operator can size.  The
// pool worker writes the response frame itself before signalling the
// reader: the client's wakeup directly follows the handler and the
// reader's wakeup drops off the request's critical path (worth ~one
// context switch per request on a loaded box).  The reader does not touch
// the socket again until the worker is done, so a connection has at most
// one request in flight and responses never interleave; the pool's
// in-flight count is therefore bounded by the connection limit, and
// `max_backlog` bounds it further — past it the server replies 503
// immediately instead of queueing (fail-fast beats unbounded queueing
// under overload).
//
// Graceful shutdown (stop()): stop accepting, half-close every
// connection's read side so no *new* requests arrive, let in-flight
// requests finish and their responses flush, then join everything.  A
// request that slips in during the drain gets a 503 "draining".
//
// Instrumentation (when obs::enabled()): counters
// server.connections_{accepted,rejected}, server.requests.<method>,
// server.responses.<status>, server.bytes_{in,out},
// server.response_cache.{hits,misses}; gauge server.connections_active;
// histograms server.queue_wait_us (frame read → pool worker pickup) and
// server.handle_us (handler execution); spans server.request.  Model-
// routed requests additionally count server.model.requests and record
// server.model.handle_us under the '#tenant=<t>,model=<m>' label-suffix
// convention (src/obs/prometheus.hpp), so the Prometheus exposition
// breaks traffic out per tenant and model.
//
// Trace context: every request runs under an obs::TraceScope for the
// trace id the client sent in the envelope's "trace" member (or one the
// server generates when absent), so server.request and everything the
// engine records beneath it stitch into one per-request tree — queryable
// live through the `trace` method, exported per request via
// obs::Tracer::to_chrome_json_by_trace(), and stamped on every access-log
// line (ServerOptions::access_log).  Response-cache hit/miss counts are
// additionally kept in always-on atomics (response_cache_hits() etc.) so
// the `metrics` method reports cache effectiveness with obs off.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "engine/perspective_engine.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "registry/model_registry.hpp"
#include "scenario/event.hpp"
#include "server/access_log.hpp"
#include "server/protocol.hpp"
#include "service/service.hpp"
#include "util/thread_pool.hpp"

namespace upsim::server {

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; read it back with Server::port().
  std::uint16_t port = 0;
  std::size_t max_connections = 64;
  /// Request frames above this are refused with 413 and the connection is
  /// closed (the payload is unread, so the stream cannot resync).
  std::size_t max_request_bytes = 1u << 20;
  /// In-flight requests beyond which new ones get an immediate 503.
  std::size_t max_backlog = 128;
  /// Per-frame read budget; an idle or stalled connection is closed when it
  /// elapses.  0 = wait forever.
  int read_timeout_ms = 30000;
  int write_timeout_ms = 5000;
  /// Pool that executes request handlers; null = the registry's shared
  /// engine pool.
  util::ThreadPool* pool = nullptr;
  /// Per-tenant quota the legacy (engine, services) constructor configures
  /// its internally owned registry with; ignored when an external registry
  /// is passed (set the quota on that registry instead).
  registry::TenantQuota default_quota;
  /// Entries in the served-result cache for upsim/paths (0 disables).
  /// Results are deterministic for a (method, composite, mapping, name)
  /// tuple at a fixed engine epoch, so repeated perspectives are served
  /// from memory — only the response envelope (the echoed id) is built per
  /// request.  Coarse topology invalidation bumps the epoch, which retires
  /// every cached result; fine-grained events (scenario_step,
  /// invalidate_topology with "elements") keep the epoch and instead evict
  /// through a per-element index fed by the engine's QueryInfo, so a
  /// failure on one branch leaves every unrelated perspective's entry hot.
  /// Property and mapping invalidations don't change these results' bytes
  /// (names only, no property values), so entries survive them.
  /// `availability` is never cached: its numbers follow property changes
  /// that leave the epoch alone.
  std::size_t response_cache_entries = 1024;
  /// Structured access/slow-query log; null disables it.  Must outlive the
  /// server (see src/server/access_log.hpp for the line schema).
  AccessLog* access_log = nullptr;
};

class Server {
 public:
  /// Single-model convenience: wraps an internally owned ModelRegistry and
  /// adopts `engine`/`services` as its already-active default model, so
  /// the pre-registry embedding keeps working unchanged.  The engine,
  /// catalog and (optional) pool must outlive the server.
  Server(engine::PerspectiveEngine& engine,
         const service::ServiceCatalog& services, ServerOptions options = {});

  /// Multi-model serving over an external registry (upsimd's shape).  The
  /// registry and (optional) pool must outlive the server.
  Server(registry::ModelRegistry& registry, ServerOptions options = {});
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;
  /// stop()s if still running.
  ~Server();

  /// Binds, listens and starts accepting.  Throws net::NetError (e.g. port
  /// in use); the server is not running afterwards in that case.
  void start();

  /// Graceful shutdown as described above.  Idempotent; safe to call from
  /// any thread except a handler's own.
  void stop();

  [[nodiscard]] bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }
  /// The bound port (valid after start()).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] std::size_t active_connections() const noexcept {
    return active_connections_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t requests_in_flight() const noexcept {
    return in_flight_.load(std::memory_order_relaxed);
  }
  /// Served-result cache effectiveness, counted whether or not obs is
  /// enabled (the `metrics` method reports these).
  [[nodiscard]] std::uint64_t response_cache_hits() const noexcept {
    return response_cache_hits_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t response_cache_misses() const noexcept {
    return response_cache_misses_.load(std::memory_order_relaxed);
  }
  /// Entries dropped by fine-grained (per-element) invalidation, as opposed
  /// to epoch retirement.
  [[nodiscard]] std::uint64_t response_cache_evictions() const noexcept {
    return response_evictions_.load(std::memory_order_relaxed);
  }

 private:
  struct Connection {
    net::Socket sock;
    std::thread reader;
    std::atomic<bool> finished{false};
  };

  void accept_loop();
  void serve_connection(Connection* conn);
  /// Joins and drops finished connections (called from the acceptor).
  void reap_connections();
  /// Writes one response frame and bumps the response/byte counters.
  /// Callers serialize access to the connection's socket (see the thread
  /// model above); throws on send failure.
  void write_response(Connection* conn, int status, std::string_view response);

  /// Parses and dispatches one request payload; never throws — every
  /// failure becomes an error response.  Returns (status, response payload)
  /// and fills `access` in for the access log (method, id, trace id, cache
  /// hit, handler time).  `access.trace_id` arrives pre-set to a generated
  /// fallback and is replaced by the client's id when the envelope carries
  /// one; the request's spans record under whichever won.
  [[nodiscard]] std::pair<int, std::string> handle_payload(
      std::string_view payload, AccessRecord& access);
  [[nodiscard]] std::string dispatch(const Request& req, AccessRecord& access);

  /// The model one request runs against.  Holding the shared_ptr for the
  /// handler's lifetime is what makes hot-swap drain work: an activate
  /// mid-request swaps the registry's pointer but cannot destroy this
  /// engine until the context releases it.
  struct ModelContext {
    std::shared_ptr<registry::ServingModel> model;
    registry::RequestTicket ticket;

    [[nodiscard]] engine::PerspectiveEngine& engine() const {
      return *model->engine;
    }
    [[nodiscard]] const service::ServiceCatalog& services() const {
      return *model->services;
    }
  };

  /// Resolves the request's model (default or envelope-named), takes the
  /// tenant's concurrency ticket and stamps access/metrics.  Throws
  /// ProtocolError 503 (no default), 404 (unknown id) or QuotaError 429.
  [[nodiscard]] ModelContext resolve_model(const Request& req,
                                           AccessRecord& access);

  // Method handlers (return the result JSON; throw for error responses).
  [[nodiscard]] std::string handle_query(const ModelContext& ctx,
                                         const Request& req, bool paths_only,
                                         AccessRecord& access);
  [[nodiscard]] std::string handle_availability(const ModelContext& ctx,
                                                const Request& req);
  [[nodiscard]] std::string handle_invalidate_topology(const ModelContext& ctx,
                                                       const Request& req);
  [[nodiscard]] std::string handle_invalidate_properties(
      const ModelContext& ctx, const Request& req);
  [[nodiscard]] std::string handle_scenario_load(const Request& req);
  [[nodiscard]] std::string handle_scenario_step(const ModelContext& ctx,
                                                 const Request& req);
  [[nodiscard]] std::string handle_validate(const ModelContext& ctx,
                                            const Request& req);
  [[nodiscard]] std::string handle_trace(const Request& req);
  [[nodiscard]] std::string handle_metrics();
  [[nodiscard]] std::string handle_health();
  [[nodiscard]] std::string handle_model_upload(const Request& req);
  [[nodiscard]] std::string handle_model_activate(const Request& req);
  [[nodiscard]] std::string handle_model_list();
  [[nodiscard]] std::string handle_model_delete(const Request& req);
  [[nodiscard]] std::string handle_report_observations(const ModelContext& ctx,
                                                       const Request& req);

  /// Applies one scenario event through the model's fine-grained engine
  /// surface (or, when `coarse`, the epoch-flush baseline) and evicts the
  /// served results it can influence.  Shared by scenario_step's
  /// loaded-trace and inline-event paths.
  engine::InvalidationReport apply_scenario_event(const ModelContext& ctx,
                                                  const scenario::Event& event,
                                                  bool coarse,
                                                  std::uint64_t& response_evicted);
  /// Drops every cached served result of `model_id` routed through one of
  /// `elements` (per the model-scoped response index) and bumps the
  /// invalidation version so in-flight misses keyed before the event
  /// cannot re-insert stale bytes.
  std::uint64_t evict_responses_for(const std::string& model_id,
                                    const std::vector<std::string>& elements);
  /// Drops every cached served result and index bucket of `model_id`
  /// (coarse flush / model deletion); other models' entries stay hot.
  std::uint64_t flush_responses_for(const std::string& model_id);

  registry::ModelRegistry* registry_;
  std::unique_ptr<registry::ModelRegistry> owned_registry_;
  ServerOptions options_;
  util::ThreadPool* pool_;

  std::optional<net::Listener> listener_;
  std::thread acceptor_;
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::atomic<std::size_t> in_flight_{0};
  std::atomic<std::size_t> active_connections_{0};

  std::mutex connections_mutex_;
  std::vector<std::unique_ptr<Connection>> connections_;

  // Served-result cache (see ServerOptions::response_cache_entries).  The
  // whole map is dropped when full — the working set of perspectives is
  // tiny next to the limit, so eviction sophistication buys nothing here.
  // `response_index_` maps element names to the cached keys whose answers
  // depend on them (from engine::QueryInfo), and `invalidation_version_`
  // closes the stale-insert race: a miss snapshots the version before the
  // engine query and only inserts if no fine-grained eviction ran in
  // between.  Both live under response_cache_mutex_.
  std::shared_mutex response_cache_mutex_;
  std::unordered_map<std::string, std::shared_ptr<const std::string>>
      response_cache_;
  std::unordered_map<std::string, std::unordered_set<std::string>>
      response_index_;
  std::uint64_t invalidation_version_ = 0;
  std::atomic<std::uint64_t> response_cache_hits_{0};
  std::atomic<std::uint64_t> response_cache_misses_{0};
  std::atomic<std::uint64_t> response_evictions_{0};

  // scenario_load's trace and the replay cursor scenario_step advances.
  std::mutex scenario_mutex_;
  std::vector<scenario::Event> scenario_trace_;
  std::size_t scenario_pos_ = 0;
};

}  // namespace upsim::server
