// Client side of the upsimd wire protocol: a blocking, connection-caching
// RPC client with connect/request timeouts and bounded retry on transient
// transport failures.
//
// Every server method is idempotent (queries recompute, invalidations
// converge), so a retry after a connection-level failure is always safe:
// the client transparently reconnects and resends when the TCP connection
// breaks before a response arrives.  A *timeout waiting for the response*
// is not retried — the request may still be executing, and hammering a
// saturated server with duplicates is how overloads become outages — it
// surfaces as TimeoutError for the caller to decide.
//
// The client owns exactly one connection and is NOT thread-safe; serving
// many threads means one Client per thread (see examples/upsim_loadgen.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "net/frame.hpp"
#include "net/socket.hpp"
#include "obs/json.hpp"

namespace upsim::net {

struct ClientOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  int connect_timeout_ms = 2000;
  /// Bounds the wait for a response frame (and any mid-response stall).
  int request_timeout_ms = 30000;
  int send_timeout_ms = 5000;
  /// Cap on a single response payload (0 = the protocol's u32 cap).
  std::size_t max_response_bytes = 64u << 20;
  /// Additional attempts after a transient transport failure (reconnect +
  /// resend); 0 disables retrying.
  int max_retries = 2;
  /// Flat pause between attempts, doubled per retry.
  int retry_backoff_ms = 20;
  /// Stamp every request envelope with a fresh "trace" id so the server's
  /// spans, access-log line, and trace export correlate back to this call.
  /// Off, the envelope matches pre-trace clients byte for byte and the
  /// server assigns an id of its own.
  bool send_trace = true;
  /// Route every request to this registry model ("tenant/model").  Empty
  /// omits the envelope member entirely — the request is byte-identical to
  /// a pre-registry client and the server serves its default model.
  std::string model;
};

/// One parsed server response (see src/server/protocol.hpp for the shape).
struct Response {
  int status = 0;           ///< protocol status code (200 = ok)
  std::uint64_t id = 0;     ///< echoed request id
  obs::JsonValue document;  ///< the whole response document

  [[nodiscard]] bool ok() const noexcept { return status == 200; }
  /// The "result" member; throws NotFoundError on error responses.
  [[nodiscard]] const obs::JsonValue& result() const {
    return document.at("result");
  }
  /// Error code/message of a non-ok response ("" when ok).
  [[nodiscard]] std::string error_code() const;
  [[nodiscard]] std::string error_message() const;
};

/// Parses one response frame.  Throws ParseError when it is not JSON, has
/// no "status" integer from 100 to 599, or has an "id" that is not an
/// integer from 0 to 2^53.
[[nodiscard]] Response parse_response(std::string_view raw);

/// Reads `object`'s member `key` as an integer from 0 to 2^53 (a counter, a
/// version); throws ParseError naming `key` for anything else, and
/// NotFoundError when the member is absent.
[[nodiscard]] std::uint64_t integer_field(const obs::JsonValue& object,
                                          std::string_view key);

class Client {
 public:
  explicit Client(ClientOptions options);
  Client(Client&&) noexcept = default;
  Client& operator=(Client&&) noexcept = default;

  /// Calls `method` with a raw JSON `params` object and parses the
  /// response.  Connects lazily; retries transient transport failures.
  /// Throws NetError/TimeoutError for transport problems and ParseError
  /// for a malformed response — protocol-level errors (status != 200) are
  /// returned, not thrown.
  [[nodiscard]] Response call(std::string_view method,
                              std::string_view params_json = "{}");

  /// Like call() but returns the raw response payload bytes untouched —
  /// the byte-for-byte differential tests compare these against in-process
  /// serialization.  `id_out` receives the request id used.
  [[nodiscard]] std::string call_raw(std::string_view method,
                                     std::string_view params_json,
                                     std::uint64_t* id_out = nullptr);

  /// Sends an arbitrary payload as one frame and returns the next response
  /// frame, no request framing, no retry — protocol tests use this to probe
  /// the server with malformed documents.
  [[nodiscard]] std::string roundtrip_raw(std::string_view payload);

  [[nodiscard]] bool connected() const noexcept { return sock_.valid(); }
  void disconnect() noexcept { sock_.close(); }

  /// Trace id stamped on the most recent call()/call_raw() (0 before the
  /// first call or with options.send_trace off) — retries reuse it, so it
  /// names the request, not the attempt.
  [[nodiscard]] std::uint64_t last_trace_id() const noexcept {
    return last_trace_id_;
  }

  /// Re-points subsequent requests at another model (loadgen rotates one
  /// client across tenants this way).  "" reverts to the default model.
  void set_model(std::string model) { options_.model = std::move(model); }
  [[nodiscard]] const std::string& model() const noexcept {
    return options_.model;
  }

 private:
  void ensure_connected();
  [[nodiscard]] std::string build_request(std::uint64_t id,
                                          std::uint64_t trace_id,
                                          std::string_view method,
                                          std::string_view params_json) const;
  /// One send/receive exchange on the current connection; throws on any
  /// transport failure after disconnecting.
  [[nodiscard]] std::string exchange(std::string_view payload);

  ClientOptions options_;
  Socket sock_;
  std::uint64_t next_id_ = 1;
  std::uint64_t last_trace_id_ = 0;
};

}  // namespace upsim::net
