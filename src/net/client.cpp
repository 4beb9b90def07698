#include "net/client.hpp"

#include <chrono>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace upsim::net {

Response parse_response(std::string_view raw) {
  Response r;
  r.document = obs::json_parse(raw);
  if (!r.document.is_object() || !r.document.has("status")) {
    throw ParseError("net: response document has no 'status'");
  }
  const auto status = obs::json_integer(r.document.at("status"), 100, 599);
  if (!status) {
    throw ParseError("net: response 'status' must be an integer from 100 "
                     "to 599");
  }
  r.status = static_cast<int>(*status);
  if (r.document.has("id")) r.id = integer_field(r.document, "id");
  return r;
}

std::uint64_t integer_field(const obs::JsonValue& object,
                            std::string_view key) {
  const auto n = obs::json_integer(object.at(key));
  if (!n) {
    throw ParseError("net: response '" + std::string(key) +
                     "' must be an integer from 0 to 2^53");
  }
  return *n;
}

std::string Response::error_code() const {
  if (ok() || !document.has("error")) return {};
  return document.at("error").at("code").string;
}

std::string Response::error_message() const {
  if (ok() || !document.has("error")) return {};
  return document.at("error").at("message").string;
}

Client::Client(ClientOptions options) : options_(std::move(options)) {}

void Client::ensure_connected() {
  if (sock_.valid()) return;
  sock_ = connect_tcp(options_.host, options_.port,
                      options_.connect_timeout_ms);
  sock_.set_recv_timeout_ms(options_.request_timeout_ms);
  sock_.set_send_timeout_ms(options_.send_timeout_ms);
}

std::string Client::build_request(std::uint64_t id, std::uint64_t trace_id,
                                  std::string_view method,
                                  std::string_view params_json) const {
  obs::JsonWriter w;
  w.begin_object();
  w.key("id");
  w.value(id);
  w.key("method");
  w.value(method);
  w.key("params");
  w.raw_value(params_json.empty() ? "{}" : params_json);
  if (trace_id != 0) {
    w.key("trace");
    w.value(obs::format_trace_id(trace_id));
  }
  if (!options_.model.empty()) {
    w.key("model");
    w.value(options_.model);
  }
  w.end_object();
  return std::move(w).str();
}

std::string Client::exchange(std::string_view payload) {
  try {
    ensure_connected();
    write_frame(sock_, payload);
    auto frame = read_frame(sock_, options_.max_response_bytes);
    if (!frame) {
      throw NetError("net: server closed connection before responding");
    }
    return *std::move(frame);
  } catch (...) {
    // Whatever broke, the connection state is unknown — drop it so the
    // next attempt starts from a fresh connect.
    disconnect();
    throw;
  }
}

std::string Client::call_raw(std::string_view method,
                             std::string_view params_json,
                             std::uint64_t* id_out) {
  const std::uint64_t id = next_id_++;
  if (id_out != nullptr) *id_out = id;
  last_trace_id_ = options_.send_trace ? obs::generate_trace_id() : 0;
  const std::string payload =
      build_request(id, last_trace_id_, method, params_json);

  int backoff_ms = options_.retry_backoff_ms;
  for (int attempt = 0;; ++attempt) {
    try {
      return exchange(payload);
    } catch (const TimeoutError&) {
      // The server may still be working on it; duplicating the request
      // would only deepen the overload.  Not transient by policy.
      throw;
    } catch (const NetError&) {
      if (attempt >= options_.max_retries) throw;
      if (obs::enabled()) {
        obs::Registry::global().counter("client.retries").add(1);
      }
      if (backoff_ms > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
        backoff_ms *= 2;
      }
    }
  }
}

Response Client::call(std::string_view method, std::string_view params_json) {
  return parse_response(call_raw(method, params_json));
}

std::string Client::roundtrip_raw(std::string_view payload) {
  return exchange(payload);
}

}  // namespace upsim::net
