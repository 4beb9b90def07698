#include "server/protocol.hpp"

#include <optional>

#include "obs/trace.hpp"

namespace upsim::server {

namespace {

/// params member access that turns shape errors into 400s with the member
/// path in the message (the engine's own errors handle semantic problems).
const obs::JsonValue& require(const obs::JsonValue& object,
                              std::string_view key,
                              obs::JsonValue::Kind kind,
                              std::string_view what) {
  if (!object.is_object() || !object.has(key)) {
    throw ProtocolError(kStatusBadRequest, "bad_request",
                        "missing " + std::string(what));
  }
  const obs::JsonValue& v = object.at(key);
  if (v.kind != kind) {
    throw ProtocolError(kStatusBadRequest, "bad_request",
                        std::string(what) + " has the wrong type");
  }
  return v;
}

void write_pairs(obs::JsonWriter& w, const core::UpsimResult& result) {
  w.key("pairs");
  w.begin_array();
  for (std::size_t i = 0; i < result.pairs.size(); ++i) {
    const auto& pair = result.pairs[i];
    w.begin_object();
    w.key("service");
    w.value(pair.atomic_service);
    w.key("requester");
    w.value(pair.requester);
    w.key("provider");
    w.value(pair.provider);
    w.key("truncated");
    w.value(result.path_sets[i].truncated);
    w.key("paths");
    w.begin_array();
    for (const auto& path : result.path_names(i)) {
      w.begin_array();
      for (const auto& name : path) w.value(name);
      w.end_array();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
}

}  // namespace

std::uint64_t integer_param(const obs::JsonValue& value, std::string_view what,
                            std::uint64_t min) {
  const std::optional<std::uint64_t> n = obs::json_integer(value, min);
  if (!n) {
    throw ProtocolError(kStatusBadRequest, "bad_request",
                        std::string(what) + " must be an integer from " +
                            std::to_string(min) + " to 2^53");
  }
  return *n;
}

Request parse_request(const obs::JsonValue& document) {
  if (!document.is_object()) {
    throw ProtocolError(kStatusBadRequest, "bad_request",
                        "request must be a JSON object");
  }
  Request req;
  if (document.has("id")) {
    req.id = integer_param(document.at("id"), "request 'id'");
  }
  req.method =
      require(document, "method", obs::JsonValue::Kind::String, "'method'")
          .string;
  if (document.has("params")) {
    const obs::JsonValue& params = document.at("params");
    if (!params.is_object()) {
      throw ProtocolError(kStatusBadRequest, "bad_request",
                          "request 'params' must be an object");
    }
    req.params = params;
  } else {
    req.params.kind = obs::JsonValue::Kind::Object;
  }
  if (document.has("trace")) {
    const obs::JsonValue& trace = document.at("trace");
    if (trace.kind != obs::JsonValue::Kind::String ||
        (req.trace_id = obs::parse_trace_id(trace.string)) == 0) {
      throw ProtocolError(kStatusBadRequest, "bad_request",
                          "request 'trace' must be 16 hex characters");
    }
  }
  if (document.has("model")) {
    const obs::JsonValue& model = document.at("model");
    if (model.kind != obs::JsonValue::Kind::String || model.string.empty()) {
      throw ProtocolError(kStatusBadRequest, "bad_request",
                          "request 'model' must be a non-empty string");
    }
    req.model = model.string;
  }
  return req;
}

mapping::ServiceMapping mapping_from_params(const obs::JsonValue& params) {
  const obs::JsonValue& rows = require(
      params, "mapping", obs::JsonValue::Kind::Array, "params 'mapping'");
  if (rows.array.empty()) {
    throw ProtocolError(kStatusBadRequest, "bad_request",
                        "params 'mapping' must not be empty");
  }
  mapping::ServiceMapping m;
  for (const obs::JsonValue& row : rows.array) {
    m.map(require(row, "service", obs::JsonValue::Kind::String,
                  "mapping entry 'service'")
              .string,
          require(row, "requester", obs::JsonValue::Kind::String,
                  "mapping entry 'requester'")
              .string,
          require(row, "provider", obs::JsonValue::Kind::String,
                  "mapping entry 'provider'")
              .string);
  }
  return m;
}

std::string query_params_json(std::string_view composite,
                              const mapping::ServiceMapping& mapping,
                              std::string_view name) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("composite");
  w.value(composite);
  w.key("mapping");
  w.begin_array();
  for (const auto& pair : mapping.pairs()) {
    w.begin_object();
    w.key("service");
    w.value(pair.atomic_service);
    w.key("requester");
    w.value(pair.requester);
    w.key("provider");
    w.value(pair.provider);
    w.end_object();
  }
  w.end_array();
  if (!name.empty()) {
    w.key("name");
    w.value(name);
  }
  w.end_object();
  return std::move(w).str();
}

std::string make_response(std::uint64_t id, std::string_view result_json) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("id");
  w.value(id);
  w.key("status");
  w.value(kStatusOk);
  w.key("result");
  w.raw_value(result_json);
  w.end_object();
  return std::move(w).str();
}

std::string make_error(std::uint64_t id, int status, std::string_view code,
                       std::string_view message) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("id");
  w.value(id);
  w.key("status");
  w.value(status);
  w.key("error");
  w.begin_object();
  w.key("code");
  w.value(code);
  w.key("message");
  w.value(message);
  w.end_object();
  w.end_object();
  return std::move(w).str();
}

bool any_truncated(const core::UpsimResult& result) {
  for (const auto& set : result.path_sets) {
    if (set.truncated) return true;
  }
  return false;
}

std::string upsim_result_json(const core::UpsimResult& result,
                              bool paths_only) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("name");
  w.value(result.upsim.name());
  w.key("truncated");
  w.value(any_truncated(result));
  w.key("total_paths");
  w.value(static_cast<std::uint64_t>(result.total_paths()));
  if (!paths_only) {
    w.key("instances");
    w.begin_array();
    for (const auto* inst : result.upsim.instances()) w.value(inst->name());
    w.end_array();
    w.key("links");
    w.begin_array();
    for (const auto& link : result.upsim.links()) w.value(link->name());
    w.end_array();
  }
  write_pairs(w, result);
  w.end_object();
  return std::move(w).str();
}

std::string availability_json(const core::AvailabilityReport& report,
                              const core::UpsimResult& result) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("name");
  w.value(result.upsim.name());
  w.key("truncated");
  w.value(any_truncated(result));
  w.key("exact");
  w.value(report.exact);
  w.key("independent_pairs");
  w.value(report.independent_pairs);
  w.key("rbd");
  w.value(report.rbd);
  w.key("exact_linear");
  w.value(report.exact_linear);
  w.key("per_pair_exact");
  w.begin_array();
  for (const double v : report.per_pair_exact) w.value(v);
  w.end_array();
  w.key("monte_carlo");
  w.begin_object();
  w.key("estimate");
  w.value(report.monte_carlo.estimate);
  w.key("std_error");
  w.value(report.monte_carlo.std_error);
  w.key("samples");
  w.value(static_cast<std::uint64_t>(report.monte_carlo.samples));
  w.end_object();
  w.end_object();
  return std::move(w).str();
}

}  // namespace upsim::server
