// The upsimd wire protocol: JSON request/response documents carried in
// net/frame.hpp frames.
//
// Request:
//   {"id": <u64, optional, echoed>, "method": "<name>", "params": {...},
//    "trace": "<16 hex chars, optional>",
//    "model": "<tenant/model, optional>"}
//
// "model" routes the request at the model registry: absent (every
// pre-registry client) the request resolves to the daemon's default model
// and the response bytes are identical to the single-model days; present,
// it names a `tenant/model` id registered through model_upload/
// model_activate.  An unknown id answers 404 unknown_model; a daemon with
// no active default answers 503 no_default_model.
//
// "trace" is the request's trace id (obs::format_trace_id form).  A server
// runs the request under that trace context so every span it records —
// dispatch, engine query, path discovery — carries the id, queryable back
// through the `trace` method and stitched per request in the daemon's
// --trace-out export.  Old clients simply omit the member; the server then
// assigns an id of its own so access-log lines always correlate.
//
// Response:
//   {"id": <echoed>, "status": 200, "result": {...}}
//   {"id": <echoed>, "status": <code>, "error": {"code": "...",
//                                                "message": "..."}}
//
// Methods (see docs/ARCHITECTURE.md for the full field-by-field spec):
//   upsim                  generate a perspective's UPSIM (instances, links,
//                          per-pair paths, truncation flags)
//   paths                  the discovery part only
//   availability           upsim + the dependability estimators
//   invalidate_topology    change class 1: re-import, bump epoch.  With
//                          params "elements" (array of instance/link
//                          names): fine-grained — the epoch holds, only
//                          cached discoveries and served results routed
//                          through those elements are evicted (sound for
//                          non-additive changes; see PerspectiveEngine)
//   invalidate_properties  change class 2: re-project, keep cache.  With
//                          params "elements": also reports the affected
//                          pair count; with params "updates" ([{"element",
//                          "attribute","value"}, ...]): applies per-element
//                          attribute overrides first (observed MTBF/MTTR
//                          feeding back into the model)
//   invalidate_mapping     change class 4: forget one recorded perspective
//   scenario_load          params "events": array of scenario events (see
//                          src/scenario/event.hpp); replaces the server's
//                          loaded trace, result {"loaded", "position"}
//   scenario_step          applies the next params "count" (default 1)
//                          loaded events — or one inline params "event" —
//                          through the fine-grained invalidation path
//                          (params "mode":"coarse" forces the epoch-flush
//                          baseline); result reports applied/position/
//                          epoch/affected_keys/path_evictions/
//                          response_evictions/full_flush
//   validate               lint the served model (optional params
//                          "composite" and "mapping" extend the check to a
//                          query's inputs); result is the lint JSON report,
//                          findings never fail the request
//   metrics                obs registry snapshot + engine path cache and
//                          served-result cache stats (per active model)
//   trace                  finished spans of one trace id (params "trace"),
//                          the per-request span tree
//   health                 liveness, serving state, epoch, connection counts
//   model_upload           params "bundle" (the umlbundle XML document as a
//                          string): parse, lint-gate, build and stage a new
//                          version of the envelope's "model"; result
//                          {"model","version","lint_warnings"}
//   model_activate         switch the envelope's "model" to params
//                          "version" (absent/0 = newest staged); the old
//                          version drains in-flight queries, then tears
//                          down; result {"model","version","previous",
//                          "observations_applied"}
//   model_list             all registered models: id, tenant, active/staged
//                          versions, draining engines, observation counts
//   model_delete           drop params "version" of the envelope's "model"
//                          (staged only), or the whole model when absent
//   report_observations    params "observations": [{"element","kind"
//                          ("fail"/"repair", scenario kind names accepted),
//                          "t" hours}, ...] — folds failure/repair
//                          intervals into the model's running MTBF/MTTR
//                          estimators and pushes the estimates through
//                          element-scoped property overrides (epoch holds,
//                          unrelated cache state survives); result reports
//                          per-element estimates and affected pairs
//
// Status codes (HTTP-flavoured so they read on sight): 200 ok,
// 400 bad request (malformed document/params), 403 tenant quota exceeded
// (model count / bundle bytes), 404 unknown name/model/version,
// 409 conflict (deleting the active version), 413 frame over the size
// limit, 429 tenant over its concurrent-request quota, 500 handler bug,
// 503 overloaded/draining/no default model.
//
// Result serialization is deliberately deterministic — fixed key order,
// fixed float formatting, no timings or other wall-clock noise — so a
// served response is byte-identical to serializing an in-process
// engine::PerspectiveEngine answer (tests/test_server.cpp holds it to
// that).  Both the server and the differential tests call these writers.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "core/analysis.hpp"
#include "core/upsim_generator.hpp"
#include "mapping/mapping.hpp"
#include "obs/json.hpp"
#include "util/error.hpp"

namespace upsim::server {

inline constexpr int kStatusOk = 200;
inline constexpr int kStatusBadRequest = 400;
inline constexpr int kStatusForbidden = 403;
inline constexpr int kStatusNotFound = 404;
inline constexpr int kStatusConflict = 409;
inline constexpr int kStatusPayloadTooLarge = 413;
inline constexpr int kStatusTooManyRequests = 429;
inline constexpr int kStatusInternalError = 500;
inline constexpr int kStatusUnavailable = 503;

/// A request that cannot be served, carrying the protocol status and
/// machine-readable code to respond with.
class ProtocolError : public Error {
 public:
  ProtocolError(int status, std::string code, const std::string& message)
      : Error(message), status_(status), code_(std::move(code)) {}

  [[nodiscard]] int status() const noexcept { return status_; }
  [[nodiscard]] const std::string& code() const noexcept { return code_; }

 private:
  int status_;
  std::string code_;
};

/// One parsed request envelope.
struct Request {
  std::uint64_t id = 0;
  std::string method;
  obs::JsonValue params;        ///< object; empty object when absent
  std::uint64_t trace_id = 0;   ///< 0 = client sent no "trace" member
  std::string model;            ///< "" = route to the default model
};

/// Validates the envelope shape; throws ProtocolError(400) on a missing or
/// mistyped member.  The params *content* is validated by each method.
[[nodiscard]] Request parse_request(const obs::JsonValue& document);

/// The one conversion of an integer wire value (`id`, `count`, `seed`,
/// `version`, `monte_carlo_samples`): obs::json_integer from `min` to 2^53,
/// the largest range in which a JSON number still names every integer
/// exactly.  Anything else — a string, 1.5, -1, 1e300 — throws
/// ProtocolError(400) naming `what`.
[[nodiscard]] std::uint64_t integer_param(const obs::JsonValue& value,
                                          std::string_view what,
                                          std::uint64_t min = 0);

/// Reads params' "mapping": [{"service","requester","provider"}, ...] into
/// a ServiceMapping; throws ProtocolError(400) on shape errors.
[[nodiscard]] mapping::ServiceMapping mapping_from_params(
    const obs::JsonValue& params);

/// Builds the params object for upsim/paths/availability from an in-memory
/// mapping — the client-side inverse of mapping_from_params.  Empty `name`
/// omits the member (server default applies).
[[nodiscard]] std::string query_params_json(
    std::string_view composite, const mapping::ServiceMapping& mapping,
    std::string_view name = {});

/// Envelope builders.  `result_json` must be a complete JSON value.
[[nodiscard]] std::string make_response(std::uint64_t id,
                                        std::string_view result_json);
[[nodiscard]] std::string make_error(std::uint64_t id, int status,
                                     std::string_view code,
                                     std::string_view message);

/// True when any pair's discovery was cut short by a limit — surfaced as
/// the "truncated" member of upsim/paths/availability results so bounded
/// discovery can never silently pass for the exhaustive kind.
[[nodiscard]] bool any_truncated(const core::UpsimResult& result);

/// Result payload for `upsim` (paths_only=false) and `paths` (=true).
[[nodiscard]] std::string upsim_result_json(const core::UpsimResult& result,
                                            bool paths_only);

/// Result payload for `availability`.
[[nodiscard]] std::string availability_json(
    const core::AvailabilityReport& report, const core::UpsimResult& result);

}  // namespace upsim::server
