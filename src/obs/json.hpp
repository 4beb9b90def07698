// Minimal JSON support for the observability exporters: a streaming writer
// (used by the Chrome-trace and metrics exporters) and a strict
// recursive-descent reader (used by tests to prove the exported documents
// are well-formed, and by tools that consume BENCH_*.json).
//
// The reader accepts exactly RFC 8259 JSON — objects, arrays, strings with
// the standard escapes (\uXXXX included, surrogate pairs validated), finite
// numbers, true/false/null — and rejects everything else with a ParseError
// carrying line/column, mirroring src/xml's error discipline.
//
// Because the reader also parses *untrusted network input* (the upsimd wire
// protocol in src/server), every parse is bounded: a nesting-depth limit
// keeps a hostile "[[[[..." from exhausting the parser's recursion stack,
// and a document-size limit rejects oversized payloads before any work.
// Both default on; callers that trust their input can raise or lift them
// through JsonLimits.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace upsim::obs {

/// Escapes `s` for inclusion inside a JSON string literal (no quotes added).
[[nodiscard]] std::string json_escape(std::string_view s);

/// Append-only JSON document builder.  The caller is responsible for
/// well-formed nesting; commas and colons are inserted automatically.
class JsonWriter {
 public:
  void begin_object();
  void end_object();
  void begin_array();
  void end_array();
  void key(std::string_view k);
  void value(std::string_view s);
  void value(const char* s) { value(std::string_view(s)); }
  void value(double v);
  void value(std::uint64_t v);
  void value(std::int64_t v);
  void value(int v) { value(static_cast<std::int64_t>(v)); }
  void value(bool v);
  void null();
  /// Splices `json` — which must already be a well-formed JSON value — into
  /// the document verbatim (comma handling as for any other value).  Lets
  /// composed documents embed pre-serialized parts without re-parsing.
  void raw_value(std::string_view json);

  [[nodiscard]] std::string str() && { return std::move(out_); }
  [[nodiscard]] const std::string& str() const& { return out_; }

 private:
  void comma();

  std::string out_;
  bool need_comma_ = false;
};

/// Parsed JSON value (document object model for tests/tools).
struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  /// Sorted by key; JSON objects are unordered per RFC 8259.
  std::map<std::string, JsonValue> object;

  [[nodiscard]] bool is_object() const noexcept {
    return kind == Kind::Object;
  }
  [[nodiscard]] bool is_array() const noexcept { return kind == Kind::Array; }
  /// Member access; throws upsim::NotFoundError when absent.
  [[nodiscard]] const JsonValue& at(std::string_view key) const;
  [[nodiscard]] bool has(std::string_view key) const noexcept;
};

/// Hard bounds enforced while parsing; 0 means unlimited.  The defaults are
/// generous for every trusted document upsim itself writes (traces, metrics,
/// BENCH_*.json) while keeping a malicious network payload from
/// stack-overflowing or ballooning the process.
struct JsonLimits {
  /// Maximum nesting depth of arrays/objects (the document root is depth 1).
  std::size_t max_depth = 128;
  /// Maximum document size in bytes, checked before parsing starts.
  std::size_t max_bytes = 32u << 20;
};

/// Parses a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).  Throws upsim::ParseError with position on error or
/// when a limit is exceeded.
[[nodiscard]] JsonValue json_parse(std::string_view input,
                                   const JsonLimits& limits = {});

/// 2^53: the largest range in which a JSON number (a double) still names
/// every integer exactly.
inline constexpr std::uint64_t kJsonMaxInteger = std::uint64_t{1} << 53;

/// The one checked conversion of a JSON integer, for the server's params
/// and the clients' response fields alike: casting a double outside the
/// target type's range is undefined behaviour.  Returns the value when
/// `value` is a number that is integral, at least `min` and at most `max`
/// (a `max` above kJsonMaxInteger counts as kJsonMaxInteger); std::nullopt
/// for anything else — a string, 1.5, -1, 1e300.
[[nodiscard]] std::optional<std::uint64_t> json_integer(
    const JsonValue& value, std::uint64_t min = 0,
    std::uint64_t max = kJsonMaxInteger);

}  // namespace upsim::obs
