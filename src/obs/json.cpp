#include "obs/json.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/error.hpp"

namespace upsim::obs {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;  // UTF-8 bytes pass through verbatim
        }
    }
  }
  return out;
}

void JsonWriter::comma() {
  if (need_comma_) out_ += ',';
  need_comma_ = true;
}

void JsonWriter::begin_object() {
  comma();
  out_ += '{';
  need_comma_ = false;
}

void JsonWriter::end_object() {
  out_ += '}';
  need_comma_ = true;
}

void JsonWriter::begin_array() {
  comma();
  out_ += '[';
  need_comma_ = false;
}

void JsonWriter::end_array() {
  out_ += ']';
  need_comma_ = true;
}

void JsonWriter::key(std::string_view k) {
  comma();
  out_ += '"';
  out_ += json_escape(k);
  out_ += "\":";
  need_comma_ = false;
}

void JsonWriter::value(std::string_view s) {
  comma();
  out_ += '"';
  out_ += json_escape(s);
  out_ += '"';
}

void JsonWriter::value(double v) {
  comma();
  if (!std::isfinite(v)) {  // JSON has no Inf/NaN; null is the convention
    out_ += "null";
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out_ += buf;
}

void JsonWriter::value(std::uint64_t v) {
  comma();
  out_ += std::to_string(v);
}

void JsonWriter::value(std::int64_t v) {
  comma();
  out_ += std::to_string(v);
}

void JsonWriter::value(bool v) {
  comma();
  out_ += v ? "true" : "false";
}

void JsonWriter::null() {
  comma();
  out_ += "null";
}

void JsonWriter::raw_value(std::string_view json) {
  comma();
  out_ += json;
}

// ---------------------------------------------------------------------------
// Reader

const JsonValue& JsonValue::at(std::string_view key) const {
  const auto it = object.find(std::string(key));
  if (it == object.end()) {
    throw NotFoundError("JsonValue: no member named '" + std::string(key) +
                        "'");
  }
  return it->second;
}

bool JsonValue::has(std::string_view key) const noexcept {
  return object.find(std::string(key)) != object.end();
}

namespace {

class JsonParser {
 public:
  JsonParser(std::string_view input, const JsonLimits& limits)
      : input_(input), limits_(limits) {}

  JsonValue parse_document() {
    if (limits_.max_bytes != 0 && input_.size() > limits_.max_bytes) {
      fail("document size " + std::to_string(input_.size()) +
           " exceeds limit of " + std::to_string(limits_.max_bytes) +
           " bytes");
    }
    skip_ws();
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != input_.size()) fail("trailing garbage after JSON document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    std::size_t line = 1, col = 1;
    for (std::size_t i = 0; i < pos_ && i < input_.size(); ++i) {
      if (input_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    throw ParseError("json: " + what, line, col);
  }

  [[nodiscard]] bool eof() const noexcept { return pos_ >= input_.size(); }
  [[nodiscard]] char peek() const noexcept { return input_[pos_]; }

  char take() {
    if (eof()) fail("unexpected end of input");
    return input_[pos_++];
  }

  void expect(char c) {
    if (eof() || input_[pos_] != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  void skip_ws() noexcept {
    while (!eof()) {
      const char c = peek();
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') return;
      ++pos_;
    }
  }

  bool consume_word(std::string_view word) {
    if (input_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  JsonValue parse_value() {
    if (eof()) fail("unexpected end of input");
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': {
        JsonValue v;
        v.kind = JsonValue::Kind::String;
        v.string = parse_string();
        return v;
      }
      case 't':
        if (!consume_word("true")) fail("bad literal");
        return make_bool(true);
      case 'f':
        if (!consume_word("false")) fail("bad literal");
        return make_bool(false);
      case 'n':
        if (!consume_word("null")) fail("bad literal");
        return JsonValue{};
      default: return parse_number();
    }
  }

  static JsonValue make_bool(bool b) {
    JsonValue v;
    v.kind = JsonValue::Kind::Bool;
    v.boolean = b;
    return v;
  }

  /// Guards one level of array/object nesting; parse_object/parse_array
  /// construct it so a hostile "[[[[..." fails with a clear error long
  /// before the parser's own recursion could overflow the stack.
  struct DepthGuard {
    explicit DepthGuard(JsonParser& p) : parser(p) {
      ++parser.depth_;
      if (parser.limits_.max_depth != 0 &&
          parser.depth_ > parser.limits_.max_depth) {
        parser.fail("nesting depth exceeds limit of " +
                    std::to_string(parser.limits_.max_depth));
      }
    }
    ~DepthGuard() { --parser.depth_; }
    JsonParser& parser;
  };

  JsonValue parse_object() {
    const DepthGuard guard(*this);
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::Object;
    skip_ws();
    if (!eof() && peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      if (eof() || peek() != '"') fail("expected object key");
      std::string key = parse_string();
      skip_ws();
      expect(':');
      skip_ws();
      v.object[std::move(key)] = parse_value();
      skip_ws();
      const char c = take();
      if (c == '}') return v;
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  JsonValue parse_array() {
    const DepthGuard guard(*this);
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::Array;
    skip_ws();
    if (!eof() && peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      v.array.push_back(parse_value());
      skip_ws();
      const char c = take();
      if (c == ']') return v;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  unsigned parse_hex4() {
    unsigned out = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = take();
      out <<= 4;
      if (c >= '0' && c <= '9') {
        out |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        out |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        out |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail("bad \\u escape");
      }
    }
    return out;
  }

  void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      const char c = take();
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      const char e = take();
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned cp = parse_hex4();
          if (cp >= 0xD800 && cp <= 0xDBFF) {  // high surrogate
            if (take() != '\\' || take() != 'u') {
              fail("unpaired surrogate");
            }
            const unsigned lo = parse_hex4();
            if (lo < 0xDC00 || lo > 0xDFFF) fail("bad low surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail("unpaired low surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default: fail("bad escape character");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (!eof() && peek() == '-') ++pos_;
    if (eof() || peek() < '0' || peek() > '9') fail("bad number");
    if (peek() == '0') {
      ++pos_;
    } else {
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    if (!eof() && peek() == '.') {
      ++pos_;
      if (eof() || peek() < '0' || peek() > '9') fail("bad fraction");
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      if (eof() || peek() < '0' || peek() > '9') fail("bad exponent");
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    JsonValue v;
    v.kind = JsonValue::Kind::Number;
    v.number = std::strtod(std::string(input_.substr(start, pos_ - start)).c_str(),
                           nullptr);
    return v;
  }

  std::string_view input_;
  JsonLimits limits_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

}  // namespace

JsonValue json_parse(std::string_view input, const JsonLimits& limits) {
  return JsonParser(input, limits).parse_document();
}

std::optional<std::uint64_t> json_integer(const JsonValue& value,
                                          std::uint64_t min,
                                          std::uint64_t max) {
  max = std::min(max, kJsonMaxInteger);
  if (value.kind != JsonValue::Kind::Number ||
      !(value.number >= static_cast<double>(min)) ||
      value.number > static_cast<double>(max) ||
      value.number != std::floor(value.number)) {
    return std::nullopt;
  }
  return static_cast<std::uint64_t>(value.number);
}

}  // namespace upsim::obs
