// Error types shared across all upsim modules.
//
// The library throws exceptions derived from upsim::Error for any violation
// of a documented precondition or any malformed input model.  Each module
// defines a thin subclass so callers can discriminate by catch clause; all
// of them carry a human-readable message built at the throw site.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace upsim {

/// Root of the upsim exception hierarchy.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Malformed or inconsistent input model (UML, mapping, service, ...).
class ModelError : public Error {
 public:
  explicit ModelError(const std::string& what) : Error(what) {}
};

/// Lookup of a named element that does not exist.
class NotFoundError : public Error {
 public:
  explicit NotFoundError(const std::string& what) : Error(what) {}
};

/// Syntactic error while parsing an external representation (XML, JSON).
class ParseError : public Error {
 public:
  ParseError(const std::string& what, std::size_t line, std::size_t column)
      : Error(what + " (line " + std::to_string(line) + ", column " +
              std::to_string(column) + ")"),
        line_(line),
        column_(column) {}
  explicit ParseError(const std::string& what)
      : Error(what), line_(0), column_(0) {}

  [[nodiscard]] std::size_t line() const noexcept { return line_; }
  [[nodiscard]] std::size_t column() const noexcept { return column_; }

 private:
  std::size_t line_;
  std::size_t column_;
};

/// Violation of an internal invariant (a bug in upsim itself).
class InvariantError : public Error {
 public:
  explicit InvariantError(const std::string& what) : Error(what) {}
};

namespace detail {
[[noreturn]] void throw_invariant_failure(std::string_view expr,
                                          std::string_view file, int line);
}  // namespace detail

/// UPSIM_ASSERT checks an internal invariant in all build types.  It is used
/// for conditions that indicate a library bug, never for validating user
/// input (user input raises ModelError/ParseError with context instead).
#define UPSIM_ASSERT(expr)                                          \
  do {                                                              \
    if (!(expr)) {                                                  \
      ::upsim::detail::throw_invariant_failure(#expr, __FILE__,     \
                                               __LINE__);           \
    }                                                               \
  } while (false)

}  // namespace upsim
