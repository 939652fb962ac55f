#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace vds::scenario {

/// Malformed JSON input (syntax error, wrong type, out-of-range
/// number). The message names the byte offset of the problem.
class JsonError : public std::runtime_error {
 public:
  JsonError(const std::string& what, std::size_t offset)
      : std::runtime_error(what + " (at byte " + std::to_string(offset) +
                           ")") {}
};

/// Minimal JSON document model, the read-side counterpart of
/// runtime::JsonWriter. Parses exactly the JSON the writer emits (plus
/// arbitrary whitespace): objects, arrays, strings with the standard
/// escapes, numbers, booleans and null.
///
/// Numbers keep their raw source token so integer fields survive at
/// full u64 precision (a double round-trip would corrupt seeds above
/// 2^53); `as_u64`/`as_int` parse the token directly.
class JsonValue {
 public:
  enum class Kind : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
  };

  Kind kind = Kind::kNull;
  bool boolean = false;
  std::string text;  ///< string content, or the raw number token
  std::vector<JsonValue> items;                           ///< array
  std::vector<std::pair<std::string, JsonValue>> members; ///< object

  [[nodiscard]] bool is_object() const noexcept {
    return kind == Kind::kObject;
  }

  /// Object member lookup; nullptr when absent (or not an object).
  [[nodiscard]] const JsonValue* find(std::string_view key) const noexcept;

  // Typed accessors; each throws JsonError(offset = 0) on a kind or
  // range mismatch, naming `context` in the message.
  [[nodiscard]] bool as_bool(std::string_view context) const;
  [[nodiscard]] double as_double(std::string_view context) const;
  [[nodiscard]] std::uint64_t as_u64(std::string_view context) const;
  [[nodiscard]] std::int64_t as_int(std::string_view context) const;
  [[nodiscard]] const std::string& as_string(std::string_view context) const;
};

/// Parses one complete JSON document; trailing non-whitespace is an
/// error. Throws JsonError on malformed input.
[[nodiscard]] JsonValue parse_json(std::string_view source);

}  // namespace vds::scenario
