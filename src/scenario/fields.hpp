#pragma once

#include <cstdint>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>

#include "runtime/json_writer.hpp"
#include "scenario/json_reader.hpp"

namespace vds::scenario {

/// A user error on the command line (unknown flag, malformed or
/// out-of-range value, missing file). Tools catch this at top level,
/// print the message to stderr and exit non-zero.
class CliError : public std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Throws the canonical strict-parse CliError, always naming both the
/// flag and the offending value:
///   FLAG: expected WANTED, got 'VALUE'
/// Every tool's value diagnostics go through this one formatter so the
/// message shape is uniform (and testable) across the tools.
[[noreturn]] void bad_value(std::string_view flag, std::string_view text,
                            std::string_view wanted);

// --- strict numeric parsing -------------------------------------------
// Each parser consumes the ENTIRE token and range-checks the result;
// "bogus", "1.5x", "" or an out-of-range value throw CliError naming
// the flag AND the value (via bad_value above).

[[nodiscard]] double parse_double(std::string_view flag,
                                  std::string_view text);
[[nodiscard]] std::uint64_t parse_u64(std::string_view flag,
                                      std::string_view text);
[[nodiscard]] int parse_int(std::string_view flag, std::string_view text);
[[nodiscard]] unsigned parse_unsigned(std::string_view flag,
                                      std::string_view text);

/// Reads an entire file (CliError on failure) — for `--scenario FILE`.
[[nodiscard]] std::string read_file(const std::string& path);

/// Where a value came from: a command-line flag (empty `context`) or
/// the JSON key `name` of a `context` object ("Scenario", "campaign").
struct Site {
  std::string_view name;
  std::string_view context;
};

/// Rejects `text` at `site` in the one shape
///   NAME: expected WANTED, got 'TEXT'
/// as a CliError for a flag, and as std::invalid_argument prefixed
/// with the context for a JSON key.
[[noreturn]] void reject(const Site& site, std::string_view text,
                         std::string_view wanted);

/// A field's range rule: the value (a string's length) must lie in
/// [lo, hi]; `wanted` names the rule in diagnostics. The default admits
/// everything. A default value outside the range means "unset" and is
/// not shown in --help.
struct Range {
  std::string_view wanted;
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();

  [[nodiscard]] constexpr bool admits(double value) const noexcept {
    return value >= lo && value <= hi;
  }
};

/// The conversions of a field that is not one plain member.
template <typename C>
struct Codec {
  /// Sets the field from a flag value or a JSON string.
  void (*parse)(C&, std::string_view text, const Site&);
  /// Sets the field from a JSON value; null = parse() of a JSON string.
  void (*read)(C&, const JsonValue&, const Site&) = nullptr;
  /// The value as text: the --help default and, in a written table,
  /// the JSON string. Null = none.
  std::string (*show)(const C&) = nullptr;
};

/// What a field sets. The alternative is the value kind: a bool is a
/// switch on the command line and a boolean in JSON; numbers parse
/// strictly; anything else goes through a Codec.
template <typename C>
using Target = std::variant<bool C::*, int C::*, unsigned C::*,
                            std::uint64_t C::*, double C::*,
                            std::string C::*, Codec<C>>;

/// One config field, described once for every consumer: argv parsing,
/// --help, the strict JSON reader and the JSON writer.
template <typename C>
struct Field {
  std::string_view flag;           ///< "--alpha"; empty = JSON only
  std::string_view meta;           ///< value placeholder; "" = switch
  std::string_view help;           ///< help text; '\n' continues it
  Target<C> target;
  std::string_view key = {};       ///< JSON key; empty = flag only
  std::string_view section = {};   ///< JSON object holding the key
  Range range = {};
  std::uint8_t group = 0;          ///< flag group (CommandLine::add)
};

namespace detail {

template <typename T>
struct member;
template <typename C, typename V>
struct member<V C::*> {
  using type = V;
};

template <typename V>
double magnitude(const V& value) {
  if constexpr (std::is_same_v<V, std::string>) {
    return static_cast<double>(value.size());
  } else {
    return static_cast<double>(value);
  }
}

template <typename V>
V parse_text(std::string_view flag, std::string_view text) {
  if constexpr (std::is_same_v<V, double>) {
    return parse_double(flag, text);
  } else if constexpr (std::is_same_v<V, int>) {
    return parse_int(flag, text);
  } else if constexpr (std::is_same_v<V, unsigned>) {
    return parse_unsigned(flag, text);
  } else if constexpr (std::is_same_v<V, std::uint64_t>) {
    return parse_u64(flag, text);
  } else {
    return std::string(text);
  }
}

template <typename V, typename Wide>
V narrow(Wide wide, const JsonValue& value, const Site& site) {
  if (!std::in_range<V>(wide)) reject(site, value.text, "an integer in range");
  return static_cast<V>(wide);
}

template <typename V>
V read_json(const JsonValue& value, const Site& site) {
  if constexpr (std::is_same_v<V, bool>) {
    return value.as_bool(site.name);
  } else if constexpr (std::is_same_v<V, double>) {
    return value.as_double(site.name);
  } else if constexpr (std::is_same_v<V, std::string>) {
    return value.as_string(site.name);
  } else if constexpr (std::is_signed_v<V>) {
    return narrow<V>(value.as_int(site.name), value, site);
  } else {
    return narrow<V>(value.as_u64(site.name), value, site);
  }
}

}  // namespace detail

/// Sets `field` from a command-line value (a switch ignores `text`).
template <typename C>
void set_from_text(const Field<C>& field, C& config, std::string_view text) {
  const Site site{field.flag, {}};
  std::visit(
      [&](const auto& target) {
        using T = std::decay_t<decltype(target)>;
        if constexpr (std::is_same_v<T, Codec<C>>) {
          target.parse(config, text, site);
        } else if constexpr (std::is_same_v<T, bool C::*>) {
          config.*target = true;
        } else {
          using V = typename detail::member<T>::type;
          V value = detail::parse_text<V>(field.flag, text);
          if (!field.range.admits(detail::magnitude(value))) {
            reject(site, text, field.range.wanted);
          }
          config.*target = std::move(value);
        }
      },
      field.target);
}

/// Sets `field` from its JSON value under the same range rule. A kind
/// mismatch throws JsonError, like the JsonValue accessors.
template <typename C>
void set_from_json(const Field<C>& field, C& config, const JsonValue& value,
                   std::string_view context) {
  const Site site{field.key, context};
  std::visit(
      [&](const auto& target) {
        using T = std::decay_t<decltype(target)>;
        if constexpr (std::is_same_v<T, Codec<C>>) {
          if (target.read != nullptr) {
            target.read(config, value, site);
          } else {
            target.parse(config, value.as_string(field.key), site);
          }
        } else {
          using V = typename detail::member<T>::type;
          V parsed = detail::read_json<V>(value, site);
          if (!field.range.admits(detail::magnitude(parsed))) {
            reject(site, value.text, field.range.wanted);
          }
          config.*target = std::move(parsed);
        }
      },
      field.target);
}

/// The field's live value as --help shows it; empty = show nothing
/// (switches, empty strings, out-of-range "unset" sentinels).
template <typename C>
std::string show_value(const Field<C>& field, const C& config) {
  return std::visit(
      [&](const auto& target) -> std::string {
        using T = std::decay_t<decltype(target)>;
        if constexpr (std::is_same_v<T, Codec<C>>) {
          return target.show != nullptr ? target.show(config) : "";
        } else if constexpr (std::is_same_v<T, bool C::*>) {
          return "";
        } else {
          const auto& value = config.*target;
          if (!field.range.admits(detail::magnitude(value))) return "";
          using V = typename detail::member<T>::type;
          if constexpr (std::is_same_v<V, std::string>) {
            return value;
          } else if constexpr (std::is_same_v<V, double>) {
            char buf[32];
            std::snprintf(buf, sizeof buf, "%g", value);
            return buf;
          } else {
            return std::to_string(value);
          }
        }
      },
      field.target);
}

/// Writes every field that has a JSON key as one object, in table
/// order; a run of fields in one section becomes a nested object.
template <typename C, typename Fields>
void write_fields(runtime::JsonWriter& json, const Fields& fields,
                  const C& config) {
  json.begin_object();
  std::string_view open;
  for (const Field<C>& field : fields) {
    if (field.key.empty()) continue;
    if (field.section != open) {
      if (!open.empty()) json.end_object();
      if (!field.section.empty()) json.key(field.section).begin_object();
      open = field.section;
    }
    json.key(field.key);
    std::visit(
        [&](const auto& target) {
          using T = std::decay_t<decltype(target)>;
          if constexpr (std::is_same_v<T, Codec<C>>) {
            json.value(std::string_view(target.show(config)));
          } else if constexpr (std::is_same_v<T, unsigned C::*>) {
            json.value(static_cast<std::uint64_t>(config.*target));
          } else if constexpr (std::is_same_v<T, std::string C::*>) {
            json.value(std::string_view(config.*target));
          } else {
            json.value(config.*target);
          }
        },
        field.target);
  }
  if (!open.empty()) json.end_object();
  json.end_object();
}

/// Strict read of the JSON object `object` into `config`: every member
/// must be the key of a field in `section` (or, at top level, a
/// section holding such keys). Anything else is an unknown key. Errors
/// are std::invalid_argument prefixed with `context`, or JsonError on
/// a kind mismatch.
template <typename C, typename Fields>
void read_fields(const JsonValue& object, const Fields& fields, C& config,
                 std::string_view context, std::string_view section = {}) {
  const auto fail = [&](const std::string& what) {
    throw std::invalid_argument(std::string(context) + ": " + what);
  };
  if (!object.is_object()) {
    fail(std::string(section.empty() ? "document" : section) +
         " must be a JSON object");
  }
  for (const auto& [key, value] : object.members) {
    const Field<C>* match = nullptr;
    bool is_section = false;
    for (const Field<C>& field : fields) {
      if (field.key.empty()) continue;
      if (field.section == section && field.key == key) {
        match = &field;
        break;
      }
      is_section = is_section || (section.empty() && field.section == key);
    }
    if (match != nullptr) {
      set_from_json(*match, config, value, context);
    } else if (is_section) {
      read_fields(value, fields, config, context, key);
    } else {
      fail("unknown key '" + key + "'" +
           (section.empty() ? "" : " in " + std::string(section)));
    }
  }
}

}  // namespace vds::scenario
