#include "scenario/fields.hpp"

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace vds::scenario {

void bad_value(std::string_view flag, std::string_view text,
               std::string_view wanted) {
  throw CliError(std::string(flag) + ": expected " + std::string(wanted) +
                 ", got '" + std::string(text) + "'");
}

void reject(const Site& site, std::string_view text,
            std::string_view wanted) {
  if (site.context.empty()) bad_value(site.name, text, wanted);
  throw std::invalid_argument(std::string(site.context) + ": " +
                              std::string(site.name) + ": expected " +
                              std::string(wanted) + ", got '" +
                              std::string(text) + "'");
}

double parse_double(std::string_view flag, std::string_view text) {
  const std::string token(text);
  if (token.empty()) bad_value(flag, text, "a number");
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(token.c_str(), &end);
  if (end != token.c_str() + token.size()) {
    bad_value(flag, text, "a number");
  }
  if (!std::isfinite(parsed)) {
    bad_value(flag, text, "a finite number");
  }
  return parsed;
}

std::uint64_t parse_u64(std::string_view flag, std::string_view text) {
  const std::string token(text);
  // strtoull silently accepts "-1" by wrapping around; reject signs.
  if (token.empty() || token[0] == '-' || token[0] == '+') {
    bad_value(flag, text, "a non-negative integer");
  }
  errno = 0;
  char* end = nullptr;
  const std::uint64_t parsed = std::strtoull(token.c_str(), &end, 10);
  if (end != token.c_str() + token.size()) {
    bad_value(flag, text, "a non-negative integer");
  }
  if (errno == ERANGE) {
    bad_value(flag, text, "an integer in u64 range");
  }
  return parsed;
}

int parse_int(std::string_view flag, std::string_view text) {
  const std::string token(text);
  if (token.empty()) bad_value(flag, text, "an integer");
  errno = 0;
  char* end = nullptr;
  const long parsed = std::strtol(token.c_str(), &end, 10);
  if (end != token.c_str() + token.size()) {
    bad_value(flag, text, "an integer");
  }
  if (errno == ERANGE || parsed < INT_MIN || parsed > INT_MAX) {
    bad_value(flag, text, "an integer in int range");
  }
  return static_cast<int>(parsed);
}

unsigned parse_unsigned(std::string_view flag, std::string_view text) {
  const std::uint64_t parsed = parse_u64(flag, text);
  if (parsed > UINT_MAX) {
    bad_value(flag, text, "an integer in unsigned range");
  }
  return static_cast<unsigned>(parsed);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw CliError("cannot read '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace vds::scenario
