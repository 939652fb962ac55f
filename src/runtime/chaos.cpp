#include "runtime/chaos.hpp"

#include <cstdlib>
#include <stdexcept>

namespace vds::runtime {

namespace {

constexpr std::string_view kKnownSites[] = {
    kChaosCellHang, kChaosCellFail, kChaosJournalCorrupt,
    kChaosJournalTorn, kChaosPoolDelay};

bool known_site(std::string_view name) noexcept {
  for (const std::string_view site : kKnownSites) {
    if (site == name) return true;
  }
  return false;
}

std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t hash_text(std::string_view text, std::uint64_t h) noexcept {
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;  // FNV-1a step
  }
  return h;
}

/// Uniform double in [0, 1) from the decision hash.
double to_unit(std::uint64_t h) noexcept {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

double parse_probability(const std::string& entry, const std::string& text) {
  std::size_t used = 0;
  double p = -1.0;
  try {
    p = std::stod(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != text.size() || !(p >= 0.0 && p <= 1.0)) {
    throw std::invalid_argument("chaos entry '" + entry +
                             "': probability must be a number in [0,1]");
  }
  return p;
}

std::uint64_t parse_limit(const std::string& entry, const std::string& text) {
  std::size_t used = 0;
  unsigned long long limit = 0;
  try {
    limit = std::stoull(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != text.size() || text.empty() || limit == 0) {
    throw std::invalid_argument("chaos entry '" + entry +
                             "': limit must be a positive integer");
  }
  return limit;
}

}  // namespace

Chaos Chaos::parse(std::string_view spec, std::uint64_t seed) {
  Chaos chaos;
  chaos.seed_ = seed;

  std::size_t start = 0;
  while (start < spec.size()) {
    std::size_t comma = spec.find(',', start);
    if (comma == std::string_view::npos) comma = spec.size();
    const std::string entry(spec.substr(start, comma - start));
    start = comma + 1;
    if (entry.empty()) continue;

    const std::size_t eq = entry.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("chaos entry '" + entry +
                               "': expected site=probability[:limit]");
    }
    Site site;
    site.name = entry.substr(0, eq);
    if (!known_site(site.name)) {
      std::string names;
      for (const std::string_view known : kKnownSites) {
        if (!names.empty()) names += ", ";
        names += known;
      }
      throw std::invalid_argument("chaos entry '" + entry +
                               "': unknown site '" + site.name +
                               "' (known: " + names + ")");
    }
    std::string value = entry.substr(eq + 1);
    const std::size_t colon = value.find(':');
    if (colon != std::string::npos) {
      site.limit = parse_limit(entry, value.substr(colon + 1));
      value.resize(colon);
    }
    site.probability = parse_probability(entry, value);
    chaos.sites_.push_back(std::move(site));
  }
  return chaos;
}

bool Chaos::fires(std::string_view site, std::uint64_t key,
                  std::uint64_t attempt) const noexcept {
  for (const Site& armed : sites_) {
    if (armed.name != site) continue;
    if (attempt >= armed.limit) return false;
    if (armed.probability <= 0.0) return false;
    if (armed.probability >= 1.0) return true;
    std::uint64_t h = hash_text(site, 0xcbf29ce484222325ull);
    h = splitmix64(h ^ seed_);
    h = splitmix64(h ^ key);
    h = splitmix64(h ^ attempt);
    return to_unit(h) < armed.probability;
  }
  return false;
}

}  // namespace vds::runtime
