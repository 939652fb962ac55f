#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace vds::runtime {

// Named chaos injection sites. Every site a harness component consults
// is listed here; Chaos::parse rejects names outside this registry so
// a typo in --chaos fails loudly instead of silently arming nothing.
inline constexpr std::string_view kChaosCellHang = "cell.hang";
inline constexpr std::string_view kChaosCellFail = "cell.fail";
inline constexpr std::string_view kChaosJournalCorrupt = "journal.corrupt";
inline constexpr std::string_view kChaosJournalTorn = "journal.torn";
inline constexpr std::string_view kChaosPoolDelay = "pool.delay";

/// Deterministic fault-point framework for hardening the harness
/// itself (not the simulated VDS protocol). Components query named
/// sites at their failure-prone operations; an armed site answers
/// "fail here" as a pure function of (campaign seed, site, key,
/// attempt), so an injected failure is bitwise reproducible no matter
/// how threads interleave — the same property the campaign already
/// guarantees for its random draws.
///
/// Spec grammar (also accepted from $VDS_CHAOS):
///
///   spec    := entry (',' entry)*
///   entry   := site '=' probability [ ':' limit ]
///
/// `probability` in [0,1] is the chance the site fires for a given
/// (key, attempt); `limit` caps the firing attempts per key (e.g.
/// `cell.fail=1:1` fails every cell's first attempt and lets every
/// retry succeed — the canonical retry-path test).
class Chaos {
 public:
  /// Disarmed: every site answers "no failure" and armed() is false.
  Chaos() = default;

  /// Parses `spec`, seeding all decisions with `seed` (the campaign
  /// seed, so chaos reproduces with the run). Empty spec = disarmed.
  /// Throws std::invalid_argument naming the offending entry on an
  /// unknown site, malformed probability, or out-of-range value.
  static Chaos parse(std::string_view spec, std::uint64_t seed);

  [[nodiscard]] bool armed() const noexcept { return !sites_.empty(); }

  /// True when `site` should fail for work unit `key` on its
  /// `attempt`-th try. Deterministic and thread-safe (pure function,
  /// no state mutation).
  [[nodiscard]] bool fires(std::string_view site, std::uint64_t key,
                           std::uint64_t attempt = 0) const noexcept;

  /// The spec this instance was parsed from ("" when disarmed).
  [[nodiscard]] const std::string& spec() const noexcept { return spec_; }

 private:
  struct Site {
    std::string name;
    double probability = 0.0;
    std::uint64_t limit = UINT64_MAX;  ///< max firing attempts per key
  };

  std::string spec_;
  std::vector<Site> sites_;
  std::uint64_t seed_ = 0;
};

}  // namespace vds::runtime
