#include "core/version_set.hpp"

#include <stdexcept>

namespace vds::core {
namespace {

std::uint64_t hash2(std::uint64_t a, std::uint64_t b) noexcept {
  std::uint64_t x = a * 0x9e3779b97f4a7c15ull + b;
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 29;
  return x;
}

}  // namespace

VersionSet::VersionSet(const VdsOptions& options)
    : options_(options),
      golden_(options.job_seed, options.state_words) {
  options_.validate();
}

vds::checkpoint::VersionState VersionSet::initial_state() const {
  return vds::checkpoint::VersionState(options_.job_seed,
                                       options_.state_words);
}

void VersionSet::advance(vds::checkpoint::VersionState& state,
                         std::uint64_t round_index, int version_id) const {
  state.advance_round(round_index);
  if (permanent_ && ((permanent_->affected_mask >> (version_id - 1)) & 1u)) {
    // A defective unit corrupts each round's result of every version
    // that exercises it. Exposed-by-diversity faults hit the versions
    // in version-specific ways (the versions use the hardware
    // differently), so their states diverge and the comparison fires;
    // unexposed faults corrupt the affected versions identically --
    // silently.
    const std::uint64_t salt =
        permanent_->exposed ? static_cast<std::uint64_t>(version_id) : 0ull;
    const std::uint64_t h = hash2(permanent_->location, salt);
    state.flip_bit(static_cast<std::size_t>(h >> 8),
                   static_cast<unsigned>(h & 63u));
  }
}

void VersionSet::set_permanent(std::uint32_t location, bool exposed,
                               std::uint8_t affected_mask) noexcept {
  permanent_ = Permanent{location, exposed, affected_mask};
}

const vds::checkpoint::VersionState& VersionSet::golden_at(
    std::uint64_t round) {
  if (round < golden_round_) {
    throw std::logic_error("VersionSet::golden_at: rounds must not decrease");
  }
  if (round != golden_round_) {
    golden_ = vds::checkpoint::VersionState::golden(
        options_.job_seed, options_.state_words, round);
    golden_round_ = round;
  }
  return golden_;
}

}  // namespace vds::core
