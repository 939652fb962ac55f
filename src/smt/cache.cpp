#include "smt/cache.hpp"

#include <stdexcept>

namespace vds::smt {

void CacheConfig::validate() const {
  if (sets == 0 || ways == 0 || line_words == 0) {
    throw std::invalid_argument("CacheConfig: sets/ways/line_words >= 1");
  }
  if (hit_latency == 0 || miss_latency < hit_latency) {
    throw std::invalid_argument(
        "CacheConfig: need hit_latency >= 1 and miss >= hit");
  }
}

Cache::Cache(CacheConfig config) : config_(config) {
  config_.validate();
  lines_.resize(static_cast<std::size_t>(config_.sets) * config_.ways);
}

bool Cache::access_hit(std::uint64_t word_addr) noexcept {
  const std::uint64_t line_addr = word_addr / config_.line_words;
  const std::uint32_t set =
      static_cast<std::uint32_t>(line_addr % config_.sets);
  const std::uint64_t tag = line_addr / config_.sets;
  Line* base = &lines_[static_cast<std::size_t>(set) * config_.ways];

  ++use_clock_;
  for (std::uint32_t way = 0; way < config_.ways; ++way) {
    Line& line = base[way];
    if (line.valid && line.tag == tag) {
      line.lru = use_clock_;
      ++hits_;
      return true;
    }
  }

  // Miss: fill into the LRU way.
  Line* victim = base;
  for (std::uint32_t way = 1; way < config_.ways; ++way) {
    if (!base[way].valid) {
      victim = &base[way];
      break;
    }
    if (base[way].lru < victim->lru) victim = &base[way];
  }
  victim->valid = true;
  victim->tag = tag;
  victim->lru = use_clock_;
  ++misses_;
  return false;
}

}  // namespace vds::smt
