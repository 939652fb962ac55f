#pragma once

#include <cstdint>
#include <vector>

namespace vds::smt {

/// Geometry and timing of a set-associative cache.
struct CacheConfig {
  std::uint32_t sets = 64;
  std::uint32_t ways = 4;
  std::uint32_t line_words = 8;   ///< words per line (word-addressed)
  std::uint32_t hit_latency = 2;  ///< cycles for a hit
  std::uint32_t miss_latency = 20;  ///< cycles for a miss (fill from L2/mem)

  void validate() const;
};

/// LRU set-associative data cache (timing only; no data storage).
/// Shared between SMT hardware threads -- the inter-thread conflict
/// misses it produces are one of the physical sources of the paper's
/// alpha > 0.5.
class Cache {
 public:
  explicit Cache(CacheConfig config);

  /// Simulates an access to `word_addr`: updates LRU/fill state and
  /// reports hit/miss. The caller composes the latencies, since this
  /// cache may be one level of a hierarchy.
  bool access_hit(std::uint64_t word_addr) noexcept;

  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }

 private:
  struct Line {
    std::uint64_t tag = 0;
    bool valid = false;
    std::uint64_t lru = 0;  ///< higher == more recently used
  };

  CacheConfig config_;
  std::vector<Line> lines_;  // [set * ways + way]
  std::uint64_t use_clock_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace vds::smt
