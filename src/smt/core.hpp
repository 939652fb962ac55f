#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "smt/cache.hpp"
#include "smt/machine.hpp"

namespace vds::smt {

/// How the core picks which hardware thread may issue first each cycle.
enum class FetchPolicy : std::uint8_t {
  kRoundRobin,  ///< rotate priority every cycle
  kIcount,      ///< fewest in-flight instructions first (Tullsen-style)
};

/// Resources and latencies of the simulated SMT core. Defaults give a
/// modest 4-wide superscalar with two hardware threads, in the spirit of
/// the hyperthreaded Pentium 4 the paper targets.
struct CoreConfig {
  std::uint32_t threads = 2;
  std::uint32_t issue_width = 4;          ///< total issue slots per cycle
  std::uint32_t max_issue_per_thread = 4; ///< per-thread cap per cycle

  std::uint32_t alu_units = 3;
  std::uint32_t mul_units = 1;
  std::uint32_t div_units = 1;
  std::uint32_t mem_ports = 2;
  std::uint32_t branch_units = 1;

  std::uint32_t alu_latency = 1;
  std::uint32_t mul_latency = 3;
  std::uint32_t div_latency = 12;   ///< also non-pipelined (occupies unit)
  std::uint32_t branch_latency = 1;

  std::uint32_t mispredict_penalty = 8;  ///< fetch bubble on mispredict
  std::uint32_t branch_table_bits = 10;  ///< 2-bit predictor table size

  CacheConfig cache{};
  bool shared_cache = true;  ///< false: statically partitioned per thread

  /// Optional shared second-level cache. When enabled, an L1 miss that
  /// hits in L2 costs cache.miss_latency; an L2 miss costs
  /// l2.miss_latency (memory). L2 hit_latency is implied by
  /// cache.miss_latency and unused.
  bool l2_enabled = false;
  CacheConfig l2{1024, 8, 8, /*hit_latency=*/10, /*miss_latency=*/80};

  /// Hard cap against runaway simulations.
  std::uint64_t max_cycles = 1ull << 32;

  void validate() const;
};

/// Per-thread outcome of a timing run.
struct ThreadResult {
  std::uint64_t finish_cycle = 0;
  std::uint64_t instructions = 0;
  std::uint64_t mispredicts = 0;
  [[nodiscard]] double ipc() const noexcept {
    return finish_cycle == 0 ? 0.0
                             : static_cast<double>(instructions) /
                                   static_cast<double>(finish_cycle);
  }
};

/// Whole-core outcome of a timing run.
struct CoreResult {
  std::uint64_t cycles = 0;  ///< cycle at which the last thread finished
  std::vector<ThreadResult> threads;
  std::uint64_t issued_total = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t l2_misses = 0;
};

/// Cycle-level, trace-driven SMT core: in-order per-thread issue with a
/// register-ready scoreboard, shared issue bandwidth, shared functional
/// units, shared (or partitioned) data cache and per-thread two-bit
/// branch prediction. The contention between hardware threads this
/// models is precisely what determines the paper's alpha.
class Core {
 public:
  explicit Core(CoreConfig config, FetchPolicy policy = FetchPolicy::kIcount);

  /// Runs one trace per hardware thread (at most config.threads; missing
  /// threads idle). Traces are not consumed.
  CoreResult run(std::span<const InstrTrace* const> traces);

  /// Convenience overloads.
  CoreResult run(const InstrTrace& solo);
  CoreResult run(const InstrTrace& t0, const InstrTrace& t1);

  [[nodiscard]] const CoreConfig& config() const noexcept { return config_; }

 private:
  CoreConfig config_;
  FetchPolicy policy_;
};

}  // namespace vds::smt
