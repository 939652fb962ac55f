#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "smt/isa.hpp"
#include "smt/program.hpp"

namespace vds::smt {

/// One dynamic instruction as seen by the trace-driven timing core:
/// functional-unit class, register dependencies, resolved memory address
/// and branch direction.
struct TraceEntry {
  OpClass cls = OpClass::kAlu;
  std::uint8_t dst = 0;
  std::uint8_t src1 = 0;
  std::uint8_t src2 = 0;
  bool has_dst = false;
  bool uses_src2 = false;
  std::uint32_t pc = 0;    ///< static instruction address (branch pred. index)
  std::uint64_t addr = 0;  ///< word address for kMem entries
  bool taken = false;      ///< for kBranch entries
};

using InstrTrace = std::vector<TraceEntry>;

/// A permanent (stuck-at) hardware fault for the functional simulator,
/// modeling the class of faults the paper's diverse versions are meant
/// to expose: a defective unit corrupts every result it produces.
struct StuckAtFault {
  OpClass unit = OpClass::kAlu;  ///< which functional unit is defective
  std::uint8_t bit = 0;          ///< result bit that is stuck
  bool stuck_to_one = true;      ///< stuck-at-1 vs stuck-at-0
};

/// Result of a functional run.
struct RunResult {
  bool halted = false;          ///< reached kHalt (vs step-limit abort)
  std::uint64_t steps = 0;      ///< dynamic instructions executed
  std::uint64_t output_digest = 0;  ///< digest of registers + memory
};

/// Functional (value-level) simulator of the ISA. Executes programs
/// exactly; optionally records a dynamic trace for the timing core and
/// applies a stuck-at fault to a chosen functional unit.
class Machine {
 public:
  /// memory_words: size of the flat word-addressed data memory.
  explicit Machine(std::size_t memory_words = 4096);

  void reset() noexcept;

  /// Sets an input register (r0 is writable; there is no hardwired zero).
  void set_reg(std::uint8_t reg, std::uint64_t value);
  [[nodiscard]] std::uint64_t reg(std::uint8_t reg_index) const;

  void poke(std::uint64_t addr, std::uint64_t value);
  [[nodiscard]] std::uint64_t peek(std::uint64_t addr) const;

  /// Installs (or clears) a permanent fault.
  void set_fault(std::optional<StuckAtFault> fault) noexcept {
    fault_ = fault;
  }

  /// Runs `program` from pc 0 until kHalt, a pc out of range, or
  /// `max_steps` dynamic instructions. If `trace` is non-null the
  /// dynamic instruction stream is appended to it.
  RunResult run(const Program& program, std::uint64_t max_steps = 1u << 20,
                InstrTrace* trace = nullptr);

  /// Digest over architectural state (registers + memory): two runs
  /// computed "the same thing" iff digests match.
  [[nodiscard]] std::uint64_t digest() const noexcept;

  /// Digest over a memory region only. Diverse program variants differ
  /// in register usage, so their full digests differ even when correct;
  /// equivalence is judged on the designated output region.
  [[nodiscard]] std::uint64_t region_digest(std::uint64_t addr,
                                            std::size_t len) const noexcept;

 private:
  [[nodiscard]] std::uint64_t apply_fault(OpClass cls,
                                          std::uint64_t value) const noexcept;

  std::array<std::uint64_t, kNumRegisters> regs_{};
  std::vector<std::uint64_t> memory_;
  std::optional<StuckAtFault> fault_;
};

}  // namespace vds::smt
