#include "smt/machine.hpp"

#include <stdexcept>

namespace vds::smt {
namespace {

std::uint64_t mix64(std::uint64_t h, std::uint64_t x) noexcept {
  h ^= x + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

}  // namespace

Machine::Machine(std::size_t memory_words)
    : memory_(memory_words == 0 ? 1 : memory_words, 0) {}

void Machine::set_reg(std::uint8_t reg, std::uint64_t value) {
  regs_.at(reg % kNumRegisters) = value;
}

std::uint64_t Machine::reg(std::uint8_t reg_index) const {
  return regs_.at(reg_index % kNumRegisters);
}

void Machine::poke(std::uint64_t addr, std::uint64_t value) {
  memory_.at(addr % memory_.size()) = value;
}

std::uint64_t Machine::peek(std::uint64_t addr) const {
  return memory_.at(addr % memory_.size());
}

std::uint64_t Machine::apply_fault(OpClass cls,
                                   std::uint64_t value) const noexcept {
  if (!fault_ || fault_->unit != cls) return value;
  const std::uint64_t mask = 1ull << (fault_->bit % 64u);
  return fault_->stuck_to_one ? (value | mask) : (value & ~mask);
}

RunResult Machine::run(const Program& program, std::uint64_t max_steps,
                       InstrTrace* trace) {
  RunResult result;
  std::int64_t pc = 0;
  const auto size = static_cast<std::int64_t>(program.size());

  while (result.steps < max_steps) {
    if (pc < 0 || pc >= size) break;  // ran off the program
    const Instr& instr = program.at(static_cast<std::size_t>(pc));
    ++result.steps;

    const std::uint64_t a = regs_[instr.src1 % kNumRegisters];
    const std::uint64_t b = instr.uses_imm
                                ? static_cast<std::uint64_t>(instr.imm)
                                : regs_[instr.src2 % kNumRegisters];

    TraceEntry entry;
    entry.pc = static_cast<std::uint32_t>(pc);
    entry.cls = op_class(instr.op);
    entry.dst = instr.dst;
    entry.src1 = instr.src1;
    entry.src2 = instr.src2;
    entry.has_dst = writes_register(instr.op);
    entry.uses_src2 = !instr.uses_imm && instr.op != Opcode::kJmp &&
                      instr.op != Opcode::kNop && instr.op != Opcode::kHalt;

    std::int64_t next_pc = pc + 1;
    std::uint64_t value = 0;
    bool writes = true;

    switch (instr.op) {
      case Opcode::kAdd: value = a + b; break;
      case Opcode::kSub: value = a - b; break;
      case Opcode::kMul: value = a * b; break;
      case Opcode::kDiv: value = (b == 0) ? 0 : a / b; break;
      case Opcode::kAnd: value = a & b; break;
      case Opcode::kOr: value = a | b; break;
      case Opcode::kXor: value = a ^ b; break;
      case Opcode::kShl: value = a << (b % 64u); break;
      case Opcode::kShr: value = a >> (b % 64u); break;
      case Opcode::kLoad: {
        const std::uint64_t addr =
            (a + static_cast<std::uint64_t>(instr.imm)) % memory_.size();
        entry.addr = addr;
        value = apply_fault(OpClass::kMem, memory_[addr]);
        break;
      }
      case Opcode::kStore: {
        const std::uint64_t addr =
            (a + static_cast<std::uint64_t>(instr.imm)) % memory_.size();
        entry.addr = addr;
        memory_[addr] =
            apply_fault(OpClass::kMem, regs_[instr.src2 % kNumRegisters]);
        writes = false;
        break;
      }
      case Opcode::kBeq: {
        const bool taken =
            a == regs_[instr.src2 % kNumRegisters];
        entry.taken = taken;
        if (taken) next_pc = pc + instr.imm;
        writes = false;
        break;
      }
      case Opcode::kBne: {
        const bool taken =
            a != regs_[instr.src2 % kNumRegisters];
        entry.taken = taken;
        if (taken) next_pc = pc + instr.imm;
        writes = false;
        break;
      }
      case Opcode::kJmp:
        entry.taken = true;
        next_pc = pc + instr.imm;
        writes = false;
        break;
      case Opcode::kNop:
        writes = false;
        break;
      case Opcode::kHalt:
        result.halted = true;
        writes = false;
        break;
    }

    if (writes) {
      const OpClass cls = op_class(instr.op);
      if (cls != OpClass::kMem) value = apply_fault(cls, value);
      regs_[instr.dst % kNumRegisters] = value;
    }
    if (trace != nullptr && instr.op != Opcode::kHalt &&
        instr.op != Opcode::kNop) {
      trace->push_back(entry);
    }
    if (result.halted) break;
    pc = next_pc;
  }

  result.output_digest = digest();
  return result;
}

std::uint64_t Machine::digest() const noexcept {
  std::uint64_t h = 0x811c9dc5u;
  for (const auto r : regs_) h = mix64(h, r);
  for (const auto word : memory_) h = mix64(h, word);
  return h;
}

std::uint64_t Machine::region_digest(std::uint64_t addr,
                                     std::size_t len) const noexcept {
  std::uint64_t h = 0x811c9dc5u;
  for (std::size_t i = 0; i < len; ++i) {
    h = mix64(h, memory_[(addr + i) % memory_.size()]);
  }
  return h;
}

}  // namespace vds::smt
