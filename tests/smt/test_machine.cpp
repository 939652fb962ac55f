#include "smt/machine.hpp"

#include <gtest/gtest.h>

#include "smt/workload.hpp"

namespace vds::smt {
namespace {

Program single(const Instr& instr) {
  Program program("single");
  program.push(instr);
  program.push(make_halt());
  return program;
}

TEST(Machine, ArithmeticOps) {
  Machine machine(64);
  machine.set_reg(1, 10);
  machine.set_reg(2, 3);

  struct Case {
    Opcode op;
    std::uint64_t expected;
  };
  const Case cases[] = {
      {Opcode::kAdd, 13},       {Opcode::kSub, 7},
      {Opcode::kMul, 30},       {Opcode::kDiv, 3},
      {Opcode::kAnd, 10 & 3},   {Opcode::kOr, 10 | 3},
      {Opcode::kXor, 10 ^ 3},   {Opcode::kShl, 10ull << 3},
      {Opcode::kShr, 10ull >> 3},
  };
  for (const auto& c : cases) {
    Machine m(64);
    m.set_reg(1, 10);
    m.set_reg(2, 3);
    const auto result = m.run(single(make_rrr(c.op, 5, 1, 2)));
    EXPECT_TRUE(result.halted);
    EXPECT_EQ(m.reg(5), c.expected) << to_string(c.op);
  }
}

TEST(Machine, DivByZeroYieldsZero) {
  Machine machine(64);
  machine.set_reg(1, 99);
  machine.set_reg(2, 0);
  machine.run(single(make_rrr(Opcode::kDiv, 5, 1, 2)));
  EXPECT_EQ(machine.reg(5), 0u);
}

TEST(Machine, ImmediateOperands) {
  Machine machine(64);
  machine.set_reg(1, 7);
  machine.run(single(make_rri(Opcode::kMul, 5, 1, 6)));
  EXPECT_EQ(machine.reg(5), 42u);
}

TEST(Machine, LoadStoreRoundTrip) {
  Machine machine(64);
  machine.set_reg(1, 5);   // base
  machine.set_reg(2, 77);  // value
  Program program("ls");
  program.push(make_store(2, 1, 3));  // mem[8] = 77
  program.push(make_load(9, 1, 3));   // r9 = mem[8]
  program.push(make_halt());
  machine.run(program);
  EXPECT_EQ(machine.peek(8), 77u);
  EXPECT_EQ(machine.reg(9), 77u);
}

TEST(Machine, MemoryAddressingWraps) {
  Machine machine(16);
  machine.poke(3, 123);
  EXPECT_EQ(machine.peek(3 + 16), 123u);
}

TEST(Machine, BranchTakenAndNotTaken) {
  // r1 == r2 -> beq taken skips the poison instruction.
  Machine machine(64);
  machine.set_reg(1, 5);
  machine.set_reg(2, 5);
  Program program("br");
  program.push(make_branch(Opcode::kBeq, 1, 2, 2));     // skip next
  program.push(make_rri(Opcode::kAdd, 10, 0, 666));     // poison
  program.push(make_rri(Opcode::kAdd, 11, 0, 1));
  program.push(make_halt());
  machine.run(program);
  EXPECT_EQ(machine.reg(10), 0u);
  EXPECT_EQ(machine.reg(11), 1u);

  Machine not_taken(64);
  not_taken.set_reg(1, 5);
  not_taken.set_reg(2, 6);
  not_taken.run(program);
  EXPECT_EQ(not_taken.reg(10), 666u);
}

TEST(Machine, LoopExecutesExpectedIterations) {
  // r1 counts down from 5; loop body increments r10.
  Machine machine(64);
  machine.set_reg(1, 5);
  Program program("loop");
  program.push(make_rri(Opcode::kAdd, 10, 10, 1));      // 0: ++r10
  program.push(make_rri(Opcode::kSub, 1, 1, 1));        // 1: --r1
  program.push(make_branch(Opcode::kBne, 1, 0, -2));    // 2: while r1 != r0
  program.push(make_halt());
  const auto result = machine.run(program);
  EXPECT_TRUE(result.halted);
  EXPECT_EQ(machine.reg(10), 5u);
}

TEST(Machine, StepLimitAborts) {
  Program spin("spin");
  spin.push(make_jmp(0));  // infinite self-loop
  Machine machine(16);
  const auto result = machine.run(spin, /*max_steps=*/1000);
  EXPECT_FALSE(result.halted);
  EXPECT_EQ(result.steps, 1000u);
}

TEST(Machine, RunningOffTheEndStops) {
  Program program("fallthrough");
  program.push(make_rri(Opcode::kAdd, 1, 0, 1));
  Machine machine(16);
  const auto result = machine.run(program);
  EXPECT_FALSE(result.halted);
  EXPECT_EQ(machine.reg(1), 1u);
}

TEST(Machine, TraceRecordsDynamicStream) {
  Machine machine(64);
  machine.set_reg(1, 3);
  Program program("loop");
  program.push(make_rri(Opcode::kSub, 1, 1, 1));
  program.push(make_branch(Opcode::kBne, 1, 0, -1));
  program.push(make_halt());
  InstrTrace trace;
  machine.run(program, 1u << 20, &trace);
  // 3 iterations x (sub + bne) = 6 entries; halt is not traced.
  ASSERT_EQ(trace.size(), 6u);
  EXPECT_EQ(trace[0].cls, OpClass::kAlu);
  EXPECT_EQ(trace[1].cls, OpClass::kBranch);
  EXPECT_TRUE(trace[1].taken);
  EXPECT_FALSE(trace[5].taken);  // final bne falls through
  EXPECT_EQ(trace[1].pc, 1u);
}

TEST(Machine, TraceRecordsMemAddresses) {
  Machine machine(64);
  machine.set_reg(1, 10);
  Program program("mem");
  program.push(make_store(1, 1, 5));  // addr 15
  program.push(make_load(2, 1, 6));   // addr 16
  program.push(make_halt());
  InstrTrace trace;
  machine.run(program, 1u << 20, &trace);
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[0].addr, 15u);
  EXPECT_EQ(trace[1].addr, 16u);
  EXPECT_FALSE(trace[0].has_dst);
  EXPECT_TRUE(trace[1].has_dst);
}

TEST(Machine, DigestChangesWithState) {
  Machine a(64);
  Machine b(64);
  EXPECT_EQ(a.digest(), b.digest());
  b.poke(5, 1);
  EXPECT_NE(a.digest(), b.digest());
}

TEST(Machine, RegionDigestIgnoresOutsideChanges) {
  Machine a(64);
  Machine b(64);
  b.poke(50, 99);
  EXPECT_EQ(a.region_digest(0, 10), b.region_digest(0, 10));
  b.poke(5, 1);
  EXPECT_NE(a.region_digest(0, 10), b.region_digest(0, 10));
}

TEST(Machine, StuckAtFaultCorruptsAluResults) {
  Machine clean(64);
  Machine faulty(64);
  faulty.set_fault(StuckAtFault{OpClass::kAlu, 0, true});
  clean.set_reg(1, 4);  // 4 + 4 = 8: bit 0 clear
  faulty.set_reg(1, 4);
  const Program program = single(make_rrr(Opcode::kAdd, 5, 1, 1));
  clean.run(program);
  faulty.run(program);
  EXPECT_EQ(clean.reg(5), 8u);
  EXPECT_EQ(faulty.reg(5), 9u);  // stuck-at-1 on bit 0
}

TEST(Machine, StuckAtFaultLeavesOtherUnitsClean) {
  Machine faulty(64);
  faulty.set_fault(StuckAtFault{OpClass::kMul, 0, true});
  faulty.set_reg(1, 4);
  faulty.run(single(make_rrr(Opcode::kAdd, 5, 1, 1)));
  EXPECT_EQ(faulty.reg(5), 8u);  // ALU unaffected by MUL fault
}

TEST(Machine, StuckAtZeroFault) {
  Machine faulty(64);
  faulty.set_fault(StuckAtFault{OpClass::kAlu, 3, false});
  faulty.set_reg(1, 8);  // 8 + 0 = 8: bit 3 set
  faulty.run(single(make_rrr(Opcode::kAdd, 5, 1, 0)));
  EXPECT_EQ(faulty.reg(5), 0u);  // bit 3 forced to 0
}

TEST(KernelProgram, ComputesExpectedValues) {
  const std::uint64_t base = 100;
  const std::uint64_t n = 16;
  Machine machine(4096);
  seed_kernel_inputs(machine, base, n, 7);
  const Program kernel = make_kernel_program(base, n);
  const auto result = machine.run(kernel);
  ASSERT_TRUE(result.halted);
  std::uint64_t checksum = 0;
  for (std::uint64_t k = 0; k < n; ++k) {
    const std::uint64_t a = machine.peek(base + k);
    const std::uint64_t expected = a * 3 + (a << 2);
    EXPECT_EQ(machine.peek(base + n + k), expected) << k;
    checksum ^= expected;
  }
  EXPECT_EQ(machine.peek(base + n + n), checksum);
}

TEST(KernelProgram, DeterministicAcrossRuns) {
  Machine a(4096);
  Machine b(4096);
  seed_kernel_inputs(a, 100, 32, 9);
  seed_kernel_inputs(b, 100, 32, 9);
  const Program kernel = make_kernel_program(100, 32);
  a.run(kernel);
  b.run(kernel);
  EXPECT_EQ(a.digest(), b.digest());
}

}  // namespace
}  // namespace vds::smt
