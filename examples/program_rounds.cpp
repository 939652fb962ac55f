// Program-backed rounds: the protocol engines treat a "round" as an
// abstract unit of work; this example closes the loop by running a VDS
// whose rounds execute *real programs* on the functional ISA machine --
// two automatically generated diverse variants computing the same
// kernel, compared by encoding-aware output digests, with a stuck-at
// fault injected into the multiplier halfway through.
//
// It demonstrates, end to end and without any protocol shortcut:
//   round execution -> comparison -> checkpoint -> detection ->
//   stop-and-retry with the third variant -> majority vote ->
//   continuation with the two healthy variants.

#include <cstdio>
#include <optional>
#include <vector>

#include "checkpoint/store.hpp"
#include "diversity/generator.hpp"
#include "diversity/transforms.hpp"
#include "smt/machine.hpp"
#include "smt/workload.hpp"

using namespace vds;

namespace {

constexpr std::uint64_t kBase = 1024;
constexpr std::uint64_t kElems = 48;
constexpr std::uint64_t kRounds = 30;
constexpr int kCheckpointEvery = 8;

/// One version: a diverse program variant plus its private machine.
struct Version {
  smt::Program program{"?"};
  smt::Machine machine{8192};
  const char* name = "?";

  /// Executes one round: reseeds the input region from the shared
  /// round-dependent data, runs the kernel, folds the output digest
  /// into a running state word stored in memory.
  std::uint64_t run_round(std::uint64_t round,
                          std::optional<smt::StuckAtFault> fault) {
    machine.set_fault(fault);
    smt::seed_kernel_inputs(machine, kBase, kElems, round * 7919);
    const auto result = machine.run(program, 1u << 22);
    if (!result.halted) return 0xDEAD;
    return machine.region_digest(kBase + kElems, kElems + 1);
  }
};

}  // namespace

/// A kernel whose arithmetic is expressible entirely with shifts:
/// out[i] = (a[i] << 1) + (a[i] << 3), plus a checksum. Strength
/// reduction can rewrite it to use the multiplier instead -- giving a
/// version pair whose *unit usage* differs completely.
smt::Program make_shift_kernel() {
  using smt::Opcode;
  smt::Program program("shift_kernel");
  const auto b = static_cast<std::int64_t>(kBase);
  const auto n = static_cast<std::int64_t>(kElems);
  program.push(smt::make_rri(Opcode::kAdd, 1, 0, 0));      // i = 0
  program.push(smt::make_rri(Opcode::kAdd, 2, 0, n));      // count
  program.push(smt::make_rri(Opcode::kAdd, 3, 0, b));      // in base
  program.push(smt::make_rri(Opcode::kAdd, 4, 0, b + n));  // out base
  program.push(smt::make_rri(Opcode::kAdd, 20, 0, 0));     // checksum
  program.push(smt::make_rrr(Opcode::kAdd, 10, 3, 1));     // 5: &a[i]
  program.push(smt::make_load(11, 10, 0));                 // a[i]
  program.push(smt::make_rri(Opcode::kShl, 12, 11, 1));    // a << 1
  program.push(smt::make_rri(Opcode::kShl, 13, 11, 3));    // a << 3
  program.push(smt::make_rrr(Opcode::kAdd, 12, 12, 13));
  program.push(smt::make_rrr(Opcode::kAdd, 14, 4, 1));
  program.push(smt::make_store(12, 14, 0));
  program.push(smt::make_rrr(Opcode::kXor, 20, 20, 12));
  program.push(smt::make_rri(Opcode::kAdd, 1, 1, 1));
  program.push(smt::make_branch(Opcode::kBne, 1, 2, -9));
  program.push(smt::make_store(20, 4, n));
  program.push(smt::make_halt());
  return program;
}

int main() {
  std::printf("=== VDS rounds executing real diverse programs ===\n\n");

  // Three diverse versions: V1 computes with shifts, V2 is the
  // strength-reduced rewrite computing the same values on the
  // *multiplier*, V3 a reordered/renamed shift variant (Jochim [4]).
  const smt::Program base = make_shift_kernel();
  sim::Rng transform_rng(11);
  diversity::Generator generator{sim::Rng(13)};
  Version v1{base, smt::Machine(8192), "V1(shl)"};
  Version v2{diversity::strength_reduce(base, transform_rng, 1.0),
             smt::Machine(8192), "V2(mul)"};
  Version v3{generator.variant(base, diversity::recipe_light()),
             smt::Machine(8192), "V3(shl')"};

  checkpoint::CheckpointStore store;

  // A multiplier stuck-at bit appears at round 16 and stays: only V2
  // computes through the broken unit, so the comparison fires and the
  // vote isolates it -- the surviving shift-based pair is fault-free.
  const std::optional<smt::StuckAtFault> broken_mul =
      smt::StuckAtFault{smt::OpClass::kMul, 2, true};
  const std::uint64_t fault_round = 16;

  std::vector<std::uint64_t> committed;  // digests of committed rounds
  std::uint64_t last_checkpoint_round = 0;
  std::uint64_t checkpoints_saved = 0;
  int detections = 0;
  int recoveries = 0;

  for (std::uint64_t round = 1; round <= kRounds; ++round) {
    const bool fault_active = round >= fault_round;
    // The fault lives in the multiplier: every version computes with
    // it, but only versions whose code *uses* mul for the affected
    // values produce wrong results.
    const auto fault =
        fault_active ? broken_mul : std::optional<smt::StuckAtFault>{};

    const std::uint64_t d1 = v1.run_round(round, fault);
    const std::uint64_t d2 = v2.run_round(round, fault);

    if (d1 == d2) {
      committed.push_back(d1);
      if (round % kCheckpointEvery == 0) {
        checkpoint::VersionState state(round, 4);
        store.save(round, state, static_cast<double>(round));
        last_checkpoint_round = round;
        ++checkpoints_saved;
      }
      continue;
    }

    // Mismatch: stop-and-retry with the third diverse version.
    ++detections;
    std::printf("round %2llu: MISMATCH (%016llx vs %016llx) -> retry "
                "with %s\n",
                static_cast<unsigned long long>(round),
                static_cast<unsigned long long>(d1),
                static_cast<unsigned long long>(d2), v3.name);
    const std::uint64_t d3 = v3.run_round(round, fault);
    if (d3 == d1) {
      std::printf("          vote: %s faulty; continuing with %s + %s\n",
                  v2.name, v1.name, v3.name);
      std::swap(v2, v3);
      ++recoveries;
      committed.push_back(d1);
    } else if (d3 == d2) {
      std::printf("          vote: %s faulty; continuing with %s + %s\n",
                  v1.name, v2.name, v3.name);
      std::swap(v1, v3);
      ++recoveries;
      committed.push_back(d2);
    } else {
      std::printf("          no majority: rollback to round %llu\n",
                  static_cast<unsigned long long>(last_checkpoint_round));
      round = last_checkpoint_round;  // re-execute the interval
      committed.resize(last_checkpoint_round);
    }
  }

  std::printf("\ncommitted %zu rounds, %d detections, %d recoveries\n",
              committed.size(), detections, recoveries);
  std::printf("checkpoints saved: %llu\n",
              static_cast<unsigned long long>(checkpoints_saved));
  std::printf(
      "\nthe permanent multiplier fault was detected by diversity and\n"
      "voted out; the surviving pair finished the job with correct\n"
      "results -- the paper's core fault-tolerance claim, executed on\n"
      "real (generated) diverse programs rather than abstract rounds.\n");
  return detections > 0 && recoveries > 0 ? 0 : 1;
}
