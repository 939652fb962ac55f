// Every engine kind on an empty fault timeline, against the closed-form
// fault-free cost of its round and its checkpoint cadence: one compare
// per round (per chunk on SRT, per window on replay), one checkpoint
// every s committed rounds plus the final one, and a total time of
// rounds x round cost + checkpoints x write latency. This pins the
// shared run loop's cadence for all six engines at once.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/duplex.hpp"
#include "baseline/srt.hpp"
#include "core/conventional.hpp"
#include "core/dme_engine.hpp"
#include "core/replay_engine.hpp"
#include "core/smt_engine.hpp"
#include "fault/injector.hpp"
#include "sim/rng.hpp"

namespace {

using vds::core::RunReport;

struct Cell {
  int s;
  std::uint64_t job_rounds;
  double write_latency;
};

std::vector<Cell> grid() {
  std::vector<Cell> cells;
  for (const int s : {1, 3, 7, 20}) {
    for (const std::uint64_t job : {1u, 5u, 21u, 60u}) {
      for (const double write : {0.25, 1.5}) cells.push_back({s, job, write});
    }
  }
  return cells;
}

constexpr double kReadLatency = 0.75;  // never paid without a fault

std::uint64_t ceil_div(std::uint64_t a, std::uint64_t b) {
  return (a + b - 1) / b;
}

template <typename Engine>
RunReport run_fault_free(Engine engine) {
  vds::fault::FaultTimeline timeline{std::vector<vds::fault::Fault>{}};
  return engine.run(timeline);
}

template <typename Config>
Config with_cell(Config config, const Cell& cell) {
  config.s = cell.s;
  config.job_rounds = cell.job_rounds;
  config.checkpoint_write_latency = cell.write_latency;
  config.checkpoint_read_latency = kReadLatency;
  return config;
}

void expect_closed_form(const RunReport& rep, const Cell& cell,
                        std::uint64_t comparisons, std::uint64_t checkpoints,
                        double work_time) {
  SCOPED_TRACE(::testing::Message() << "s=" << cell.s << " job="
                                    << cell.job_rounds << " write="
                                    << cell.write_latency);
  EXPECT_TRUE(rep.completed);
  EXPECT_FALSE(rep.failed_safe);
  EXPECT_FALSE(rep.silent_corruption);
  EXPECT_EQ(rep.rounds_committed, cell.job_rounds);
  EXPECT_EQ(rep.detections, 0u);
  EXPECT_EQ(rep.rollbacks, 0u);
  EXPECT_EQ(rep.comparisons, comparisons);
  EXPECT_EQ(rep.checkpoints, checkpoints);
  const double expected =
      work_time + static_cast<double>(checkpoints) * cell.write_latency;
  EXPECT_NEAR(rep.total_time, expected, 1e-12 * expected);
}

// Checkpoints of an engine that commits one round at a time.
std::uint64_t round_checkpoints(const Cell& cell) {
  return ceil_div(cell.job_rounds, static_cast<std::uint64_t>(cell.s));
}

TEST(ZeroFaultClosedForm, ConventionalEq1) {
  for (const Cell& cell : grid()) {
    const auto options = with_cell(vds::core::VdsOptions{}, cell);
    const double round = 2.0 * (options.t + options.c) + options.t_cmp;
    expect_closed_form(
        run_fault_free(vds::core::ConventionalVds(options, vds::sim::Rng(1))),
        cell, cell.job_rounds, round_checkpoints(cell),
        static_cast<double>(cell.job_rounds) * round);
  }
}

TEST(ZeroFaultClosedForm, SmtEq3) {
  for (const Cell& cell : grid()) {
    const auto options = with_cell(vds::core::VdsOptions{}, cell);
    const double round = 2.0 * options.alpha * options.t + options.t_cmp;
    expect_closed_form(
        run_fault_free(vds::core::SmtVds(options, vds::sim::Rng(1))), cell,
        cell.job_rounds, round_checkpoints(cell),
        static_cast<double>(cell.job_rounds) * round);
  }
}

TEST(ZeroFaultClosedForm, LockstepSrt) {
  for (const Cell& cell : grid()) {
    const auto config = with_cell(vds::baseline::SrtConfig{}, cell);
    const double round =
        2.0 * config.alpha * config.t * (1.0 + config.compare_overhead);
    expect_closed_form(
        run_fault_free(vds::baseline::LockstepSrt(config, vds::sim::Rng(1))),
        cell,
        cell.job_rounds *
            static_cast<std::uint64_t>(config.chunks_per_round),
        round_checkpoints(cell),
        static_cast<double>(cell.job_rounds) * round);
  }
}

TEST(ZeroFaultClosedForm, PhysicalDuplex) {
  for (const Cell& cell : grid()) {
    const auto config = with_cell(vds::baseline::DuplexConfig{}, cell);
    expect_closed_form(
        run_fault_free(
            vds::baseline::PhysicalDuplex(config, vds::sim::Rng(1))),
        cell, cell.job_rounds, round_checkpoints(cell),
        static_cast<double>(cell.job_rounds) * (config.t + config.t_cmp));
  }
}

TEST(ZeroFaultClosedForm, Dme) {
  for (const Cell& cell : grid()) {
    const auto config = with_cell(vds::core::DmeConfig{}, cell);
    const double round =
        2.0 * config.t * std::max(config.alpha1(), config.alpha2()) +
        config.t_cmp;
    expect_closed_form(
        run_fault_free(vds::core::DmeEngine(config, vds::sim::Rng(1))), cell,
        cell.job_rounds, round_checkpoints(cell),
        static_cast<double>(cell.job_rounds) * round);
  }
}

TEST(ZeroFaultClosedForm, ReplayWindows) {
  for (const Cell& cell : grid()) {
    const auto config = with_cell(vds::core::ReplayConfig{}, cell);
    const auto window = static_cast<std::uint64_t>(config.window);
    const std::uint64_t windows = ceil_div(cell.job_rounds, window);
    // The cadence counts verified rounds, which advance a window at a
    // time: a checkpoint every ceil(s / window) windows, plus the last.
    const std::uint64_t checkpoints = ceil_div(
        windows, ceil_div(static_cast<std::uint64_t>(cell.s), window));
    // Every round is recorded at the overlapped rate; the last window
    // then replays alone at full speed.
    const std::uint64_t tail = cell.job_rounds - (windows - 1) * window;
    const double work =
        static_cast<double>(cell.job_rounds) * config.alpha * config.t *
            (1.0 + config.record_overhead) +
        static_cast<double>(windows) * config.compare_time +
        static_cast<double>(tail) * config.t;
    expect_closed_form(
        run_fault_free(vds::core::ReplayVds(config, vds::sim::Rng(1))), cell,
        windows, checkpoints, work);
  }
}

}  // namespace
