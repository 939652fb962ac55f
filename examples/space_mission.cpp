// Space-mission scenario (paper §1): a soft mission-critical computer
// serves a queue of scientific experiments. Radiation makes transient
// faults frequent and occasionally crashes a process; repair is
// impossible, so every experiment runs under an SMT VDS whose
// probabilistic roll-forward is steered by crash evidence and a
// fault-history predictor. The experiments run back to back; the
// mission clock and statistics accumulate across the queue.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/smt_engine.hpp"
#include "fault/predictor.hpp"
#include "sim/stats.hpp"

using namespace vds;

namespace {

struct Experiment {
  std::string name;
  std::uint64_t rounds;
  double fault_rate;  // local radiation intensity during the window
};

core::VdsOptions mission_options(std::uint64_t rounds) {
  core::VdsOptions options;
  options.t = 1.0;
  options.c = 0.08;
  options.t_cmp = 0.08;
  options.alpha = 0.62;  // radiation-hardened SMT part
  options.s = 16;
  options.job_rounds = rounds;
  // The Section-4 predict scheme rolls forward fastest but performs no
  // comparison during the roll-forward; at space-grade fault rates that
  // hazard regularly commits corrupted science data (try it: swap in
  // kRollForwardPredict and watch the silent-corruption counter). The
  // probabilistic scheme keeps the prediction benefit *and* detection.
  options.scheme = core::RecoveryScheme::kRollForwardProb;
  return options;
}

}  // namespace

int main() {
  const std::vector<Experiment> queue = {
      {"magnetometer-sweep", 4000, 0.004},
      {"spectrometer-scan", 8000, 0.012},   // passes radiation belt
      {"imaging-burst", 2500, 0.030},       // solar flare window
      {"telemetry-compaction", 6000, 0.006},
      {"plasma-probe", 5000, 0.018},
  };

  sim::Accumulator mission_time;
  sim::Accumulator detection_latency;
  std::uint64_t total_faults = 0;
  std::uint64_t failed = 0;
  std::uint64_t corrupted = 0;
  double predictor_hits = 0.0;
  double predictor_total = 0.0;

  std::printf("=== space mission: %zu experiments under radiation ===\n\n",
              queue.size());
  std::printf("%-24s %6s %8s | %9s %5s %9s %8s %7s %6s\n", "experiment",
              "rounds", "rate", "launch", "end", "time", "faults", "p", "rf");

  // Each experiment launches when the previous one finished.
  double launch_at = 0.0;
  for (std::size_t index = 0; index < queue.size(); ++index) {
    const Experiment& experiment = queue[index];
    core::VdsOptions options = mission_options(experiment.rounds);

    fault::FaultConfig fc;
    fc.rate = experiment.fault_rate;
    fc.weight_transient = 0.85;
    fc.weight_crash = 0.13;            // latch-up style process crashes
    fc.weight_processor_crash = 0.02;  // full single-event upsets
    fc.locations = 12;
    fc.location_uniformity = 0.4;      // a few weak spots on the die
    fc.victim1_bias = 0.7;             // version 1 exercises them more

    sim::Rng fault_rng(1000 + index);
    auto timeline = fault::generate_timeline(
        fc, fault_rng, 1e7);

    core::SmtVds vds(options, sim::Rng(17 + index));
    vds.set_predictor(std::make_unique<fault::CrashEvidencePredictor>(
        std::make_unique<fault::HistoryPredictor>(6, 4)));
    const core::RunReport report = vds.run(timeline);

    mission_time.add(report.total_time);
    total_faults += report.faults_seen;
    if (!report.completed) ++failed;
    if (report.silent_corruption) ++corrupted;
    if (!report.detection_latency.empty()) {
      detection_latency.merge(report.detection_latency);
    }
    predictor_hits += static_cast<double>(report.prediction_hits);
    predictor_total += static_cast<double>(report.predictions);

    std::printf("%-24s %6llu %8.3f | %9.1f %5s %9.1f %8llu %7.2f %6llu\n",
                experiment.name.c_str(),
                static_cast<unsigned long long>(experiment.rounds),
                experiment.fault_rate, launch_at,
                report.completed ? "ok" : "FAIL", report.total_time,
                static_cast<unsigned long long>(report.faults_seen),
                report.predictor_accuracy(),
                static_cast<unsigned long long>(
                    report.roll_forward_rounds_gained));

    launch_at += report.total_time;
  }

  std::printf("\n=== mission summary ===\n");
  std::printf("experiments completed: %zu/%zu (silent corruptions: %llu)\n",
              queue.size() - failed, queue.size(),
              static_cast<unsigned long long>(corrupted));
  std::printf("total compute time:    %.1f\n", mission_time.sum());
  std::printf("faults absorbed:       %llu\n",
              static_cast<unsigned long long>(total_faults));
  if (!detection_latency.empty()) {
    std::printf("mean detection latency: %.3f (max %.3f)\n",
                detection_latency.mean(), detection_latency.max());
  }
  if (predictor_total > 0) {
    std::printf("fleet predictor accuracy p = %.3f "
                "(crash evidence + fault history)\n",
                predictor_hits / predictor_total);
  }
  return 0;
}
