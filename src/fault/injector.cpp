#include "fault/injector.hpp"

#include <algorithm>
#include <cmath>

namespace vds::fault {

FaultTimeline::FaultTimeline(std::vector<Fault> faults)
    : faults_(std::move(faults)) {
  std::stable_sort(faults_.begin(), faults_.end(),
                   [](const Fault& a, const Fault& b) {
                     return a.when < b.when;
                   });
}

std::vector<Fault> FaultTimeline::drain_pending(vds::sim::SimTime from,
                                                vds::sim::SimTime to) {
  std::vector<Fault> out;
  // Skip anything strictly before the window (already consumed or
  // belonging to a phase the caller chose to skip).
  while (cursor_ < faults_.size() && faults_[cursor_].when < from) ++cursor_;
  while (cursor_ < faults_.size() && faults_[cursor_].when < to) {
    out.push_back(faults_[cursor_]);
    ++cursor_;
  }
  return out;
}

Fault sample_fault_body(const FaultConfig& config, vds::sim::Rng& rng) {
  Fault fault;

  const double total = config.weight_transient + config.weight_crash +
                       config.weight_permanent +
                       config.weight_processor_crash;
  const double roll = rng.uniform() * total;
  if (roll < config.weight_transient) {
    fault.kind = FaultKind::kTransient;
  } else if (roll < config.weight_transient + config.weight_crash) {
    fault.kind = FaultKind::kCrash;
  } else if (roll < config.weight_transient + config.weight_crash +
                        config.weight_permanent) {
    fault.kind = FaultKind::kPermanent;
  } else {
    fault.kind = FaultKind::kProcessorCrash;
  }

  fault.victim = rng.bernoulli(config.victim1_bias) ? Victim::kVersion1
                                                    : Victim::kVersion2;

  // Spatial bias: draw an exponent-skewed index. uniformity == 1 gives a
  // uniform draw; smaller values concentrate probability mass on
  // low-numbered locations (a "weak part" hit repeatedly).
  const double u = rng.uniform();
  const double skewed = std::pow(u, 1.0 / config.location_uniformity);
  fault.location = static_cast<std::uint32_t>(
      std::min<double>(config.locations - 1,
                       skewed * static_cast<double>(config.locations)));

  fault.word = static_cast<std::uint32_t>(rng.uniform_index(1u << 16));
  fault.bit = static_cast<std::uint8_t>(rng.uniform_index(64));
  return fault;
}

FaultTimeline generate_timeline(const FaultConfig& config,
                                vds::sim::Rng& rng,
                                vds::sim::SimTime horizon) {
  config.validate();
  std::vector<Fault> faults;
  if (config.rate > 0.0) {
    vds::sim::SimTime when = 0.0;
    for (;;) {
      when += rng.exponential(config.rate);
      if (when >= horizon) break;
      Fault fault = sample_fault_body(config, rng);
      fault.when = when;
      faults.push_back(fault);
    }
  }
  return FaultTimeline(std::move(faults));
}

}  // namespace vds::fault
