#include "core/smt_engine.hpp"

#include "core/platform_cores.hpp"
#include "core/recovery_policy.hpp"

namespace vds::core {

SmtVds::SmtVds(VdsOptions options, vds::sim::Rng rng)
    : options_(options), rng_(rng) {
  options_.validate();
  predictor_ = std::make_unique<vds::fault::RandomPredictor>(
      rng_.split(0x9ed1c7));
}

void SmtVds::set_predictor(
    std::unique_ptr<vds::fault::Predictor> predictor) {
  if (predictor) predictor_ = std::move(predictor);
}

RunReport SmtVds::run(vds::fault::FaultTimeline& timeline,
                      vds::sim::Trace* trace) {
  const auto policy = make_recovery_policy(options_, Platform::kSmt);
  SmtCore core(options_, rng_, *predictor_, timeline, trace, *policy);
  return core.run([&core] { core.step_round(); });
}

}  // namespace vds::core
