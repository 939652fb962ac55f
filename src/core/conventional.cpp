#include "core/conventional.hpp"

#include "core/platform_cores.hpp"
#include "core/recovery_policy.hpp"

namespace vds::core {

ConventionalVds::ConventionalVds(VdsOptions options, vds::sim::Rng rng)
    : options_(options), rng_(rng) {
  options_.validate();
}

RunReport ConventionalVds::run(vds::fault::FaultTimeline& timeline,
                               vds::sim::Trace* trace) {
  const auto policy =
      make_recovery_policy(options_, Platform::kConventional);
  ConventionalCore core(options_, rng_, timeline, trace, *policy);
  return core.run([&core] { core.step_round(); });
}

}  // namespace vds::core
