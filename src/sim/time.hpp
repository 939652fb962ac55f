#pragma once

#include <limits>

namespace vds::sim {

/// Simulation time. The unit is whatever the model under simulation
/// chooses (the VDS model uses "round compute times", the SMT core uses
/// cycles); the engine only requires a totally ordered, additive scalar.
using SimTime = double;

/// Sentinel for "never".
inline constexpr SimTime kTimeInfinity =
    std::numeric_limits<SimTime>::infinity();

}  // namespace vds::sim
