#pragma once

#include "core/engine.hpp"
#include "core/options.hpp"
#include "core/report.hpp"
#include "core/version_set.hpp"
#include "checkpoint/store.hpp"
#include "fault/injector.hpp"
#include "sim/rng.hpp"
#include "sim/trace.hpp"

namespace vds::core {

/// VDS on a conventional (single-context) processor, paper §3.1 /
/// Figure 1(a): versions 1 and 2 alternate in rounds separated by
/// context switches; states are compared after each round pair;
/// checkpoints are taken every s rounds; a mismatch at round i triggers
/// stop-and-retry -- version 3 replays the i rounds from the checkpoint
/// and a 2-out-of-3 vote identifies the faulty version (eq (2)).
///
/// This engine is the paper's own baseline; the SMT engine (SmtVds) is
/// compared against it.
class ConventionalVds final : public Engine {
 public:
  explicit ConventionalVds(VdsOptions options, vds::sim::Rng rng);

  [[nodiscard]] std::string_view kind() const noexcept override {
    return "conv";
  }

  /// Executes the job against a fault timeline. `trace` may be null.
  RunReport run(vds::fault::FaultTimeline& timeline,
                vds::sim::Trace* trace = nullptr) override;

 private:
  VdsOptions options_;
  vds::sim::Rng rng_;
};

}  // namespace vds::core
