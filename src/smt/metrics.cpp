#include "smt/metrics.hpp"

namespace vds::smt {

AlphaMeasurement measure_alpha(const CoreConfig& config, FetchPolicy policy,
                               const InstrTrace& a, const InstrTrace& b) {
  AlphaMeasurement m;

  {
    Core core(config, policy);
    const CoreResult r = core.run(a);
    m.cycles_a_alone = r.cycles;
    m.ipc_a_alone = r.threads.empty() ? 0.0 : r.threads[0].ipc();
  }
  {
    Core core(config, policy);
    const CoreResult r = core.run(b);
    m.cycles_b_alone = r.cycles;
    m.ipc_b_alone = r.threads.empty() ? 0.0 : r.threads[0].ipc();
  }
  {
    Core core(config, policy);
    const CoreResult r = core.run(a, b);
    m.cycles_together = r.cycles;
    m.ipc_together =
        r.cycles == 0
            ? 0.0
            : static_cast<double>(r.issued_total) /
                  static_cast<double>(r.cycles);
  }

  const double serial = static_cast<double>(m.cycles_a_alone) +
                        static_cast<double>(m.cycles_b_alone);
  if (serial > 0.0 && m.cycles_together > 0) {
    m.alpha = static_cast<double>(m.cycles_together) / serial;
    m.throughput_speedup = serial / static_cast<double>(m.cycles_together);
  }
  return m;
}

}  // namespace vds::smt
