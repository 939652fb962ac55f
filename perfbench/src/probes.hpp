#pragma once

// Unit costs of single public functions, timed from the benchmark in
// tight loops on the workloads' own inputs. Multiplying one by a work
// count of the traced run gives a computed (not measured) share.

#include <cstdint>
#include <string>

namespace perfbench {

struct UnitCosts {
  double advance_ns = 0.0;   ///< VersionState::advance_round, 16 words
  double equals_ns = 0.0;    ///< VersionState::equals
  double digest_ns = 0.0;    ///< VersionState::digest
  double save_ns = 0.0;      ///< CheckpointStore::save, CRC only
  double latest_ns = 0.0;    ///< CheckpointStore::latest
  double journal_append_us = 0.0;  ///< one v3 Journal::append (+ flush)
  double parse_us = 0.0;     ///< serve::parse_request, serve_mix lines
  double format_us = 0.0;    ///< format_campaign/run_response, same mix
  double pool_tasks_per_cell = 0.0;  ///< pool.tasks_submitted / cells
};

/// Measures every unit cost; `workdir` holds the journal probe's file.
[[nodiscard]] UnitCosts measure_unit_costs(std::uint64_t seed,
                                           const std::string& workdir);

}  // namespace perfbench
