#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "fault/fault_model.hpp"
#include "runtime/mc_campaign.hpp"
#include "scenario/scenario.hpp"

namespace vds::scenario {

class JsonValue;

/// The Monte Carlo campaign-shaping knobs, factored out of vds_mc so
/// vds_serve request envelopes and vds_mc flags build the *same*
/// runtime::McConfig from the same inputs — the config-mapping parity
/// behind the serve-vs-batch bitwise-identity guarantee. Execution
/// knobs the server owns (threads, journal, chaos) stay here too so
/// to_mc_config is total, but campaign_spec_from_json refuses to set
/// them from a request.
struct CampaignSpec {
  std::uint64_t replicas = 100;
  std::vector<std::uint64_t> grid = {1, 5, 10, 15, 20};
  std::vector<vds::fault::FaultKind> kinds;  ///< empty = all four
  bool jitter = true;
  double fixed_offset = 0.3;
  std::uint64_t seed = 1;
  unsigned threads = 0;
  std::string journal;
  bool resume = false;
  /// Half-open dispatch range; the full-coverage default runs every
  /// cell. Execution knobs like journal/threads — not settable from a
  /// serve request.
  std::uint64_t cell_lo = 0;
  std::uint64_t cell_hi = ~0ull;
  double cell_timeout = 0.0;
  unsigned max_retries = 2;
  std::string chaos;
  /// Adaptive sampling: relative CI target (0 keeps the fixed
  /// lattice). When armed, `max_replicas` caps each stratum (0 =
  /// reuse `replicas`) and `replicas` loses its fixed-count meaning.
  double target_ci = 0.0;
  std::uint64_t min_replicas = 8;
  std::uint64_t max_replicas = 0;
  std::uint64_t batch = 32;

  [[nodiscard]] bool operator==(const CampaignSpec&) const = default;
};

/// Canonical fault-kind names ("transient", "crash", "permanent",
/// "processor_crash"); throws std::invalid_argument on anything else.
[[nodiscard]] vds::fault::FaultKind parse_fault_kind(
    std::string_view name);

/// Engine-parameter fingerprint folded into the journal fingerprint
/// so a journal can only be resumed against the same engine. The
/// first six folds reproduce the pre-scenario fingerprint byte for
/// byte; newer fields fold only when they differ from the defaults,
/// keeping old journals resumable.
[[nodiscard]] std::uint64_t engine_fingerprint(const Scenario& scenario);

/// Builds the campaign config exactly as vds_mc always has: grid and
/// execution knobs from `spec`, round_time = 2*alpha + beta and the
/// runner fingerprint from `scenario`.
[[nodiscard]] runtime::McConfig to_mc_config(const CampaignSpec& spec,
                                             const Scenario& scenario);

/// The scenario's campaign runner (engine stream split(1), predictor
/// stream split(2) — the deterministic draw-order contract). Captures
/// `scenario` by value so the runner outlives the caller's frame;
/// vds_serve keeps it queued long after the request parser returned.
[[nodiscard]] runtime::McRunner make_mc_runner(Scenario scenario);

/// Every CampaignSpec field: the flags vds_mc and vds_fabric share,
/// and the keys of the serve/fabric campaign object (execution knobs
/// — threads, journal, chaos, resume, cell range — have no key).
[[nodiscard]] std::span<const Field<CampaignSpec>> campaign_fields();

/// Strict parse of a campaign object (the "campaign" member of a
/// vds.serve request envelope). Accepted keys mirror the mc_summary
/// config section: replicas, rounds (the grid), kinds, jitter_offset,
/// fixed_offset, seed, cell_timeout, max_retries, and the adaptive
/// sampling knobs target_ci, min_replicas, max_replicas, batch.
/// Unknown keys, malformed values and empty grids throw
/// std::invalid_argument.
[[nodiscard]] CampaignSpec campaign_spec_from_json(const JsonValue& doc);

/// Inverse of campaign_spec_from_json: writes the campaign object
/// with exactly the keys that parser accepts (execution knobs —
/// threads, journal, chaos — are omitted by design). Round-trip
/// identity: campaign_spec_from_json(campaign_spec_to_json(spec))
/// rebuilds the campaign-shaping fields, so both ends of a fabric
/// handshake compute the same fingerprint.
void campaign_spec_to_json(runtime::JsonWriter& json,
                           const CampaignSpec& spec);

}  // namespace vds::scenario
