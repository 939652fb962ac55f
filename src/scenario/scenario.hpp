#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>

#include "core/options.hpp"
#include "core/dme_engine.hpp"
#include "core/replay_engine.hpp"
#include "baseline/duplex.hpp"
#include "baseline/srt.hpp"
#include "fault/fault_model.hpp"
#include "scenario/fields.hpp"

namespace vds::scenario {

/// Which protocol engine a scenario drives.
enum class EngineKind : std::uint8_t {
  kSmt,      ///< SmtVds: VDS on the SMT processor (paper §3.2)
  kConv,     ///< ConventionalVds: VDS on a conventional processor (§3.1)
  kSrt,      ///< LockstepSrt: lockstep redundant threading baseline
  kDuplex,   ///< PhysicalDuplex: two-processor duplex baseline
  kReplay,   ///< ReplayVds: record/replay detection on the idle context
  kDme,      ///< DmeEngine: divergent multi-version execution
};

inline constexpr EngineKind kAllEngineKinds[] = {
    EngineKind::kSmt, EngineKind::kConv, EngineKind::kSrt,
    EngineKind::kDuplex, EngineKind::kReplay, EngineKind::kDme};

/// Canonical engine name: "smt", "conv", "srt", "duplex", "replay",
/// "dme" — the same spelling used by Engine::kind(), CLI flags and
/// scenario JSON.
[[nodiscard]] std::string_view to_string(EngineKind kind) noexcept;

/// Inverse of to_string; throws std::invalid_argument on unknown names.
[[nodiscard]] EngineKind parse_engine_kind(std::string_view name);

/// Human-readable list of every registered engine kind, in registry
/// order: "smt, conv, srt, duplex, replay or dme". Error messages and
/// usage text derive from this so they can never drift from the
/// registry.
[[nodiscard]] const std::string& engine_kind_list();

/// One complete, validated experiment specification: which engine to
/// run, its timing/recovery configuration, the fault process and the
/// predictor. The single source of configuration truth shared by
/// vds_cli, vds_mc and vds_sweep — each tool builds engine/fault
/// configs exclusively through the conversion methods below, so a
/// scenario means the same thing everywhere. Round-trips through JSON
/// (schema vds.scenario.v1) via to_json/from_json.
struct Scenario {
  EngineKind engine = EngineKind::kSmt;

  // --- recovery / job (defaults = vds_cli defaults) ---
  core::RecoveryScheme scheme = core::RecoveryScheme::kRollForwardDet;
  std::string predictor = "random";
  bool adaptive = false;
  double alpha = 0.65;   ///< SMT slowdown factor
  double beta = 0.1;     ///< c = t_cmp = beta * t
  int s = 20;            ///< checkpoint interval in rounds
  std::uint64_t rounds = 10000;  ///< job length in rounds
  int threads = 2;       ///< SMT hardware threads (2, 3 or 5); --hw-threads
  std::uint64_t seed = 1;

  // --- fault process ---
  double rate = 0.01;            ///< Poisson fault rate
  double crash_weight = 0.0;
  double permanent_weight = 0.0;
  double bias = 0.5;             ///< P(fault hits version 1)
  std::uint32_t locations = 16;
  double skew = 1.0;             ///< location uniformity in (0, 1]

  // --- baseline-engine extras (defaults = their config defaults) ---
  double srt_compare_overhead = 0.10;
  int srt_chunks_per_round = 100;
  int duplex_processors = 2;

  // --- replay/dme-engine extras (defaults = their config defaults) ---
  int replay_window = 4;
  double replay_record_overhead = 0.05;
  double dme_decorrelation = 0.5;
  double dme_common_mode = 0.3;

  /// Cross-field validation: every conversion below must succeed and
  /// the predictor must be a registered name. Throws
  /// std::invalid_argument with a "Scenario: ..." message.
  void validate() const;

  // --- conversions (exactly the wiring the tools used to hand-roll) --
  [[nodiscard]] core::VdsOptions vds_options() const;
  [[nodiscard]] baseline::SrtConfig srt_config() const;
  [[nodiscard]] baseline::DuplexConfig duplex_config() const;
  [[nodiscard]] core::ReplayConfig replay_config() const;
  [[nodiscard]] core::DmeConfig dme_config() const;
  [[nodiscard]] fault::FaultConfig fault_config() const;

  /// Generous fault-timeline horizon: the job can stretch under
  /// recoveries.
  [[nodiscard]] double horizon() const noexcept {
    return static_cast<double>(rounds) * 20.0 + 1000.0;
  }

  /// Serializes as a vds.scenario.v1 JSON document.
  void to_json(std::ostream& os) const;

  /// Writes the same document through an existing writer — lets a
  /// caller embed the scenario object inside a larger envelope (the
  /// fabric config handshake does this, compactly).
  void write_json(runtime::JsonWriter& json) const;

  /// Parses and validates a vds.scenario.v1 document. Strict: unknown
  /// keys, a wrong/missing schema tag, malformed values and
  /// out-of-range fields all throw (std::invalid_argument or
  /// JsonError). Absent optional fields keep their defaults.
  [[nodiscard]] static Scenario from_json(std::string_view text);

  /// Same strictness starting from an already-parsed document —
  /// vds_serve embeds scenarios inside request envelopes and hands
  /// the inner object here without re-serializing.
  [[nodiscard]] static Scenario from_json_value(const JsonValue& doc);

  [[nodiscard]] bool operator==(const Scenario&) const = default;
};

/// Flag group of the single-run fields: the scenario seed and the
/// fault process. Only a tool that runs one job reads them; campaigns
/// draw their own faults.
inline constexpr std::uint8_t kSingleRunFlags = 1;

/// Every Scenario field in vds.scenario.v1 key order, plus the
/// `--scenario FILE` loader: the one list behind the flags, --help,
/// from_json and write_json. Engine-under-test flags are in group 0,
/// the single-run flags in kSingleRunFlags.
[[nodiscard]] std::span<const Field<Scenario>> scenario_fields();

}  // namespace vds::scenario
