#include "scenario/campaign_spec.hpp"

#include <stdexcept>
#include <utility>

#include "runtime/journal.hpp"
#include "scenario/engine_factory.hpp"
#include "scenario/json_reader.hpp"

namespace vds::scenario {

vds::fault::FaultKind parse_fault_kind(std::string_view name) {
  using vds::fault::FaultKind;
  if (name == "transient") return FaultKind::kTransient;
  if (name == "crash") return FaultKind::kCrash;
  if (name == "permanent") return FaultKind::kPermanent;
  if (name == "processor_crash") return FaultKind::kProcessorCrash;
  throw std::invalid_argument(
      "unknown fault kind '" + std::string(name) +
      "' (expected transient, crash, permanent or processor_crash)");
}

std::uint64_t engine_fingerprint(const Scenario& scenario) {
  std::uint64_t h =
      vds::runtime::fnv1a(vds::core::short_name(scenario.scheme));
  h = vds::runtime::fnv1a(scenario.predictor, h);
  h = vds::runtime::fnv1a(&scenario.alpha, sizeof scenario.alpha, h);
  h = vds::runtime::fnv1a(&scenario.beta, sizeof scenario.beta, h);
  h = vds::runtime::fnv1a(&scenario.s, sizeof scenario.s, h);
  h = vds::runtime::fnv1a(&scenario.rounds, sizeof scenario.rounds, h);
  if (scenario.engine != EngineKind::kSmt) {
    h = vds::runtime::fnv1a(to_string(scenario.engine), h);
  }
  // Engine-specific extras hash only for their own kind, so every
  // pre-existing fingerprint (and journal) is untouched.
  if (scenario.engine == EngineKind::kReplay) {
    h = vds::runtime::fnv1a(&scenario.replay_window,
                            sizeof scenario.replay_window, h);
    h = vds::runtime::fnv1a(&scenario.replay_record_overhead,
                            sizeof scenario.replay_record_overhead, h);
  }
  if (scenario.engine == EngineKind::kDme) {
    h = vds::runtime::fnv1a(&scenario.dme_decorrelation,
                            sizeof scenario.dme_decorrelation, h);
    h = vds::runtime::fnv1a(&scenario.dme_common_mode,
                            sizeof scenario.dme_common_mode, h);
  }
  if (scenario.adaptive) h = vds::runtime::fnv1a("adaptive", h);
  if (scenario.threads != 2) {
    h = vds::runtime::fnv1a(&scenario.threads, sizeof scenario.threads, h);
  }
  return h;
}

runtime::McConfig to_mc_config(const CampaignSpec& spec,
                               const Scenario& scenario) {
  runtime::McConfig config;
  if (!spec.kinds.empty()) config.kinds = spec.kinds;
  config.rounds = spec.grid;
  config.replicas = spec.replicas;
  config.round_time = 2.0 * scenario.alpha + scenario.beta;
  config.jitter_offset = spec.jitter;
  config.fixed_offset = spec.fixed_offset;
  config.seed = spec.seed;
  config.threads = spec.threads;
  config.journal_path = spec.journal;
  config.resume = spec.resume;
  config.cell_lo = spec.cell_lo;
  config.cell_hi = spec.cell_hi;
  config.cell_timeout = spec.cell_timeout;
  config.max_retries = spec.max_retries;
  config.chaos = spec.chaos;
  config.target_ci = spec.target_ci;
  config.min_replicas = spec.min_replicas;
  config.batch = spec.batch;
  // With sampling armed, McConfig::replicas is the per-stratum
  // maximum; an explicit max_replicas overrides the replicas default.
  if (spec.target_ci > 0.0 && spec.max_replicas > 0) {
    config.replicas = spec.max_replicas;
  }
  config.runner_fingerprint = engine_fingerprint(scenario);
  return config;
}

runtime::McRunner make_mc_runner(Scenario scenario) {
  return [scenario = std::move(scenario)](
             const runtime::McCell&, vds::fault::FaultTimeline& timeline,
             vds::sim::Rng& rng) {
    // split() mutates the cell RNG, so the draw order (engine stream
    // first, predictor stream second) is part of the deterministic
    // contract -- sequence it with named locals.
    auto engine_rng = rng.split(1);
    auto predictor_rng = rng.split(2);
    const auto engine = make_engine(scenario, engine_rng, predictor_rng);
    return engine->run(timeline);
  };
}

namespace {

std::vector<std::string> split_csv(std::string_view text) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = text.find(',', start);
    parts.emplace_back(text.substr(start, comma - start));
    if (comma == std::string_view::npos) return parts;
    start = comma + 1;
  }
}

const std::vector<JsonValue>& non_empty_array(const JsonValue& value,
                                              const Site& site) {
  if (value.kind != JsonValue::Kind::kArray || value.items.empty()) {
    reject(site, value.text, "a non-empty array");
  }
  return value.items;
}

void add_round(CampaignSpec& spec, std::uint64_t round,
               std::string_view text, const Site& site) {
  if (round == 0) reject(site, text, "a positive round number");
  spec.grid.push_back(round);
}

void parse_grid(CampaignSpec& spec, std::string_view text,
                const Site& site) {
  spec.grid.clear();
  for (const std::string& part : split_csv(text)) {
    add_round(spec, parse_u64(site.name, part), part, site);
  }
}

void read_grid(CampaignSpec& spec, const JsonValue& value,
               const Site& site) {
  spec.grid.clear();
  for (const JsonValue& item : non_empty_array(value, site)) {
    add_round(spec, item.as_u64(site.name), item.text, site);
  }
}

std::string show_grid(const CampaignSpec& spec) {
  std::string out;
  for (const std::uint64_t round : spec.grid) {
    if (!out.empty()) out += ',';
    out += std::to_string(round);
  }
  return out;
}

void add_kind(CampaignSpec& spec, std::string_view name, const Site& site) {
  try {
    spec.kinds.push_back(parse_fault_kind(name));
  } catch (const std::invalid_argument&) {
    reject(site, name, "transient, crash, permanent or processor_crash");
  }
}

void parse_kinds(CampaignSpec& spec, std::string_view text,
                 const Site& site) {
  spec.kinds.clear();
  for (const std::string& part : split_csv(text)) add_kind(spec, part, site);
}

void read_kinds(CampaignSpec& spec, const JsonValue& value,
                const Site& site) {
  spec.kinds.clear();
  for (const JsonValue& item : non_empty_array(value, site)) {
    add_kind(spec, item.as_string(site.name), site);
  }
}

std::string show_kinds(const CampaignSpec& spec) {
  std::string out;
  for (const vds::fault::FaultKind kind : spec.kinds) {
    if (!out.empty()) out += ',';
    out += vds::fault::to_string(kind);
  }
  return out.empty() ? "all four" : out;
}

void parse_fixed_offset(CampaignSpec& spec, std::string_view text,
                        const Site& site) {
  spec.jitter = false;
  spec.fixed_offset = parse_double(site.name, text);
}

void read_fixed_offset(CampaignSpec& spec, const JsonValue& value,
                       const Site& site) {
  spec.jitter = false;
  spec.fixed_offset = value.as_double(site.name);
}

void parse_cell_range(CampaignSpec& spec, std::string_view text,
                      const Site& site) {
  const std::size_t colon = text.find(':');
  if (colon == std::string_view::npos) {
    reject(site, text, "LO:HI (a half-open cell range)");
  }
  spec.cell_lo = parse_u64(site.name, text.substr(0, colon));
  spec.cell_hi = parse_u64(site.name, text.substr(colon + 1));
  if (spec.cell_lo >= spec.cell_hi) reject(site, text, "LO < HI");
}

constexpr Range kReplicaCount{"a replica count >= 1", 1};

using CS = CampaignSpec;

const Field<CampaignSpec> kCampaignFields[] = {
    {"--replicas", "N", "Monte Carlo replicas per grid cell", &CS::replicas,
     "replicas", "", kReplicaCount},
    {"--grid", "r1,r2,...", "detection rounds to inject at",
     Codec<CS>{parse_grid, read_grid, show_grid}, "rounds"},
    {"--kinds", "k1,k2,...",
     "fault kinds: transient, crash, permanent,\nprocessor_crash",
     Codec<CS>{parse_kinds, read_kinds, show_kinds}, "kinds"},
    {"", "", "", &CS::jitter, "jitter_offset"},
    {"--fixed-offset", "X",
     "disable fault-position jitter; inject at\nfractional offset X "
     "within the round",
     Codec<CS>{parse_fixed_offset, read_fixed_offset}, "fixed_offset"},
    {"--seed", "N", "campaign RNG seed", &CS::seed, "seed"},
    {"--threads", "N", "worker threads (0 = hardware)", &CS::threads},
    {"--journal", "PATH",
     "append-only progress journal (v3 binary,\nCRC32C per record)",
     &CS::journal},
    {"--resume", "",
     "skip cells already in the journal; corrupt\nor torn records are "
     "counted and re-executed",
     &CS::resume},
    {"--cell-range", "LO:HI",
     "dispatch only cells in [LO, HI): one shard;\nmerge the shard "
     "journals with vds_journal,\nthen resume the merged journal",
     Codec<CS>{parse_cell_range}},
    {"--cell-timeout", "SECONDS",
     "per-cell watchdog; a hung cell is retried,\nthen quarantined "
     "(0 = off)",
     &CS::cell_timeout, "cell_timeout", "", {"a number >= 0", 0}},
    {"--max-retries", "N", "retries before quarantine", &CS::max_retries,
     "max_retries"},
    {"--chaos", "SPEC",
     "arm deterministic harness fault points,\nSPEC = site=prob[:limit],... "
     "(sites:\ncell.hang cell.fail journal.corrupt\njournal.torn "
     "pool.delay); also read\nfrom $VDS_CHAOS",
     &CS::chaos},
    {"--target-ci", "X",
     "adaptive sampling: stop each (kind, round)\nstratum once the "
     "relative 95% Student-t CI\nhalf-width of its statistics reaches X\n"
     "(0 = fixed grid)",
     &CS::target_ci, "target_ci", "", {"a relative half-width >= 0", 0}},
    {"--min-replicas", "N", "never stop a stratum earlier",
     &CS::min_replicas, "min_replicas", "", kReplicaCount},
    {"--max-replicas", "N",
     "per-stratum replica cap; needs a CI target\n(default: the replica "
     "count)",
     &CS::max_replicas, "max_replicas", "", kReplicaCount},
    {"--batch", "N", "replicas per dispatch wave", &CS::batch, "batch", "",
     {"a wave size >= 1", 1}},
};

}  // namespace

std::span<const Field<CampaignSpec>> campaign_fields() {
  return kCampaignFields;
}

CampaignSpec campaign_spec_from_json(const JsonValue& doc) {
  // threads/journal/chaos have no JSON key: the server owns execution
  // policy, so a request cannot reach them.
  CampaignSpec spec;
  read_fields(doc, campaign_fields(), spec, "campaign");
  if (spec.max_replicas > 0 && spec.target_ci == 0.0) {
    throw std::invalid_argument(
        "campaign: max_replicas requires target_ci > 0");
  }
  return spec;
}

void campaign_spec_to_json(runtime::JsonWriter& json,
                           const CampaignSpec& spec) {
  json.begin_object();
  json.field("replicas", spec.replicas);
  json.key("rounds").begin_array();
  for (const std::uint64_t round : spec.grid) json.value(round);
  json.end_array();
  if (!spec.kinds.empty()) {
    json.key("kinds").begin_array();
    for (const vds::fault::FaultKind kind : spec.kinds) {
      json.value(vds::fault::to_string(kind));
    }
    json.end_array();
  }
  // fixed_offset implies jitter_offset=false on the parse side, so
  // exactly one of the pair is written.
  if (spec.jitter) {
    json.field("jitter_offset", true);
  } else {
    json.field("fixed_offset", spec.fixed_offset);
  }
  json.field("seed", spec.seed);
  if (spec.cell_timeout > 0.0) json.field("cell_timeout", spec.cell_timeout);
  json.field("max_retries", static_cast<std::uint64_t>(spec.max_retries));
  if (spec.target_ci > 0.0) {
    json.field("target_ci", spec.target_ci);
    json.field("min_replicas", spec.min_replicas);
    if (spec.max_replicas > 0) json.field("max_replicas", spec.max_replicas);
    json.field("batch", spec.batch);
  }
  json.end_object();
}

}  // namespace vds::scenario
