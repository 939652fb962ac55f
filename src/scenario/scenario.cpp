#include "scenario/scenario.hpp"

#include <iterator>
#include <ostream>
#include <ostream>
#include <stdexcept>

#include "runtime/json_writer.hpp"
#include "scenario/engine_factory.hpp"
#include "scenario/json_reader.hpp"

namespace vds::scenario {

std::string_view to_string(EngineKind kind) noexcept {
  switch (kind) {
    case EngineKind::kSmt: return "smt";
    case EngineKind::kConv: return "conv";
    case EngineKind::kSrt: return "srt";
    case EngineKind::kDuplex: return "duplex";
    case EngineKind::kReplay: return "replay";
    case EngineKind::kDme: return "dme";
  }
  return "unknown";
}

const std::string& engine_kind_list() {
  static const std::string list = [] {
    std::string out;
    constexpr std::size_t count = std::size(kAllEngineKinds);
    for (std::size_t i = 0; i < count; ++i) {
      if (i > 0) out += i + 1 == count ? " or " : ", ";
      out += to_string(kAllEngineKinds[i]);
    }
    return out;
  }();
  return list;
}

EngineKind parse_engine_kind(std::string_view name) {
  for (const EngineKind kind : kAllEngineKinds) {
    if (name == to_string(kind)) return kind;
  }
  throw std::invalid_argument("unknown engine '" + std::string(name) +
                              "' (expected " + engine_kind_list() + ")");
}

void Scenario::validate() const {
  const auto fail = [](const std::string& what) {
    throw std::invalid_argument("Scenario: " + what);
  };
  if (rounds == 0) fail("rounds must be >= 1");
  if (!known_predictor(predictor)) {
    fail("unknown predictor '" + predictor + "'");
  }
  try {
    // The selected engine's configuration must construct cleanly;
    // engine-agnostic pieces are always checked.
    switch (engine) {
      case EngineKind::kSmt:
      case EngineKind::kConv:
        vds_options().validate();
        break;
      case EngineKind::kSrt:
        srt_config().validate();
        break;
      case EngineKind::kDuplex:
        duplex_config().validate();
        break;
      case EngineKind::kReplay:
        replay_config().validate();
        break;
      case EngineKind::kDme:
        dme_config().validate();
        break;
    }
    fault_config().validate();
  } catch (const std::invalid_argument& error) {
    fail(error.what());
  }
}

namespace {

// The run fields of every engine config, from one place.
template <typename Config>
Config with_run_fields(const Scenario& scenario) {
  Config config;
  config.s = scenario.s;
  config.job_rounds = scenario.rounds;
  return config;
}

}  // namespace

core::VdsOptions Scenario::vds_options() const {
  auto options = with_run_fields<core::VdsOptions>(*this);
  options.c = beta;
  options.t_cmp = beta;
  options.alpha = alpha;
  options.scheme = scheme;
  options.adaptive_scheme = adaptive;
  options.hardware_threads = threads;
  return options;
}

baseline::SrtConfig Scenario::srt_config() const {
  auto config = with_run_fields<baseline::SrtConfig>(*this);
  config.alpha = alpha;
  config.compare_overhead = srt_compare_overhead;
  config.chunks_per_round = srt_chunks_per_round;
  return config;
}

baseline::DuplexConfig Scenario::duplex_config() const {
  auto config = with_run_fields<baseline::DuplexConfig>(*this);
  config.t_cmp = beta;
  config.processors = duplex_processors;
  return config;
}

core::ReplayConfig Scenario::replay_config() const {
  auto config = with_run_fields<core::ReplayConfig>(*this);
  config.alpha = alpha;
  config.compare_time = beta;
  config.window = replay_window;
  config.record_overhead = replay_record_overhead;
  return config;
}

core::DmeConfig Scenario::dme_config() const {
  auto config = with_run_fields<core::DmeConfig>(*this);
  config.alpha = alpha;
  config.t_cmp = beta;
  config.decorrelation = dme_decorrelation;
  config.common_mode = dme_common_mode;
  return config;
}

fault::FaultConfig Scenario::fault_config() const {
  fault::FaultConfig config;
  config.rate = rate;
  config.weight_transient = 1.0 - crash_weight - permanent_weight;
  config.weight_crash = crash_weight;
  config.weight_permanent = permanent_weight;
  config.victim1_bias = bias;
  config.locations = locations;
  config.location_uniformity = skew;
  return config;
}

void Scenario::to_json(std::ostream& os) const {
  runtime::JsonWriter json(os);
  write_json(json);
}

void Scenario::write_json(runtime::JsonWriter& json) const {
  write_fields(json, scenario_fields(), *this);
}

Scenario Scenario::from_json(std::string_view text) {
  return from_json_value(parse_json(text));
}

Scenario Scenario::from_json_value(const JsonValue& doc) {
  if (doc.find("schema") == nullptr) {
    throw std::invalid_argument(
        "Scenario: missing schema (want vds.scenario.v1)");
  }
  Scenario scenario;
  read_fields(doc, scenario_fields(), scenario, "Scenario");
  scenario.validate();
  return scenario;
}

namespace {

constexpr std::string_view kSchema = "vds.scenario.v1";

void parse_schema(Scenario&, std::string_view text, const Site& site) {
  if (text != kSchema) reject(site, text, kSchema);
}

std::string show_schema(const Scenario&) { return std::string(kSchema); }

void load_scenario(Scenario& scenario, std::string_view text, const Site&) {
  const std::string path(text);
  try {
    scenario = Scenario::from_json(read_file(path));
  } catch (const std::exception& error) {
    throw CliError(path + ": " + error.what());
  }
}

void parse_engine(Scenario& scenario, std::string_view text,
                  const Site& site) {
  try {
    scenario.engine = parse_engine_kind(text);
  } catch (const std::invalid_argument&) {
    reject(site, text, engine_kind_list());
  }
}

std::string show_engine(const Scenario& scenario) {
  return std::string(to_string(scenario.engine));
}

void parse_scheme(Scenario& scenario, std::string_view text,
                  const Site& site) {
  const auto parsed = core::parse_recovery_scheme(text);
  if (!parsed) reject(site, text, "rollback, retry, det, prob or predict");
  scenario.scheme = *parsed;
}

std::string show_scheme(const Scenario& scenario) {
  return std::string(core::short_name(scenario.scheme));
}

void parse_predictor(Scenario& scenario, std::string_view text,
                     const Site& site) {
  if (!known_predictor(text)) {
    reject(site, text, "a registered predictor name");
  }
  scenario.predictor = std::string(text);
}

std::string show_predictor(const Scenario& scenario) {
  return scenario.predictor;
}

using S = Scenario;

const Field<Scenario> kScenarioFields[] = {
    {"", "", "", Codec<S>{parse_schema, nullptr, show_schema}, "schema"},
    {"--scenario", "FILE",
     "load a vds.scenario.v1 JSON file\n(later flags override its fields)",
     Codec<S>{load_scenario}},
    {"--engine", "KIND",
     "protocol engine: smt, conv, srt, duplex,\nreplay or dme",
     Codec<S>{parse_engine, nullptr, show_engine}, "engine"},
    {"--scheme", "NAME",
     "recovery scheme: rollback, retry, det,\nprob or predict",
     Codec<S>{parse_scheme, nullptr, show_scheme}, "scheme"},
    {"--predictor", "NAME",
     "faulty-version predictor: random, oracle,\nstatic1, static2, last, "
     "two_bit, history,\ntournament, perceptron or crash",
     Codec<S>{parse_predictor, nullptr, show_predictor},
     "predictor"},
    {"--adaptive", "", "adaptive det/prob scheme selection", &S::adaptive,
     "adaptive"},
    {"--alpha", "X", "SMT slowdown factor", &S::alpha, "alpha"},
    {"--beta", "X", "c = t_cmp = beta * t", &S::beta, "beta"},
    {"--s", "N", "checkpoint interval in rounds", &S::s, "s"},
    {"--rounds", "N", "job length in rounds", &S::rounds, "rounds"},
    {"--hw-threads", "N", "modelled SMT hardware threads: 2, 3 or 5",
     &S::threads, "threads"},
    {"--seed", "N", "RNG seed of faults, engine, predictor",
     &S::seed, "seed", "", {}, kSingleRunFlags},
    {"--rate", "X", "Poisson fault rate", &S::rate, "rate", "fault", {},
     kSingleRunFlags},
    {"--crash-weight", "X", "crash fault fraction", &S::crash_weight,
     "crash_weight", "fault", {}, kSingleRunFlags},
    {"--permanent-weight", "X", "permanent fault fraction",
     &S::permanent_weight, "permanent_weight", "fault", {},
     kSingleRunFlags},
    {"--bias", "X", "P(fault hits version 1)", &S::bias, "bias", "fault",
     {}, kSingleRunFlags},
    {"--locations", "N", "abstract fault locations", &S::locations,
     "locations", "fault", {}, kSingleRunFlags},
    {"--skew", "X", "location uniformity in (0, 1]", &S::skew, "skew",
     "fault", {}, kSingleRunFlags},
    {"", "", "", &S::srt_compare_overhead, "compare_overhead", "srt"},
    {"", "", "", &S::srt_chunks_per_round, "chunks_per_round", "srt"},
    {"", "", "", &S::duplex_processors, "processors", "duplex"},
    {"--replay-window", "N", "replay: rounds per compare window",
     &S::replay_window, "window", "replay"},
    {"--replay-overhead", "X", "replay: record slowdown",
     &S::replay_record_overhead, "record_overhead", "replay"},
    {"--decorrelation", "X", "dme: structural diversity d",
     &S::dme_decorrelation, "decorrelation", "dme"},
    {"--common-mode", "X", "dme: common-mode fraction at d = 0",
     &S::dme_common_mode, "common_mode", "dme"},
};

}  // namespace

std::span<const Field<Scenario>> scenario_fields() {
  return kScenarioFields;
}

}  // namespace vds::scenario
