#include "scenario/scenario.hpp"

#include <climits>
#include <iterator>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "runtime/journal.hpp"
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
  json.begin_object();
  json.field("schema", "vds.scenario.v1");
  json.field("engine", to_string(engine));
  json.field("scheme", core::short_name(scheme));
  json.field("predictor", predictor);
  json.field("adaptive", adaptive);
  json.field("alpha", alpha);
  json.field("beta", beta);
  json.field("s", s);
  json.field("rounds", rounds);
  json.field("threads", threads);
  json.field("seed", seed);
  json.key("fault");
  json.begin_object();
  json.field("rate", rate);
  json.field("crash_weight", crash_weight);
  json.field("permanent_weight", permanent_weight);
  json.field("bias", bias);
  json.field("locations", static_cast<std::uint64_t>(locations));
  json.field("skew", skew);
  json.end_object();
  json.key("srt");
  json.begin_object();
  json.field("compare_overhead", srt_compare_overhead);
  json.field("chunks_per_round", srt_chunks_per_round);
  json.end_object();
  json.key("duplex");
  json.begin_object();
  json.field("processors", duplex_processors);
  json.end_object();
  json.key("replay");
  json.begin_object();
  json.field("window", replay_window);
  json.field("record_overhead", replay_record_overhead);
  json.end_object();
  json.key("dme");
  json.begin_object();
  json.field("decorrelation", dme_decorrelation);
  json.field("common_mode", dme_common_mode);
  json.end_object();
  json.end_object();
}

std::string Scenario::to_json_string() const {
  std::ostringstream os;
  to_json(os);
  return os.str();
}

namespace {

[[noreturn]] void from_json_fail(const std::string& what) {
  throw std::invalid_argument("Scenario: " + what);
}

int checked_int(const JsonValue& value, std::string_view key) {
  const std::int64_t wide = value.as_int(key);
  if (wide < INT_MIN || wide > INT_MAX) {
    from_json_fail(std::string(key) + " out of int range");
  }
  return static_cast<int>(wide);
}

/// Walks `object` strictly: every member must be consumed by one of
/// the handlers in `apply`; anything else is an unknown key.
template <typename Apply>
void for_each_member_strict(const JsonValue& object,
                            std::string_view where, Apply&& apply) {
  if (!object.is_object()) {
    from_json_fail(std::string(where) + " must be a JSON object");
  }
  for (const auto& [key, value] : object.members) {
    if (!apply(key, value)) {
      from_json_fail("unknown key '" + key + "' in " + std::string(where));
    }
  }
}

}  // namespace

Scenario Scenario::from_json(std::string_view text) {
  return from_json_value(parse_json(text));
}

Scenario Scenario::from_json_value(const JsonValue& doc) {
  if (!doc.is_object()) from_json_fail("document must be a JSON object");
  const JsonValue* schema = doc.find("schema");
  if (schema == nullptr ||
      schema->as_string("schema") != "vds.scenario.v1") {
    from_json_fail("missing or unsupported schema (want vds.scenario.v1)");
  }

  Scenario scenario;
  for_each_member_strict(doc, "scenario", [&](const std::string& key,
                                              const JsonValue& value) {
    if (key == "schema") return true;  // checked above
    if (key == "engine") {
      scenario.engine = parse_engine_kind(value.as_string(key));
      return true;
    }
    if (key == "scheme") {
      const auto parsed =
          core::parse_recovery_scheme(value.as_string(key));
      if (!parsed) {
        from_json_fail("unknown scheme '" + value.as_string(key) + "'");
      }
      scenario.scheme = *parsed;
      return true;
    }
    if (key == "predictor") {
      scenario.predictor = value.as_string(key);
      return true;
    }
    if (key == "adaptive") {
      scenario.adaptive = value.as_bool(key);
      return true;
    }
    if (key == "alpha") {
      scenario.alpha = value.as_double(key);
      return true;
    }
    if (key == "beta") {
      scenario.beta = value.as_double(key);
      return true;
    }
    if (key == "s") {
      scenario.s = checked_int(value, key);
      return true;
    }
    if (key == "rounds") {
      scenario.rounds = value.as_u64(key);
      return true;
    }
    if (key == "threads") {
      scenario.threads = checked_int(value, key);
      return true;
    }
    if (key == "seed") {
      scenario.seed = value.as_u64(key);
      return true;
    }
    if (key == "fault") {
      for_each_member_strict(
          value, "fault", [&](const std::string& fkey,
                              const JsonValue& fvalue) {
            if (fkey == "rate") {
              scenario.rate = fvalue.as_double(fkey);
            } else if (fkey == "crash_weight") {
              scenario.crash_weight = fvalue.as_double(fkey);
            } else if (fkey == "permanent_weight") {
              scenario.permanent_weight = fvalue.as_double(fkey);
            } else if (fkey == "bias") {
              scenario.bias = fvalue.as_double(fkey);
            } else if (fkey == "locations") {
              const std::uint64_t wide = fvalue.as_u64(fkey);
              if (wide > 0xFFFFFFFFull) {
                from_json_fail("locations out of u32 range");
              }
              scenario.locations = static_cast<std::uint32_t>(wide);
            } else if (fkey == "skew") {
              scenario.skew = fvalue.as_double(fkey);
            } else {
              return false;
            }
            return true;
          });
      return true;
    }
    if (key == "srt") {
      for_each_member_strict(
          value, "srt", [&](const std::string& skey,
                            const JsonValue& svalue) {
            if (skey == "compare_overhead") {
              scenario.srt_compare_overhead = svalue.as_double(skey);
            } else if (skey == "chunks_per_round") {
              scenario.srt_chunks_per_round = checked_int(svalue, skey);
            } else {
              return false;
            }
            return true;
          });
      return true;
    }
    if (key == "duplex") {
      for_each_member_strict(
          value, "duplex", [&](const std::string& dkey,
                               const JsonValue& dvalue) {
            if (dkey == "processors") {
              scenario.duplex_processors = checked_int(dvalue, dkey);
            } else {
              return false;
            }
            return true;
          });
      return true;
    }
    if (key == "replay") {
      for_each_member_strict(
          value, "replay", [&](const std::string& rkey,
                               const JsonValue& rvalue) {
            if (rkey == "window") {
              scenario.replay_window = checked_int(rvalue, rkey);
            } else if (rkey == "record_overhead") {
              scenario.replay_record_overhead = rvalue.as_double(rkey);
            } else {
              return false;
            }
            return true;
          });
      return true;
    }
    if (key == "dme") {
      for_each_member_strict(
          value, "dme", [&](const std::string& mkey,
                            const JsonValue& mvalue) {
            if (mkey == "decorrelation") {
              scenario.dme_decorrelation = mvalue.as_double(mkey);
            } else if (mkey == "common_mode") {
              scenario.dme_common_mode = mvalue.as_double(mkey);
            } else {
              return false;
            }
            return true;
          });
      return true;
    }
    return false;
  });

  scenario.validate();
  return scenario;
}

std::uint64_t Scenario::fingerprint() const {
  return runtime::fnv1a(to_json_string());
}

}  // namespace vds::scenario
