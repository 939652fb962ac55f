#include "scenario/cli.hpp"

#include <cstdio>
#include <fstream>
#include <iostream>

#include "runtime/metrics.hpp"

namespace vds::scenario {

void CommandLine::claim(std::string_view flag) const {
  for (const Flag& existing : flags_) {
    if (existing.name == flag) {
      throw std::logic_error("flag " + std::string(flag) +
                             " is claimed by two tables");
    }
  }
}

bool CommandLine::parse(int argc, char** argv,
                        std::vector<std::string>* operands) {
  for (int k = 1; k < argc; ++k) {
    const std::string_view arg = argv[k];
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage().c_str(), stdout);
      return false;
    }
    Flag* flag = nullptr;
    for (Flag& candidate : flags_) {
      if (candidate.name == arg) flag = &candidate;
    }
    if (flag == nullptr) {
      const bool operand = arg.empty() || arg[0] != '-' || arg == "-";
      if (operands != nullptr && operand) {
        operands->emplace_back(arg);
        continue;
      }
      throw CliError("unknown option '" + std::string(arg) +
                     "' (see --help)");
    }
    flag->seen = true;
    if (flag->meta.empty()) {
      flag->set({});
    } else if (++k < argc) {
      flag->set(argv[k]);
    } else {
      throw CliError("missing value for " + std::string(arg));
    }
  }
  return true;
}

bool CommandLine::seen(std::string_view flag) const {
  for (const Flag& candidate : flags_) {
    if (candidate.name == flag) return candidate.seen;
  }
  return false;
}

std::string CommandLine::usage() const {
  // Help text starts in this column; continuation lines indent to it.
  constexpr std::size_t kColumn = 33;
  std::string text(head_);
  for (std::size_t t = 0; t < titles_.size(); ++t) {
    bool first = true;
    for (const Flag& flag : flags_) {
      if (flag.title != t) continue;
      if (first) {
        text.append("\n").append(titles_[t]).append(":\n");
        first = false;
      }
      std::string lead = "  " + std::string(flag.name);
      if (!flag.meta.empty()) lead.append(" ").append(flag.meta);
      text += lead;
      if (lead.size() < kColumn) {
        text.append(kColumn - lead.size(), ' ');
      } else {
        text.append("\n").append(kColumn, ' ');
      }
      for (const char c : flag.help) {
        text += c;
        if (c == '\n') text.append(kColumn, ' ');
      }
      const std::string shown = flag.show();
      if (!shown.empty()) text.append(" [").append(shown).append("]");
      text += '\n';
    }
  }
  text.append("\n  --help").append(kColumn - 8, ' ').append("this text\n");
  text.append(tail_);
  return text;
}

namespace {

const Field<Observability> kObservabilityFields[] = {
    {"--metrics", "FILE",
     "write a vds.metrics.v1 snapshot\n(\"-\" = stdout); its counters "
     "are\nbitwise-stable across worker counts,\nits timings are "
     "wall-clock",
     &Observability::metrics_path},
    {"--trace", "FILE",
     "write Chrome trace-event spans (load in\n"
     "chrome://tracing or Perfetto)",
     &Observability::trace_path},
};

template <typename WriteFn>
void write_to(const std::string& path, const char* what, WriteFn&& fn) {
  if (path == "-") {
    fn(std::cout);
    return;
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw CliError(std::string("cannot write ") + what + " '" + path + "'");
  }
  fn(out);
  out.flush();
  if (!out) {
    throw CliError(std::string(what) + " '" + path + "': write failed");
  }
}

}  // namespace

std::span<const Field<Observability>> observability_fields() {
  return kObservabilityFields;
}

void Observability::arm() const {
  auto& registry = vds::runtime::metrics::registry();
  if (wanted()) registry.set_enabled(true);
  if (!trace_path.empty()) registry.set_tracing(true);
}

void Observability::write() const {
  auto& registry = vds::runtime::metrics::registry();
  if (!metrics_path.empty()) {
    write_to(metrics_path, "metrics snapshot", [&](std::ostream& os) {
      registry.write_snapshot(os);
    });
  }
  if (!trace_path.empty()) {
    write_to(trace_path, "trace",
             [&](std::ostream& os) { registry.write_trace(os); });
  }
}

}  // namespace vds::scenario
