#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "scenario/fields.hpp"

namespace vds::scenario {

/// One tool's command line, composed from field tables: the shared
/// tables the tool needs (the Scenario's engine-under-test and
/// single-run flags, the campaign, observability) plus one local
/// table. Parsing, --help and the flag-collision check all walk the
/// same descriptors, so a flag cannot be accepted without being
/// documented, or documented twice with two meanings.
class CommandLine {
 public:
  /// `head` opens the --help text (synopsis and prose), `tail` closes
  /// it (notes, exit codes). The flag lists come from the tables.
  CommandLine(std::string_view head, std::string_view tail)
      : head_(head), tail_(tail) {}

  /// Adds every field of `fields` that has a flag in flag group
  /// `group`, bound to `config`, under the --help heading `title`. The
  /// tables and `config` must outlive this object. Throws
  /// std::logic_error when an earlier table already claimed a flag.
  template <typename Fields, typename C>
  CommandLine& add(std::string_view title, const Fields& fields, C& config,
                   std::uint8_t group = 0) {
    titles_.push_back(title);
    for (const Field<C>& field : fields) {
      if (field.flag.empty() || field.group != group) continue;
      claim(field.flag);
      flags_.push_back(
          {field.flag, field.meta, field.help, titles_.size() - 1,
           [&field, &config](std::string_view text) {
             set_from_text(field, config, text);
           },
           [&field, &config] { return show_value(field, config); }});
    }
    return *this;
  }

  /// Parses argv[1..]. Returns false when --help printed the usage.
  /// A token that is no flag goes to `operands` when given (a lone "-"
  /// is an operand too); otherwise it is an unknown-option CliError.
  [[nodiscard]] bool parse(int argc, char** argv,
                           std::vector<std::string>* operands = nullptr);

  /// Whether parse() met `flag`.
  [[nodiscard]] bool seen(std::string_view flag) const;

  /// The full --help text, flag defaults read from the live configs.
  [[nodiscard]] std::string usage() const;

 private:
  struct Flag {
    std::string_view name;
    std::string_view meta;
    std::string_view help;
    std::size_t title;
    std::function<void(std::string_view)> set;
    std::function<std::string()> show;
    bool seen = false;
  };

  void claim(std::string_view flag) const;

  std::string_view head_;
  std::string_view tail_;
  std::vector<std::string_view> titles_;
  std::vector<Flag> flags_;
};

/// Where a run's observability output goes — the shared `--metrics
/// FILE` / `--trace FILE` flags. Both default off; either one arms
/// collection in the global metrics registry. With the layer compiled
/// out (VDS_METRICS=OFF) the flags stay accepted and the files are
/// still written, holding an empty snapshot / empty event array.
struct Observability {
  std::string metrics_path;  ///< vds.metrics.v1 snapshot ("-" = stdout)
  std::string trace_path;    ///< Chrome trace-event JSON array

  [[nodiscard]] bool wanted() const noexcept {
    return !metrics_path.empty() || !trace_path.empty();
  }

  /// Enables counter/timing collection (and span tracing when a trace
  /// file was requested). Call before the measured work starts.
  void arm() const;

  /// Writes the requested files. Call after the work finished; throws
  /// CliError when a file cannot be written.
  void write() const;
};

/// The observability flag table.
[[nodiscard]] std::span<const Field<Observability>> observability_fields();

}  // namespace vds::scenario
