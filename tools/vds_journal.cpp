// vds_journal -- inspect, verify and merge campaign progress journals.
//
//   vds_journal inspect campaign.journal --records
//   vds_journal verify shard-*.journal
//   vds_journal merge shard-a.journal shard-b.journal --out merged.journal
//
// Reads the one journal encoding (v3 binary) through the same
// corruption-skipping reader the campaign --resume path uses, so what
// this tool reports intact is exactly what a resume would trust; a
// file without the v3 header is refused (exit 3). `merge` is the reducer side
// of sharded campaigns: run disjoint --cell-range shards, merge their
// journals (fingerprints must match, conflicting duplicate cells are
// refused), then --resume the merged journal to reproduce the
// single-process digest.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "runtime/journal.hpp"
#include "runtime/json_writer.hpp"
#include "scenario/cli.hpp"

namespace {

constexpr const char* kUsageHead = R"(usage: vds_journal COMMAND [options] PATH...

commands:
  inspect PATH        parse one journal and print a vds.journal_info.v1
                      JSON document (record/corruption counts, version,
                      fingerprint, bytes per record)
  verify PATH...      parse each journal and print a one-line summary;
                      exit 1 when any journal holds corrupt records
  merge PATH...       combine per-shard journals of one campaign into
                      --out; fingerprints must match, duplicate cells
                      with identical payloads are coalesced, and
                      conflicting duplicates are refused
)";

constexpr const char* kUsageTail = R"(
exit codes: 0 success; 1 verify found corrupt records; 2 usage/parse
error; 3 runtime failure (unreadable, foreign, or mismatched journals,
or shards that disagree about a cell).
)";

struct JournalFlags {
  bool records = false;
  std::string json_out;
  std::string out;
};

const vds::scenario::Field<JournalFlags> kJournalFlags[] = {
    {"--records", "", "inspect: include every intact record\nin the JSON",
     &JournalFlags::records},
    {"--json-out", "PATH",
     "inspect/merge: write a vds.journal_info.v1\nreport to PATH ('-' = "
     "stdout; inspect\ndefaults to stdout, merge to none). For\nmerge it "
     "covers the merged output with a\nper-shard array and the winning "
     "fingerprint",
     &JournalFlags::json_out},
    {"--out", "PATH", "merge: output journal path (required;\noverwritten)",
     &JournalFlags::out},
};

std::string hex16(std::uint64_t value) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

std::uint64_t file_bytes(const std::string& path) {
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(size);
}

std::uint64_t duplicate_cells(const vds::runtime::JournalLoad& loaded) {
  std::unordered_set<std::uint64_t> seen;
  std::uint64_t duplicates = 0;
  for (const auto& record : loaded.records) {
    if (!seen.insert(record.index).second) ++duplicates;
  }
  return duplicates;
}

/// Parses `path` through the resume-grade reader, requiring an actual
/// journal (a missing or empty file is an error here: the user named
/// it explicitly).
vds::runtime::JournalLoad inspect_journal(const std::string& path) {
  vds::runtime::JournalLoad loaded = vds::runtime::Journal::inspect(path);
  if (!loaded.has_header) {
    throw std::runtime_error("journal '" + path +
                             "': missing, empty, or not a journal");
  }
  return loaded;
}

/// Fabric assignment-log bookkeeping derived from the lease records:
/// how many grants/completions/expiries the log holds and how many
/// leases never reached a completion (open — a --resume re-issues
/// exactly these).
struct LeaseAudit {
  std::uint64_t granted = 0;
  std::uint64_t completed = 0;
  std::uint64_t expired = 0;
  std::uint64_t open = 0;
};

LeaseAudit audit_leases(const vds::runtime::JournalLoad& loaded) {
  LeaseAudit audit;
  std::unordered_set<std::uint64_t> seen;
  std::unordered_set<std::uint64_t> done;
  for (const auto& record : loaded.leases) {
    switch (record.lease_event) {
      case vds::runtime::LeaseEvent::kGranted:
        ++audit.granted;
        seen.insert(record.index);
        break;
      case vds::runtime::LeaseEvent::kCompleted:
        ++audit.completed;
        done.insert(record.index);
        break;
      case vds::runtime::LeaseEvent::kExpired:
        ++audit.expired;
        break;
    }
  }
  for (const std::uint64_t id : seen) {
    if (done.count(id) == 0) ++audit.open;
  }
  return audit;
}

void write_info(std::ostream& os, const std::string& path,
                const vds::runtime::JournalLoad& loaded, bool dump) {
  const std::uint64_t bytes = file_bytes(path);
  const std::uint64_t count = loaded.records.size();
  vds::runtime::JsonWriter json(os);
  json.begin_object();
  json.field("schema", "vds.journal_info.v1");
  json.field("path", path);
  json.field("version", static_cast<std::int64_t>(loaded.version));
  json.field("fingerprint", hex16(loaded.fingerprint));
  json.field("records", count);
  json.field("stop_records", static_cast<std::uint64_t>(loaded.stops.size()));
  json.field("corrupt", loaded.corrupt);
  json.field("duplicate_cells", duplicate_cells(loaded));
  json.field("bytes", bytes);
  json.field("bytes_per_record",
             count == 0 ? 0.0
                        : static_cast<double>(bytes) /
                              static_cast<double>(count));
  if (!loaded.leases.empty()) {
    const LeaseAudit audit = audit_leases(loaded);
    json.field("lease_records",
               static_cast<std::uint64_t>(loaded.leases.size()));
    json.field("leases_granted", audit.granted);
    json.field("leases_completed", audit.completed);
    json.field("leases_expired", audit.expired);
    json.field("leases_open", audit.open);
  }
  if (dump) {
    json.key("dump").begin_array();
    for (const auto& record : loaded.records) {
      json.begin_object();
      json.field("cell", record.index);
      json.field("outcome", record.outcome);
      json.field("detection_latency", record.detection_latency);
      json.field("recovery_time", record.recovery_time);
      json.field("total_time", record.total_time);
      json.field("rounds_committed", record.rounds_committed);
      json.end_object();
    }
    for (const auto& record : loaded.stops) {
      json.begin_object();
      json.field("stratum", record.index);
      json.field("stop_after", record.stop_after);
      json.field("achieved_ci", record.achieved_ci);
      json.end_object();
    }
    for (const auto& record : loaded.leases) {
      json.begin_object();
      json.field("lease", record.index);
      json.field("event",
                 std::string(vds::runtime::to_string(record.lease_event)));
      json.field("attempt", record.lease_attempt);
      json.field("lo", record.lease_lo);
      json.field("hi", record.lease_hi);
      if (record.lease_event == vds::runtime::LeaseEvent::kCompleted) {
        json.field("digest", hex16(record.lease_digest));
        json.field("cells", record.lease_cells);
      }
      json.end_object();
    }
    json.end_array();
  }
  json.end_object();
  os << "\n";
}

int run_inspect(const std::vector<std::string>& paths, bool dump,
                const std::string& json_out) {
  if (paths.size() != 1) {
    throw vds::scenario::CliError(
        "inspect takes exactly one journal path");
  }
  const vds::runtime::JournalLoad loaded = inspect_journal(paths.front());
  if (json_out == "-") {
    write_info(std::cout, paths.front(), loaded, dump);
  } else {
    std::ofstream out(json_out);
    if (!out) {
      throw vds::scenario::CliError("cannot write '" + json_out + "'");
    }
    write_info(out, paths.front(), loaded, dump);
  }
  return 0;
}

int run_verify(const std::vector<std::string>& paths) {
  if (paths.empty()) {
    throw vds::scenario::CliError("verify needs at least one journal path");
  }
  bool any_corrupt = false;
  for (const std::string& path : paths) {
    const vds::runtime::JournalLoad loaded = inspect_journal(path);
    char stops[32] = "";
    if (!loaded.stops.empty()) {
      std::snprintf(stops, sizeof stops, " stops %llu",
                    static_cast<unsigned long long>(loaded.stops.size()));
    }
    std::printf("%s: v%d fingerprint %s records %llu%s corrupt %llu%s\n",
                path.c_str(), loaded.version,
                hex16(loaded.fingerprint).c_str(),
                static_cast<unsigned long long>(loaded.records.size()),
                stops,
                static_cast<unsigned long long>(loaded.corrupt),
                loaded.corrupt > 0 ? "  <-- DAMAGED" : "");
    if (loaded.corrupt > 0) any_corrupt = true;
  }
  return any_corrupt ? 1 : 0;
}

/// The merge report: a vds.journal_info.v1 document describing the
/// merged output, with a per-shard breakdown and the winning
/// fingerprint (the one every shard had to agree on).
void write_merge_info(std::ostream& os, const std::string& out_path,
                      const std::vector<std::string>& paths,
                      const vds::runtime::JournalMergeStats& stats) {
  const vds::runtime::JournalLoad merged =
      vds::runtime::Journal::inspect(out_path);
  vds::runtime::JsonWriter json(os);
  json.begin_object();
  json.field("schema", "vds.journal_info.v1");
  json.field("path", out_path);
  json.field("version", static_cast<std::int64_t>(merged.version));
  json.field("fingerprint", hex16(stats.fingerprint));
  json.field("records", static_cast<std::uint64_t>(merged.records.size()));
  json.field("stop_records",
             static_cast<std::uint64_t>(merged.stops.size()));
  json.field("corrupt", merged.corrupt);
  json.field("duplicates_coalesced", stats.duplicates);
  json.field("corrupt_skipped", stats.corrupt);
  json.key("shards").begin_array();
  for (const std::string& path : paths) {
    const vds::runtime::JournalLoad shard =
        vds::runtime::Journal::inspect(path);
    json.begin_object();
    json.field("path", path);
    json.field("records", static_cast<std::uint64_t>(shard.records.size()));
    json.field("stop_records",
               static_cast<std::uint64_t>(shard.stops.size()));
    json.field("lease_records",
               static_cast<std::uint64_t>(shard.leases.size()));
    json.field("corrupt", shard.corrupt);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  os << "\n";
}

int run_merge(const std::vector<std::string>& paths,
              const std::string& out_path,
              const std::string& json_out) {
  if (paths.empty()) {
    throw vds::scenario::CliError("merge needs at least one input journal");
  }
  if (out_path.empty()) {
    throw vds::scenario::CliError("merge requires --out PATH");
  }
  const vds::runtime::JournalMergeStats stats =
      vds::runtime::merge_journals(paths, out_path);
  std::printf("merged %llu journal%s -> '%s': %llu records "
              "(%llu duplicate%s coalesced, %llu corrupt skipped), "
              "fingerprint %s\n",
              static_cast<unsigned long long>(stats.inputs),
              stats.inputs == 1 ? "" : "s", out_path.c_str(),
              static_cast<unsigned long long>(stats.records_out),
              static_cast<unsigned long long>(stats.duplicates),
              stats.duplicates == 1 ? "" : "s",
              static_cast<unsigned long long>(stats.corrupt),
              hex16(stats.fingerprint).c_str());
  if (!json_out.empty()) {
    if (json_out == "-") {
      write_merge_info(std::cout, out_path, paths, stats);
    } else {
      std::ofstream out(json_out);
      if (!out) {
        throw vds::scenario::CliError("cannot write '" + json_out + "'");
      }
      write_merge_info(out, out_path, paths, stats);
    }
  }
  return 0;
}

int run(int argc, char** argv) {
  JournalFlags flags;
  vds::scenario::CommandLine cli(kUsageHead, kUsageTail);
  cli.add("options", kJournalFlags, flags);
  std::vector<std::string> operands;
  if (!cli.parse(argc, argv, &operands)) return 0;
  if (operands.empty()) {
    std::fputs(cli.usage().c_str(), stderr);
    return 2;
  }
  const std::string command = operands.front();
  const std::vector<std::string> paths(operands.begin() + 1, operands.end());

  if (command == "inspect") {
    return run_inspect(paths, flags.records,
                       flags.json_out.empty() ? "-" : flags.json_out);
  }
  if (command == "verify") return run_verify(paths);
  if (command == "merge") {
    return run_merge(paths, flags.out, flags.json_out);
  }
  std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
  std::fputs(cli.usage().c_str(), stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const vds::scenario::CliError& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 3;
  }
}
