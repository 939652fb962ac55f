#include "fabric/lease_table.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>

namespace vds::fabric {

namespace {

[[noreturn]] void table_fail(const std::string& what) {
  throw std::runtime_error("fabric lease table: " + what);
}

}  // namespace

LeaseTable::LeaseTable(Options options) : options_(std::move(options)) {
  if (options_.total_cells == 0) table_fail("campaign has no cells");
  if (options_.lease_cells == 0) table_fail("lease size must be >= 1");
  if (options_.log_path.empty()) table_fail("assignment log path is empty");
  for (std::uint64_t lo = 0; lo < options_.total_cells;
       lo += options_.lease_cells) {
    Entry entry;
    entry.lo = lo;
    entry.hi = std::min(lo + options_.lease_cells, options_.total_cells);
    entries_.push_back(entry);
  }
  audit_.leases = entries_.size();
  if (options_.resume) {
    // Same fingerprint gate as a campaign journal: an assignment log
    // written for a different campaign configuration must not replay.
    replay(runtime::Journal::load(options_.log_path, options_.fingerprint));
  } else {
    std::remove(options_.log_path.c_str());
  }
  log_ = std::make_unique<runtime::Journal>(options_.log_path,
                                            options_.fingerprint);
}

void LeaseTable::replay(const runtime::JournalLoad& loaded) {
  for (const runtime::JournalRecord& record : loaded.leases) {
    if (record.index >= entries_.size()) {
      table_fail("log names lease " + std::to_string(record.index) +
                 " but the campaign only has " +
                 std::to_string(entries_.size()) +
                 " — lease size or cell count changed between runs");
    }
    Entry& entry = entries_[record.index];
    if (record.lease_lo != entry.lo || record.lease_hi != entry.hi) {
      table_fail("log lease " + std::to_string(record.index) +
                 " covers a different cell range than configured — "
                 "lease size changed between runs");
    }
    switch (record.lease_event) {
      case runtime::LeaseEvent::kGranted:
        // A grant with no completion: the worker may be dead or the
        // coordinator died pre-send. Either way the lease reopens —
        // re-running it is always safe, forgetting it never is.
        entry.attempt = std::max(entry.attempt, record.lease_attempt);
        if (entry.state == State::kOpen) ++audit_.granted;
        break;
      case runtime::LeaseEvent::kCompleted:
        if (entry.state == State::kCommitted) {
          if (entry.committed_digest != record.lease_digest) {
            table_fail("log has conflicting completions for lease " +
                       std::to_string(record.index));
          }
          ++audit_.coalesced;
          break;
        }
        entry.state = State::kCommitted;
        entry.attempt = std::max(entry.attempt, record.lease_attempt);
        entry.committed_attempt = record.lease_attempt;
        entry.committed_digest = record.lease_digest;
        entry.committed_cells = record.lease_cells;
        ++audit_.committed;
        ++audit_.replayed;
        break;
      case runtime::LeaseEvent::kExpired:
        if (entry.state != State::kCommitted) ++audit_.expired;
        break;
    }
  }
}

std::string LeaseTable::journal_path(std::uint64_t lease,
                                     std::uint64_t attempt) const {
  return options_.workdir + "/lease-" + std::to_string(lease) + "-a" +
         std::to_string(attempt) + ".journal";
}

void LeaseTable::log_event(runtime::LeaseEvent event, std::uint64_t lease,
                           const Entry& entry, std::uint64_t digest,
                           std::uint64_t cells) {
  runtime::JournalRecord record;
  record.lease = true;
  record.lease_event = event;
  record.index = lease;
  record.lease_attempt = entry.attempt;
  record.lease_lo = entry.lo;
  record.lease_hi = entry.hi;
  record.lease_digest = digest;
  record.lease_cells = cells;
  log_->append(record);  // throws on write failure: no silent grants
}

std::optional<LeaseTable::Grant> LeaseTable::next_grant(
    Clock::time_point now) {
  for (std::uint64_t id = 0; id < entries_.size(); ++id) {
    Entry& entry = entries_[id];
    if (entry.state != State::kOpen || entry.backoff_until > now) continue;
    ++entry.attempt;
    // Write-ahead: the grant hits the log before the lease leaves the
    // process, so a crash here at worst re-issues the lease on resume.
    log_event(runtime::LeaseEvent::kGranted, id, entry, 0, 0);
    entry.state = State::kGranted;
    entry.last_heartbeat = now;
    ++audit_.granted;
    Grant grant;
    grant.lease = id;
    grant.attempt = entry.attempt;
    grant.lo = entry.lo;
    grant.hi = entry.hi;
    grant.journal = journal_path(id, entry.attempt);
    return grant;
  }
  return std::nullopt;
}

LeaseTable::CommitOutcome LeaseTable::commit(std::uint64_t lease,
                                             std::uint64_t attempt,
                                             std::uint64_t digest,
                                             std::uint64_t cells) {
  if (lease >= entries_.size()) table_fail("commit for unknown lease");
  Entry& entry = entries_[lease];
  if (entry.state == State::kCommitted) {
    if (entry.committed_digest == digest) {
      // The late-duplicate race: the lease expired, was re-granted,
      // and both attempts finished. Determinism makes the results
      // identical, so the duplicate is verified and dropped — never
      // double-counted.
      ++audit_.coalesced;
      return CommitOutcome::kCoalesced;
    }
    return CommitOutcome::kConflict;
  }
  Entry committed = entry;
  committed.attempt = attempt;
  log_event(runtime::LeaseEvent::kCompleted, lease, committed, digest,
            cells);
  entry.state = State::kCommitted;
  entry.committed_attempt = attempt;
  entry.committed_digest = digest;
  entry.committed_cells = cells;
  ++audit_.committed;
  return CommitOutcome::kCommitted;
}

void LeaseTable::heartbeat(std::uint64_t lease, Clock::time_point now) {
  if (lease >= entries_.size()) return;
  Entry& entry = entries_[lease];
  if (entry.state == State::kGranted) entry.last_heartbeat = now;
}

void LeaseTable::reopen(std::uint64_t lease, Clock::time_point now) {
  Entry& entry = entries_[lease];
  log_event(runtime::LeaseEvent::kExpired, lease, entry, 0, 0);
  entry.state = State::kOpen;
  // Capped exponential backoff in the attempt count: a range that
  // keeps killing workers (a poison lease) retries ever more slowly
  // instead of hot-looping the fleet.
  const std::uint64_t shift = std::min<std::uint64_t>(
      entry.attempt > 0 ? entry.attempt - 1 : 0, 16);
  const auto backoff = std::min<std::chrono::milliseconds>(
      std::chrono::milliseconds(options_.backoff_base.count() << shift),
      options_.backoff_cap);
  entry.backoff_until = now + backoff;
  ++audit_.expired;
}

std::vector<std::uint64_t> LeaseTable::expire_stale(Clock::time_point now) {
  std::vector<std::uint64_t> expired;
  for (std::uint64_t id = 0; id < entries_.size(); ++id) {
    Entry& entry = entries_[id];
    if (entry.state != State::kGranted) continue;
    if (now - entry.last_heartbeat < options_.expiry) continue;
    reopen(id, now);
    expired.push_back(id);
  }
  return expired;
}

void LeaseTable::release(std::uint64_t lease, Clock::time_point now) {
  if (lease >= entries_.size()) return;
  if (entries_[lease].state != State::kGranted) return;
  reopen(lease, now);
}

bool LeaseTable::all_committed() const noexcept {
  return audit_.committed == entries_.size();
}

std::optional<LeaseTable::Clock::time_point> LeaseTable::next_open_at()
    const {
  std::optional<Clock::time_point> earliest;
  for (const Entry& entry : entries_) {
    if (entry.state != State::kOpen) continue;
    if (!earliest || entry.backoff_until < *earliest) {
      earliest = entry.backoff_until;
    }
  }
  return earliest;
}

std::vector<std::string> LeaseTable::committed_journals() const {
  std::vector<std::string> paths;
  paths.reserve(entries_.size());
  for (std::uint64_t id = 0; id < entries_.size(); ++id) {
    const Entry& entry = entries_[id];
    if (entry.state != State::kCommitted) continue;
    paths.push_back(journal_path(id, entry.committed_attempt));
  }
  return paths;
}

std::uint64_t LeaseTable::lease_count() const noexcept {
  return entries_.size();
}

}  // namespace vds::fabric
