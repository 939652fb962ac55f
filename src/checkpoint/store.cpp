#include "checkpoint/store.hpp"

#include <bit>

#include "checkpoint/codes.hpp"

namespace vds::checkpoint {

CheckpointStore::CheckpointStore(StoreLatency latency, std::size_t keep_last,
                                 EccMode ecc)
    : latency_(latency), keep_last_(keep_last), ecc_(ecc) {}

double CheckpointStore::save(std::uint64_t round, const VersionState& state,
                             vds::sim::SimTime now) {
  Checkpoint checkpoint;
  checkpoint.round = round;
  checkpoint.state = state;
  checkpoint.saved_at = now;
  if (ecc_ == EccMode::kCrcOnly && state.clean()) {
    checkpoint.deferred_crc = state;
  } else {
    checkpoint.crc = crc32_words(checkpoint.state.data());
  }
  if (ecc_ == EccMode::kSecded) {
    checkpoint.ecc.reserve(state.words());
    for (const auto word : checkpoint.state.data()) {
      checkpoint.ecc.push_back(secded_encode(word).check);
    }
  }
  history_.push_back(std::move(checkpoint));
  if (keep_last_ != 0) {
    while (history_.size() > keep_last_) history_.pop_front();
  }
  ++saves_;
  write_time_.add(latency_.write);
  return latency_.write;
}

std::optional<Checkpoint> CheckpointStore::latest() const {
  if (history_.empty()) return std::nullopt;
  return history_.back();
}

std::optional<Checkpoint> CheckpointStore::latest_at_or_before(
    std::uint64_t round) const {
  for (auto it = history_.rbegin(); it != history_.rend(); ++it) {
    if (it->round <= round) return *it;
  }
  return std::nullopt;
}

bool CheckpointStore::verify(const Checkpoint& checkpoint) noexcept {
  if (!checkpoint.deferred_crc) {
    return crc32_words(checkpoint.state.data()) == checkpoint.crc;
  }
  // Equal words have equal CRCs; only a changed state needs both.
  const VersionState& saved = *checkpoint.deferred_crc;
  return checkpoint.state.equals(saved) ||
         crc32_words(checkpoint.state.data()) == crc32_words(saved.data());
}

void CheckpointStore::resolve_crc(Checkpoint& checkpoint) {
  if (!checkpoint.deferred_crc) return;
  checkpoint.crc = crc32_words(checkpoint.deferred_crc->data());
  checkpoint.deferred_crc.reset();
}

bool CheckpointStore::corrupt_stored_bit(std::size_t which,
                                         std::size_t word, unsigned bit) {
  if (which >= history_.size()) return false;
  Checkpoint& checkpoint = history_[history_.size() - 1 - which];
  resolve_crc(checkpoint);
  checkpoint.state.flip_bit(word, bit);
  return true;
}

RestoreStatus CheckpointStore::restore_latest(Checkpoint& out) {
  if (history_.empty()) return RestoreStatus::kUnrecoverable;
  resolve_crc(history_.back());
  Checkpoint checkpoint = history_.back();

  bool corrected_any = false;
  if (ecc_ == EccMode::kSecded &&
      checkpoint.ecc.size() == checkpoint.state.words()) {
    for (std::size_t w = 0; w < checkpoint.state.words(); ++w) {
      Secded codeword{checkpoint.state.word(w), checkpoint.ecc[w]};
      const SecdedStatus status = secded_decode(codeword);
      switch (status) {
        case SecdedStatus::kOk:
          break;
        case SecdedStatus::kCorrectedData: {
          // Apply the repaired word by flipping exactly the bits that
          // changed (the state API exposes flips, not stores; a single
          // corrected data error differs in one bit).
          std::uint64_t diff = codeword.data ^ checkpoint.state.word(w);
          while (diff != 0) {
            const unsigned bit =
                static_cast<unsigned>(std::countr_zero(diff));
            checkpoint.state.flip_bit(w, bit);
            diff &= diff - 1;
          }
          corrected_any = true;
          ++corrections_;
          break;
        }
        case SecdedStatus::kCorrectedCheck:
          checkpoint.ecc[w] = codeword.check;
          corrected_any = true;
          ++corrections_;
          break;
        case SecdedStatus::kDoubleError:
          return RestoreStatus::kUnrecoverable;
      }
    }
  }

  if (!verify(checkpoint)) return RestoreStatus::kUnrecoverable;
  // Persist the scrubbed copy so later restores start clean.
  history_.back() = checkpoint;
  out = std::move(checkpoint);
  return corrected_any ? RestoreStatus::kCorrected : RestoreStatus::kClean;
}

void CheckpointStore::clear() {
  history_.clear();
  saves_ = 0;
  corrections_ = 0;
  write_time_.reset();
}

}  // namespace vds::checkpoint
