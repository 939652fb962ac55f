#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/rng.hpp"

namespace vds::fault {

/// Which version a predictor believes is faulty.
enum class VersionGuess : std::uint8_t { kVersion1, kVersion2 };

/// Evidence available to a predictor when a mismatch is detected
/// (paper §4: "sometimes there is evidence that a particular version is
/// most likely to be the faulty one, e.g. in the case of a crash
/// fault"; §5: fault history similar to branch prediction).
struct FaultEvidence {
  std::uint64_t round = 0;  ///< round index of the detection
  /// Set when a version crashed (identifies the victim with certainty).
  std::optional<VersionGuess> crashed;
  /// Abstract hardware location implicated by the failure symptom
  /// (e.g. which unit raised a machine-check); 0-based, < locations.
  std::uint32_t location = 0;
};

/// Interface of a faulty-version predictor. The VDS asks for a guess at
/// detection time and feeds the majority-vote truth back afterwards, so
/// history-based schemes can learn -- the software analogue of branch
/// prediction the paper proposes (§5).
class Predictor {
 public:
  virtual ~Predictor() = default;

  [[nodiscard]] virtual VersionGuess predict(const FaultEvidence& e) = 0;

  /// Ground truth from the majority vote.
  virtual void feedback(const FaultEvidence& e, VersionGuess actual) = 0;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Measured accuracy so far (the empirical p of the model). 0.5 when
  /// no feedback has been recorded.
  [[nodiscard]] double accuracy() const noexcept;

 protected:
  void record_outcome(bool hit) noexcept {
    ++total_;
    if (hit) ++hits_;
  }

  std::uint64_t hits_ = 0;
  std::uint64_t total_ = 0;
};

/// p = 0.5 baseline: fair coin.
class RandomPredictor final : public Predictor {
 public:
  explicit RandomPredictor(vds::sim::Rng rng) : rng_(rng) {}
  [[nodiscard]] VersionGuess predict(const FaultEvidence&) override;
  void feedback(const FaultEvidence&, VersionGuess actual) override;
  [[nodiscard]] std::string_view name() const noexcept override {
    return "random";
  }

 private:
  vds::sim::Rng rng_;
  std::optional<VersionGuess> last_;
};

/// p = 1 upper bound: told the truth out-of-band (for calibration).
class OraclePredictor final : public Predictor {
 public:
  [[nodiscard]] VersionGuess predict(const FaultEvidence& e) override;
  void feedback(const FaultEvidence& e, VersionGuess actual) override;
  [[nodiscard]] std::string_view name() const noexcept override {
    return "oracle";
  }

  /// The engine plants the truth before asking (models perfect
  /// symptom-based identification).
  void plant_truth(VersionGuess truth) noexcept { truth_ = truth; }

 private:
  VersionGuess truth_ = VersionGuess::kVersion1;
  std::optional<VersionGuess> last_;
};

/// Always guesses the same version (degenerate baseline).
class StaticPredictor final : public Predictor {
 public:
  explicit StaticPredictor(VersionGuess guess) : guess_(guess) {}
  [[nodiscard]] VersionGuess predict(const FaultEvidence&) override;
  void feedback(const FaultEvidence&, VersionGuess actual) override;
  [[nodiscard]] std::string_view name() const noexcept override {
    return "static";
  }

 private:
  VersionGuess guess_;
};

/// Uses crash evidence when present (certain), otherwise delegates.
class CrashEvidencePredictor final : public Predictor {
 public:
  explicit CrashEvidencePredictor(std::unique_ptr<Predictor> fallback);
  [[nodiscard]] VersionGuess predict(const FaultEvidence& e) override;
  void feedback(const FaultEvidence& e, VersionGuess actual) override;
  [[nodiscard]] std::string_view name() const noexcept override {
    return "crash_evidence";
  }

 private:
  std::unique_ptr<Predictor> fallback_;
  bool last_was_crash_ = false;
  std::optional<VersionGuess> last_;
};

/// Guesses whichever version was voted faulty last time (1-bit
/// "last outcome" history, the simplest branch-prediction analogue).
class LastFaultyPredictor final : public Predictor {
 public:
  [[nodiscard]] VersionGuess predict(const FaultEvidence&) override;
  void feedback(const FaultEvidence&, VersionGuess actual) override;
  [[nodiscard]] std::string_view name() const noexcept override {
    return "last_faulty";
  }

 private:
  VersionGuess state_ = VersionGuess::kVersion1;
  std::optional<VersionGuess> last_;
};

/// Two-bit saturating counters indexed by fault location -- the direct
/// analogue of a bimodal branch predictor, per table entry remembering
/// which version faults at that hardware location.
class TwoBitPredictor final : public Predictor {
 public:
  explicit TwoBitPredictor(std::uint32_t table_size = 16);
  [[nodiscard]] VersionGuess predict(const FaultEvidence& e) override;
  void feedback(const FaultEvidence& e, VersionGuess actual) override;
  [[nodiscard]] std::string_view name() const noexcept override {
    return "two_bit";
  }

 private:
  [[nodiscard]] std::uint32_t index(const FaultEvidence& e) const noexcept;
  // Counter semantics: 0,1 -> predict V1; 2,3 -> predict V2.
  std::vector<std::uint8_t> table_;
  std::optional<VersionGuess> last_;
  std::uint32_t last_index_ = 0;
};

/// gshare-style predictor: location XOR global fault history indexes a
/// table of two-bit counters. Captures alternating / patterned fault
/// streams the bimodal table cannot.
class HistoryPredictor final : public Predictor {
 public:
  HistoryPredictor(std::uint32_t table_bits = 6,
                   std::uint32_t history_bits = 4);
  [[nodiscard]] VersionGuess predict(const FaultEvidence& e) override;
  void feedback(const FaultEvidence& e, VersionGuess actual) override;
  [[nodiscard]] std::string_view name() const noexcept override {
    return "history";
  }

 private:
  [[nodiscard]] std::uint32_t index(const FaultEvidence& e) const noexcept;
  std::vector<std::uint8_t> table_;
  std::uint32_t history_ = 0;
  std::uint32_t history_mask_;
  std::uint32_t table_mask_;
  std::optional<VersionGuess> last_;
  std::uint32_t last_index_ = 0;
};

/// Tournament predictor: a bimodal (two-bit, per-location) and a
/// gshare-style history component run side by side; a per-location
/// chooser table of two-bit counters selects whichever component has
/// been more accurate for that location -- the Alpha 21264 arrangement,
/// transplanted to fault prediction.
class TournamentPredictor final : public Predictor {
 public:
  TournamentPredictor(std::uint32_t table_bits = 6,
                      std::uint32_t history_bits = 4);
  [[nodiscard]] VersionGuess predict(const FaultEvidence& e) override;
  void feedback(const FaultEvidence& e, VersionGuess actual) override;
  [[nodiscard]] std::string_view name() const noexcept override {
    return "tournament";
  }

 private:
  TwoBitPredictor bimodal_;
  HistoryPredictor gshare_;
  std::vector<std::uint8_t> chooser_;  ///< 0,1 -> bimodal; 2,3 -> gshare
  std::uint32_t table_mask_;
  std::optional<VersionGuess> last_;
  VersionGuess last_bimodal_ = VersionGuess::kVersion1;
  VersionGuess last_gshare_ = VersionGuess::kVersion1;
  std::uint32_t last_index_ = 0;
};

/// Perceptron predictor (Jimenez/Lin style): a small weight vector per
/// location is dotted with the global outcome history; the sign decides
/// the guess and training adjusts weights when wrong or under-confident.
/// Captures linearly separable correlations that counter tables miss.
class PerceptronPredictor final : public Predictor {
 public:
  PerceptronPredictor(std::uint32_t tables = 16,
                      std::uint32_t history_bits = 8,
                      std::int32_t threshold = 12);
  [[nodiscard]] VersionGuess predict(const FaultEvidence& e) override;
  void feedback(const FaultEvidence& e, VersionGuess actual) override;
  [[nodiscard]] std::string_view name() const noexcept override {
    return "perceptron";
  }

 private:
  [[nodiscard]] std::int32_t dot(std::uint32_t table) const noexcept;

  std::uint32_t history_bits_;
  std::int32_t threshold_;
  // weights_[table][k]: weight of history bit k; index 0 is the bias.
  std::vector<std::vector<std::int32_t>> weights_;
  std::vector<std::int8_t> history_;  ///< +1 = version 2, -1 = version 1
  std::optional<VersionGuess> last_;
  std::uint32_t last_table_ = 0;
  std::int32_t last_sum_ = 0;
};

}  // namespace vds::fault
