#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "smt/isa.hpp"

namespace vds::smt {

/// A straight container of instructions with a name, plus light static
/// analysis used by the diversity transforms.
class Program {
 public:
  Program() = default;
  explicit Program(std::string name) : name_(std::move(name)) {}
  Program(std::string name, std::vector<Instr> code)
      : name_(std::move(name)), code_(std::move(code)) {}

  void push(const Instr& instr) { code_.push_back(instr); }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  [[nodiscard]] std::size_t size() const noexcept { return code_.size(); }
  [[nodiscard]] const Instr& at(std::size_t i) const { return code_.at(i); }
  [[nodiscard]] Instr& at(std::size_t i) { return code_.at(i); }
  [[nodiscard]] const std::vector<Instr>& code() const noexcept {
    return code_;
  }
  [[nodiscard]] std::vector<Instr>& code() noexcept { return code_; }

  /// Counts instructions per functional-unit class (static mix).
  [[nodiscard]] std::vector<std::size_t> class_histogram() const;

  /// Instruction-level edit distance to another program (Levenshtein on
  /// exact Instr equality) -- a crude but useful diversity metric.
  [[nodiscard]] std::size_t edit_distance(const Program& other) const;

 private:
  std::string name_;
  std::vector<Instr> code_;
};

}  // namespace vds::smt
