// The per-bit detection FSM (paper Sec. IV-A).
//
// The detection range 𝔻 is encoded as a binary decision tree over the
// 11-bit CAN ID, sampled MSB first right after SOF.  A tree node covering
// the ID interval of its prefix terminates as soon as that interval is
// fully inside 𝔻 (malicious) or fully outside (benign) — which is provably
// the earliest any prefix-based detector can decide.  The paper evaluates
// the mean decision depth over 160,000 random FSMs (Sec. V-B: ~9 bits).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "can/types.hpp"
#include "core/detection.hpp"

namespace mcan::core {

class DetectionFsm {
 public:
  /// Build the minimal early-deciding FSM for a detection range set over an
  /// `id_bits`-wide identifier space (11 for CAN 2.0A, 29 for extended).
  static DetectionFsm build(const IdRangeSet& detection_set,
                            int id_bits = can::kIdBits);

  struct Decision {
    bool malicious{};
    int bit_position{};  // 1-based ID bit index at which the FSM decided
  };

  /// Walk the tree for a full ID (reference evaluation used by the
  /// detection-latency study and by tests).
  [[nodiscard]] Decision decide(can::CanId id) const noexcept;

  /// Number of nodes (internal + terminal) — the FSM-complexity metric for
  /// the CPU-utilization model (Sec. V-D).
  [[nodiscard]] std::size_t node_count() const noexcept {
    return nodes_.size();
  }
  [[nodiscard]] int max_depth() const noexcept;
  [[nodiscard]] int id_bits() const noexcept { return id_bits_; }

  /// The depth histogram recorded by build(): element `d` counts the
  /// identifiers of the `id_bits`-wide space that decide() judges malicious
  /// (or benign) after exactly `d` bits.  Gives exact decision-depth
  /// statistics (Sec. V-B) without walking the tree or the ID space.
  [[nodiscard]] std::span<const std::uint32_t> decided_at(
      bool malicious) const noexcept {
    return std::span{decided_at_[malicious ? 1 : 0]}.first(
        static_cast<std::size_t>(id_bits_) + 1);
  }

  // --- incremental interface used by the Algorithm-1 monitor --------------
  class Runner {
   public:
    explicit Runner(const DetectionFsm& fsm) : fsm_(&fsm) { reset(); }

    /// Feed the next (destuffed) ID bit.  Returns a decision as soon as one
    /// is reached; afterwards further bits are ignored (Algorithm 1 stops
    /// running the FSM once the flag is set).
    std::optional<Decision> step(int bit);

    [[nodiscard]] bool decided() const noexcept { return decided_; }
    [[nodiscard]] Decision decision() const noexcept { return decision_; }
    void reset();

   private:
    const DetectionFsm* fsm_;
    std::int32_t state_{0};
    int depth_{0};
    bool decided_{false};
    Decision decision_{};
  };

  [[nodiscard]] Runner runner() const { return Runner{*this}; }

 private:
  // child >= 0: next node index; child < 0: terminal decision
  // (kBenign / kMalicious).
  static constexpr std::int32_t kBenign = -1;
  static constexpr std::int32_t kMalicious = -2;
  struct Node {
    std::int32_t child[2]{kBenign, kBenign};
  };

  /// `meets` must be exactly the ranges of the set that meet the subtree's
  /// ID interval.
  std::int32_t build_subtree(std::span<const IdRange> meets,
                             std::uint32_t prefix, int depth);

  std::vector<Node> nodes_;
  std::int32_t root_{kBenign};  // the whole space may be terminal
  int id_bits_{can::kIdBits};
  // [benign, malicious][depth]; 2^29 IDs fit a uint32_t at any depth.
  std::array<std::array<std::uint32_t, can::kExtIdBits + 1>, 2> decided_at_{};
};

}  // namespace mcan::core
