// Detection ranges and attack classification (paper Sec. IV-A,
// Definitions IV.1 - IV.4).
//
// Every MichiCAN-equipped ECU_i knows the ordered list 𝔼 of legitimate CAN
// IDs.  It flags an observed ID as
//   * spoofing       if it equals its own ID (Def. IV.1),
//   * DoS            if it is lower than its own ID and not a legitimate
//                    lower ID (Def. IV.2),
//   * miscellaneous  if it is higher than the highest legitimate ID
//                    (Def. IV.3) — harmless, never counterattacked,
// and builds its detection range 𝔻 (Def. IV.4) =
//   { j | 0 <= j <= ECU_i  and  j != ECU_k for all k < i }.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "can/types.hpp"

namespace mcan::core {

/// How an observed CAN ID relates to an ECU's detection rules.
enum class AttackClass : std::uint8_t {
  Legitimate,     // a known ID from 𝔼 (not our own)
  OwnId,          // our own ID — spoofing if we are not transmitting it
  Spoofing = OwnId,
  Dos,            // lower-priority-blocking injection (Def. IV.2)
  Miscellaneous,  // above the highest legitimate ID (Def. IV.3)
  Undecidable,    // legitimate ID of another ECU; only that ECU can judge
};

[[nodiscard]] std::string to_string(AttackClass c);

/// Inclusive ID interval [lo, hi].
struct IdRange {
  can::CanId lo{};
  can::CanId hi{};
  friend bool operator==(const IdRange&, const IdRange&) = default;
};

/// A normalized set of sorted, inclusive ID ranges that neither overlap nor
/// touch (adjacent ranges are merged).
class IdRangeSet {
 public:
  void add(can::CanId lo, can::CanId hi);
  void add(can::CanId id) { add(id, id); }

  [[nodiscard]] bool contains(can::CanId id) const noexcept;
  [[nodiscard]] const std::vector<IdRange>& ranges() const noexcept {
    return ranges_;
  }
  [[nodiscard]] std::size_t id_count() const noexcept;
  [[nodiscard]] bool empty() const noexcept { return ranges_.empty(); }
  [[nodiscard]] std::string to_string() const;

 private:
  void normalize();
  std::vector<IdRange> ranges_;
};

/// Deployment scenario (Sec. IV-A): every ECU runs the full FSM, or the
/// lower half of 𝔼 only guards its own ID (light) while the upper half
/// still provides full DoS coverage.
enum class Scenario : std::uint8_t { Full, Light };

/// The in-vehicle network as MichiCAN sees it: the ordered list 𝔼.
class IvnConfig {
 public:
  /// `ecu_ids` = the legitimate CAN IDs, one per ECU (paper assumption:
  /// each ID has a unique transmitter).  Sorted and deduplicated.
  explicit IvnConfig(std::vector<can::CanId> ecu_ids);

  /// Declare the legitimate *extended* (29-bit) IDs on the bus — an
  /// extension beyond the paper's CAN 2.0A scope.  An extended frame blocks
  /// a standard transmission with ID `s` whenever its 11-bit base is lower
  /// than `s` (the standard frame wins ties at the SRR/IDE bits), so a
  /// MichiCAN node can and should police the extended space too.
  void set_extended_ecus(std::vector<can::CanId> ext_ids);
  [[nodiscard]] const std::vector<can::CanId>& ext_ecus() const noexcept {
    return ext_ecus_;
  }

  /// Detection ranges over the 29-bit space for the ECU owning standard ID
  /// `own_id`: every extended ID whose base can beat us — [0, own_id<<18) —
  /// minus the declared legitimate extended IDs.
  [[nodiscard]] IdRangeSet ext_detection_ranges(can::CanId own_id) const;

  [[nodiscard]] const std::vector<can::CanId>& ecus() const noexcept {
    return ecus_;
  }
  [[nodiscard]] bool is_legitimate(can::CanId id) const noexcept;
  [[nodiscard]] can::CanId highest() const noexcept { return ecus_.back(); }

  /// Classify an ID from the perspective of the ECU owning `own_id`.
  [[nodiscard]] AttackClass classify(can::CanId own_id,
                                     can::CanId observed) const;

  /// Detection range 𝔻 for `own_id` (Def. IV.4): all IDs <= own_id except
  /// legitimate lower IDs; includes own_id itself (spoofing detection).
  [[nodiscard]] IdRangeSet detection_ranges(can::CanId own_id) const;

  /// Detection set under a scenario: Light = own ID only.
  [[nodiscard]] IdRangeSet detection_ranges(can::CanId own_id,
                                            Scenario scenario) const;

  /// True if `own_id` falls into the lower half of 𝔼 (the light subset 𝔼₁
  /// when the split deployment of Sec. IV-A is used).
  [[nodiscard]] bool in_light_subset(can::CanId own_id) const;

 private:
  std::vector<can::CanId> ecus_;      // sorted ascending
  std::vector<can::CanId> ext_ecus_;  // sorted ascending, 29-bit space
};

}  // namespace mcan::core
