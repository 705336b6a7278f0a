// CANnon-style bus-off attacker (Kulandaivel et al., discussed in paper
// Sec. VI-A): a compromised ECU that abuses the *same* bit-level access
// MichiCAN uses defensively — it bypasses its protocol controller and
// injects single dominant bits into a victim's frames, forcing bit errors
// until the victim's TEC confines it.
//
// This sits OUTSIDE MichiCAN's threat model (Sec. III assumes attackers
// cannot violate the protocol), and the tests document the boundary: the
// injector transmits no frames, so there is no arbitration-phase ID for
// the defense to classify — isolation of the controller/PIO (paper Fig. 3)
// is the countermeasure, not the counterattack.
#pragma once

#include <cstdint>
#include <string>

#include "can/bitstream.hpp"
#include "can/node.hpp"
#include "can/types.hpp"
#include "sim/types.hpp"

namespace mcan::attack {

struct CannonConfig {
  can::CanId victim_id{};
  /// Dominant bits injected per hit; a single bit suffices for a bit error
  /// (the stealthy variant), more make the destruction obvious.
  int inject_bits{1};
  /// Unstuffed frame position where injection starts.  Must lie past the
  /// arbitration field and on a spot the victim transmits recessive; the
  /// default targets the CRC delimiter, which is recessive by format.
  int inject_pos{-1};  // -1 = CRC delimiter (computed per frame)
  int max_hits{0};     // 0 = unlimited
};

/// A malicious bit-banging node: watches the bus bit by bit (exactly like
/// MichiCAN's monitor), matches the victim's 11-bit ID during arbitration,
/// and pulls the bus dominant at the configured in-frame position.
class CannonAttacker final : public can::CanNode {
 public:
  CannonAttacker(std::string name, CannonConfig cfg);

  [[nodiscard]] sim::BitLevel tx_level() override;
  void on_bus_bit(sim::BitLevel bus) override;
  void tick(sim::BitTime now) override { now_ = now; }
  [[nodiscard]] DrivePattern drive_pattern(sim::BitTime now) override;
  [[nodiscard]] sim::BitTime transparent_bits(sim::BitTime now,
                                              std::uint64_t word,
                                              sim::BitTime count) override;
  void on_bus_word(sim::BitTime now, std::uint64_t word,
                   sim::BitTime count) override;
  [[nodiscard]] std::string_view name() const override { return name_; }

  [[nodiscard]] int hits() const noexcept { return hits_; }

 private:
  void end_frame();

  std::string name_;
  CannonConfig cfg_;
  sim::BitTime now_{0};

  bool in_frame_{false};
  int cnt_sof_{0};
  int pos_{0};
  can::Destuffer destuff_;
  std::uint32_t observed_id_{0};
  bool id_matched_{true};
  int dlc_{-1};
  std::uint32_t dlc_acc_{0};
  bool firing_{false};
  int fire_bits_left_{0};
  int hits_{0};
};

}  // namespace mcan::attack
