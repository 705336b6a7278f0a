// Error-frame-abusing attacker, after Rogers & Rasmussen ("Silently
// Disabling ECUs and Enabling Blind Attacks on the CAN Bus").
//
// Unlike the Attacker class — a compromised ECU that must go through a
// spec-compliant protocol controller — this adversary models a peripheral
// driven below the data-link layer (CANflict-style pin conflicts, or a
// transceiver under direct register control): it watches the wire for a
// victim ID and then stomps the frame with a burst of dominant bits.  The
// victim's own controller reads the mismatch as a bit error, transmits an
// error flag, charges its TEC +8 (ISO 11898-1 §10.11) and retransmits —
// after 32 stomped attempts the victim confines *itself* to bus-off while
// the attacker never emits a single frame.  MichiCAN's arbitration-phase
// monitor cannot see this attacker (no frame, no ID to classify); the
// fault-sweep experiment quantifies exactly that blind spot.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "can/bitstream.hpp"
#include "can/node.hpp"
#include "can/types.hpp"
#include "sim/types.hpp"

namespace mcan::attack {

struct ErrorFrameConfig {
  /// Standard (11-bit) CAN ID whose frames are stomped.  Extended frames
  /// with the same base ID are matched too — the stomp lands before the
  /// formats diverge enough to matter.
  can::CanId victim_id{0x173};
  /// Raw wire position (bits after SOF) at which the stomp begins.  Must
  /// lie beyond the arbitration head so the ID is fully decoded; the
  /// default hits the start of the data field.
  int stomp_pos{can::kPosDataFirst};
  /// Dominant bits driven per stomp; six guarantee a stuff or bit error
  /// for every compliant transmitter.
  int stomp_bits{6};
  /// Stop after this many stomped frames (0 = unlimited).
  std::uint64_t max_stomps{0};
  /// Stay idle until this absolute bus time (lets a recording establish a
  /// healthy baseline first).
  sim::BitTime start{0};
};

class ErrorFrameAttacker final : public can::CanNode {
 public:
  ErrorFrameAttacker(std::string name, ErrorFrameConfig cfg)
      : name_(std::move(name)), cfg_(cfg) {}

  [[nodiscard]] const ErrorFrameConfig& config() const noexcept {
    return cfg_;
  }
  [[nodiscard]] std::uint64_t stomps() const noexcept { return stomps_; }

  // --- CanNode -------------------------------------------------------------
  void tick(sim::BitTime now) override { now_ = now; }
  [[nodiscard]] sim::BitLevel tx_level() override;
  void on_bus_bit(sim::BitLevel bus) override;
  [[nodiscard]] DrivePattern drive_pattern(sim::BitTime now) override;
  [[nodiscard]] sim::BitTime transparent_bits(sim::BitTime now,
                                              std::uint64_t word,
                                              sim::BitTime count) override;
  void on_bus_word(sim::BitTime now, std::uint64_t word,
                   sim::BitTime count) override;
  [[nodiscard]] std::string_view name() const override { return name_; }

 private:
  std::string name_;
  ErrorFrameConfig cfg_;
  sim::BitTime now_{0};

  bool in_frame_{false};
  int pos_{0};              // raw wire position since SOF
  int recessive_run_{11};   // start as idle
  can::Destuffer destuff_;
  std::uint32_t id_bits_{0};  // unstuffed ID bits collected so far
  int id_len_{0};
  bool match_{false};
  int stomp_left_{0};
  std::uint64_t stomps_{0};
};

}  // namespace mcan::attack
