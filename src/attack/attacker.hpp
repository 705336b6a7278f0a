// Attacker ECUs per the paper's threat model (Sec. III): a remotely
// compromised ECU that can send arbitrary CAN frames through its
// *spec-compliant* protocol controller — it cannot violate the protocol,
// which is precisely the property MichiCAN's counterattack exploits.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "can/bus.hpp"
#include "can/controller.hpp"
#include "can/frame.hpp"
#include "restbus/candump.hpp"
#include "sim/rng.hpp"

namespace mcan::attack {

/// Attack flavours from the paper (Sec. III / Fig. 2).
enum class AttackKind : std::uint8_t {
  Spoofing,        // fabricate a legitimate ECU's ID (Def. IV.1)
  TraditionalDos,  // lowest-priority ID (0x000) blocks everyone
  TargetedDos,     // an ID just below the victim's silences it selectively
  Miscellaneous,   // ID above the highest legitimate one (harmless)
  Alternating,     // Exp. 6: one ECU toggling between two IDs
};

/// Behavioural profiles ported from the related attack toolkits
/// (SNIPPETS.md: flood/candos, canfuzzer, canreplay).
enum class AttackProfile : std::uint8_t {
  Scripted,  // fixed ID list, the paper's Table II attackers (default)
  Flood,     // fixed ID list at a frames/second rate (`flood --rate`)
  Fuzz,      // seeded random ID/DLC/payload (`canfuzzer`)
  Replay,    // injections driven by a parsed trace with candump -t-style
             // exact inter-frame timing (`canreplay -t`)
};

struct AttackerConfig {
  std::vector<can::CanId> ids;   // IDs to inject (rotated round-robin)
  bool extended{false};          // inject 29-bit (CAN 2.0B) frames
  std::uint8_t dlc{8};
  /// Injection period in bit times; 0 = continuous flood (a frame is
  /// enqueued whenever the transmit queue runs dry).
  double period_bits{0.0};
  /// Fresh random payload per injected frame (drives the stuff-bit variance
  /// behind Table II's non-zero sigma); false = fixed zero payload.
  bool random_payload{true};
  /// Keep attacking after bus-off recovery (persistent attacker, Sec. V-E).
  bool persistent{true};
  /// Abort pending mailboxes on bus-off (real controllers do); required for
  /// Exp. 6 where the *other* queued ID transmits after recovery.
  bool clear_queue_on_bus_off{false};
  std::uint64_t seed{1};

  /// Which behavioural profile drives the injections.  Scripted keeps the
  /// historical Attacker semantics; the toolkit profiles below interpret
  /// the extra knobs.
  AttackProfile profile{AttackProfile::Scripted};
  /// Flood/Fuzz pacing in frames per second; > 0 overrides period_bits
  /// against the experiment's bus speed (toolkit `--rate` semantics),
  /// 0 keeps period_bits (and 0/0 means continuous flood).
  double rate_fps{0.0};
  /// Fuzz profile: inclusive identifier range (`extended` selects the
  /// 29-bit space) and inclusive DLC range.
  can::CanId fuzz_id_min{0x000};
  can::CanId fuzz_id_max{can::kMaxStdId};
  std::uint8_t fuzz_dlc_min{8};
  std::uint8_t fuzz_dlc_max{8};
  /// Replay profile: trace document (candump -L or toolkit CSV), its
  /// encoding, and the time dilation applied to the recorded timestamps.
  std::string replay_trace;
  restbus::TraceFormat replay_format{restbus::TraceFormat::Candump};
  double replay_time_scale{1.0};
};

/// Controller settings shared by every attacker profile (shallow queue,
/// persistent-recovery semantics from AttackerConfig).
[[nodiscard]] can::BitController::Config attacker_controller_config(
    const AttackerConfig& cfg);

/// Interface every attacker profile implements; experiments hold attackers
/// through this so scripted and toolkit profiles mix in one spec.
class AttackerNode {
 public:
  virtual ~AttackerNode() = default;

  virtual void attach_to(can::WiredAndBus& bus) = 0;
  [[nodiscard]] virtual can::BitController& node() noexcept = 0;
  [[nodiscard]] virtual const can::BitController& node() const noexcept = 0;
  [[nodiscard]] virtual std::uint64_t frames_injected() const noexcept = 0;
  /// Identifiers this attacker targets as the arbitration monitor observes
  /// them (extended IDs are also reported via their 11-bit base).  Scripted
  /// profiles report their configured list; fuzz/replay report the IDs
  /// actually injected so far — used to classify detections as true/false.
  [[nodiscard]] virtual std::vector<can::CanId> injected_ids() const = 0;
};

/// A compromised ECU driving one of the scripted attack patterns.
class Attacker : public AttackerNode {
 public:
  Attacker(std::string name, AttackerConfig cfg);

  void attach_to(can::WiredAndBus& bus) override { ctrl_.attach_to(bus); }

  [[nodiscard]] can::BitController& node() noexcept override { return ctrl_; }
  [[nodiscard]] const can::BitController& node() const noexcept override {
    return ctrl_;
  }
  [[nodiscard]] std::uint64_t frames_injected() const noexcept override {
    return injected_;
  }
  [[nodiscard]] std::vector<can::CanId> injected_ids() const override;

  /// Convenience factories for the paper's experiments.
  static AttackerConfig spoof(can::CanId victim_id);
  static AttackerConfig traditional_dos();
  static AttackerConfig targeted_dos(can::CanId id);
  static AttackerConfig miscellaneous(can::CanId id);
  static AttackerConfig alternating(can::CanId a, can::CanId b);

 private:
  void pump(sim::BitTime now);
  /// Scheduling companion to pump() (BitController::add_app's contract):
  /// its own due time when paced, else kNever while it waits on the
  /// controller (a frame queued, or bus-off without persistence).
  [[nodiscard]] sim::BitTime pump_next(sim::BitTime now) const;

  AttackerConfig cfg_;
  can::BitController ctrl_;
  sim::Rng rng_;
  std::size_t next_id_{0};
  double next_due_{0.0};
  std::uint64_t injected_{0};
};

}  // namespace mcan::attack
