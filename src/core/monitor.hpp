// The Algorithm-1 bit monitor: MichiCAN's per-bit interrupt handler.
//
// Once synchronized (hard sync on the SOF falling edge after >= 11 recessive
// bits), the handler runs once per bit time:
//   * destuffs the incoming stream and feeds ID bits to the detection FSM,
//   * on a malicious verdict arms the counterattack,
//   * at the RTR bit enables CAN_TX multiplexing and pulls the bus dominant,
//   * releases the bus again after the DLC field (paper: enable at frame
//     position 13, disable at position 20, 1-based counting incl. SOF),
//   * afterwards returns to SOF-watching (the stuffing rule guarantees no
//     11-recessive run inside a frame, so the next SOF is found reliably).
//
// The handler never transmits a frame of its own: the defender's TEC is
// untouched by the counterattack (paper Sec. IV-E).
//
// Only two bits ever need a reaction beyond the handler's own state: the
// arm-position verdict (self-transmission query, AttackDetected /
// CounterattackStart, PIO enable) and the last counterattack bit
// (CounterattackEnd, PIO release).  Every other bit is pure bookkeeping, so
// the batched kernel may scan a copy of the state over a bus word, stop
// before the first reaction bit, and bulk-apply the prefix — through the
// same transition function the per-bit handler runs.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "can/bitstream.hpp"
#include "can/types.hpp"
#include "core/fsm.hpp"
#include "mcu/pinmux.hpp"
#include "sim/event_log.hpp"
#include "sim/types.hpp"

namespace mcan::obs {
class Registry;
}  // namespace mcan::obs

namespace mcan::core {

struct MonitorConfig {
  /// Unstuffed frame position at which the counterattack is armed
  /// (0-based; 12 = RTR, matching Algorithm 1's cnt == 13).
  int attack_arm_pos{12};
  /// Raw bits the bus is pulled dominant once armed (paper: 6 dominant bits
  /// guarantee an error; the Algorithm-1 window covers 7).
  int attack_bits{7};
  /// Master switch: detection continues, prevention is skipped when false.
  bool prevention_enabled{true};
};

struct MonitorStats {
  std::uint64_t frames_observed{};
  std::uint64_t attacks_detected{};
  std::uint64_t counterattacks{};
  std::uint64_t suppressed_self{};  // own transmissions skipped
  // Per-path handler invocation counts for the CPU model (Sec. V-D).
  std::uint64_t idle_bits{};
  std::uint64_t fsm_bits{};
  std::uint64_t track_bits{};
  std::uint64_t detection_bit_sum{};  // sum of decision bit positions
};

/// Algorithm 1's complete per-bit state.  A plain value, so a word scan can
/// run on a copy and hand it over whole.
struct MonitorState {
  explicit MonitorState(const DetectionFsm& fsm) : runner(fsm) {}

  bool in_frame{false};
  int cnt_sof{0};  // recessive bits while idle, saturating at 11
  int pos{0};      // unstuffed position within the frame
  can::Destuffer destuff;
  DetectionFsm::Runner runner;
  std::optional<DetectionFsm::Runner> ext_runner;
  bool ext_mode{false};  // current frame uses the extended format
  bool flagged{false};   // start_counterattack
  bool attacking{false};
  int attack_bits_left{0};
  std::uint32_t observed_id{0};
  MonitorStats stats;
};

class BitMonitor {
 public:
  BitMonitor(const DetectionFsm& fsm, mcu::PioController& pio,
             MonitorConfig cfg);

  /// Enable extended-frame (CAN 2.0B) detection: a 29-bit FSM that takes
  /// over when the IDE bit samples recessive.  Without one, extended
  /// frames are treated as benign (the paper's CAN 2.0A scope).
  void set_extended_fsm(const DetectionFsm* ext_fsm);

  /// True while this node itself transmits the current frame: MichiCAN must
  /// not counterattack its own (legitimate) ID.
  void set_self_transmitting(std::function<bool()> cb) {
    self_transmitting_ = std::move(cb);
  }

  void set_event_log(sim::EventLog* log, std::string node_name) {
    log_ = log;
    node_name_ = std::move(node_name);
  }

  /// The per-bit interrupt handler (Algorithm 1).  `value` is the level
  /// read from CAN_RX via the PIO register.
  void on_bit(sim::BitTime now, sim::BitLevel value);

  // -- Word-batched kernel (see can::CanNode for the contract) -------------

  /// Upper bound on transparent_bits() for any bus word: a running
  /// counterattack's release bit ends the prefix whatever the bus does.
  /// Lets a probe that cannot reach the batch minimum fail before the word
  /// is resolved.  Unbounded (can::kNever) while SOF-watching, where
  /// recessive bits only grow counters; 64 while tracking a frame.
  [[nodiscard]] sim::BitTime prefix_bound() const noexcept;

  /// Length of the longest prefix of `word` (LSB first, 1 = recessive; the
  /// `count` bits from `now`, at most prefix_bound()) the handler absorbs
  /// without reaching a reaction bit.  The end state is kept for
  /// on_bus_word(), except for an all-recessive window while SOF-watching,
  /// which needs no scan.
  [[nodiscard]] sim::BitTime transparent_bits(sim::BitTime now,
                                              std::uint64_t word,
                                              sim::BitTime count);

  /// Bulk-apply a committed reaction-free window: exactly `count` on_bit()
  /// calls over its levels.  Adopts the last scan's end state when the bus
  /// commits exactly the scanned prefix, otherwise replays the window.
  void on_bus_word(sim::BitTime now, std::uint64_t word, sim::BitTime count);

  [[nodiscard]] const MonitorStats& stats() const noexcept {
    return st_.stats;
  }

  /// Register the detector's counters ("<prefix>.*", including the
  /// per-path handler invocation counts behind the Sec. V-D CPU model)
  /// into a metrics shard (harvest-time only).
  void export_metrics(obs::Registry& reg, std::string_view prefix) const;
  [[nodiscard]] bool counterattack_active() const noexcept {
    return st_.attacking;
  }
  [[nodiscard]] const DetectionFsm& fsm() const noexcept { return *fsm_; }

 private:
  /// One Algorithm-1 bit.  At a reaction bit the absorbing instantiation
  /// returns false and leaves `s` untouched; the reacting one (on_bit)
  /// runs the same transition and adds the side effects.
  template <bool kReact>
  bool advance(MonitorState& s, sim::BitLevel value, sim::BitTime now) const;

  /// Advance `s` by one bit unless that bit may need a reaction.
  bool absorb(MonitorState& s, sim::BitLevel value) const {
    return advance<false>(s, value, 0);
  }

  /// Advance `s` over up to `count` bits of `word`, stopping before the
  /// first reaction bit; returns the number of bits absorbed.  SOF-watching
  /// stretches advance in closed form.
  sim::BitTime absorb_word(MonitorState& s, std::uint64_t word,
                           sim::BitTime count) const;

  /// Unstuffed position at which a pending malicious verdict arms.
  [[nodiscard]] int arm_pos(const MonitorState& s) const noexcept;

  const DetectionFsm* fsm_;
  mcu::PioController* pio_;
  MonitorConfig cfg_;
  std::function<bool()> self_transmitting_;
  sim::EventLog* log_{nullptr};
  std::string node_name_{"michican"};
  const DetectionFsm* ext_fsm_{nullptr};

  MonitorState st_;
  // The last transparent_bits() scan: its window start, word, absorbed
  // length and end state.  The first scan allocates the end state, so a
  // monitor that is never batched (defense off, naive tier) does not carry
  // a second state; an inline one slowed defense-off runs measurably.
  std::unique_ptr<MonitorState> scan_;
  sim::BitTime scan_at_{0};
  std::uint64_t scan_word_{0};
  sim::BitTime scan_len_{0};
};

}  // namespace mcan::core
