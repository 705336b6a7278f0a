// Interface between the wired-AND bus and anything attached to it.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

#include "sim/types.hpp"

namespace mcan::can {

/// Due-time sentinel for application-hook scheduling companions
/// (BitController::add_app): the hook is due now.  Any return value <= now
/// means the same thing, so 0 is the universal "due".
inline constexpr sim::BitTime kAlways = 0;

/// Horizon sentinel: never.  As a hook due time the hook is parked until its
/// controller's TX queue pops a frame or the controller enters or leaves
/// bus-off (BitController::add_app); as a DrivePattern horizon the node
/// drives recessive indefinitely.
inline constexpr sim::BitTime kNever =
    std::numeric_limits<sim::BitTime>::max();

/// A device attached to the CAN bus.  Once per nominal bit time the bus
/// calls, in order: tick() (application work), tx_level() (the level this
/// node drives), then on_bus_bit() with the resolved wired-AND level
/// (the sample point).  Decisions made in on_bus_bit(t) take effect on the
/// level driven at t+1, matching real controllers that change their output
/// at the next bit boundary after the sample point.
class CanNode {
 public:
  virtual ~CanNode() = default;

  /// Application hook, called before levels are collected for this bit.
  virtual void tick(sim::BitTime /*now*/) {}

  /// Level this node drives onto the bus for the current bit time.
  [[nodiscard]] virtual sim::BitLevel tx_level() = 0;

  /// Resolved bus level for the current bit time (the sample).
  virtual void on_bus_bit(sim::BitLevel bus) = 0;

  // -- Batch-window contract (the engine tier above naive stepping) -------
  //
  // The engine asks every node three questions per window:
  //   1. drive_pattern(now): which levels will you drive over the next
  //      bits, assuming you react to nothing in that window?
  //   2. transparent_bits(now, word, count): given the resolved bus word,
  //      how many leading bits pass without provoking ANY reaction from you
  //      (no drive change, no event, no error, no state fork)?
  //   3. on_bus_word(now, word, count): bulk-apply the agreed prefix.
  // The window commits only up to the minimum transparent prefix across all
  // nodes; everything after that boundary is stepped bit by bit.  A node
  // that cannot answer cheaply opts out by returning horizon 0, which makes
  // the bus fall back to per-bit stepping for this window.
  //
  // A window whose resolved word is all recessive (~0ull) may be longer
  // than 64 bits: that is how an idle bus is skipped.  Only such a window
  // reaches transparent_bits()/on_bus_word() with count > 64; bit i of
  // `word` then reads recessive for every i.

  /// Drive promise for a batch window.
  struct DrivePattern {
    /// Number of bits promised (0 = opt out of batching at `now`).  The bus
    /// clamps the window to the smallest horizon across nodes.  A horizon
    /// above 64 is only allowed for a node that drives recessive over all
    /// of it (`bits` == ~0ull); the bus clamps any window whose resolved
    /// word has a dominant bit to 64.
    sim::BitTime horizon{0};
    /// Levels driven for bits [now, now + min(horizon, 64)), LSB-first: bit
    /// i of `bits` is to_bit() of the level driven at now + i (1 =
    /// recessive).
    std::uint64_t bits{~0ull};
  };

  /// Levels this node will drive for the next `horizon` bits starting at
  /// `now` (the bit tx_level() is about to be called for), PROVIDED nothing
  /// on the bus makes it react earlier — transparent_bits() is what bounds
  /// the window to the reaction-free prefix afterwards.  The bus enforces
  /// the promise at both ends of a window and throws std::logic_error on a
  /// mismatch: bit 0 MUST equal the level tx_level() returns now, and when
  /// the horizon reaches past the committed window, tx_level() after
  /// on_bus_word() MUST equal the promised next bit.  Default: opt out.
  [[nodiscard]] virtual DrivePattern drive_pattern(sim::BitTime /*now*/) {
    return {};
  }

  /// Given the resolved bus word for [now, now + count) (LSB-first, same
  /// encoding as DrivePattern::bits), return the length of the longest
  /// prefix this node can absorb without ANY reaction: no change to the
  /// level it drives beyond its advertised pattern, no event-log or error
  /// activity, no decision that would alter a later bit.  The returned
  /// value may be 0 (react immediately -> per-bit fallback) and must be
  /// <= count.  Only called after drive_pattern() returned a non-zero
  /// horizon >= count; count > 64 only for an all-recessive word.
  [[nodiscard]] virtual sim::BitTime transparent_bits(
      sim::BitTime /*now*/, std::uint64_t /*word*/, sim::BitTime /*count*/) {
    return 0;
  }

  /// Bulk-apply `count` resolved bus bits (LSB-first in `word`).  Must leave
  /// the node in exactly the state that `count` consecutive tick()/
  /// tx_level()/on_bus_bit() rounds over these levels would have — including
  /// every metrics-visible counter.  Only called for a window every node
  /// declared transparent, so no reaction may fire inside it.
  virtual void on_bus_word(sim::BitTime /*now*/, std::uint64_t /*word*/,
                           sim::BitTime /*count*/) {}

  [[nodiscard]] virtual std::string_view name() const = 0;
};

/// Length of the all-recessive prefix of a window's resolved `word`, at
/// most `count` (any length for an all-recessive word) — the transparent
/// prefix of a node that reacts to the first dominant bit, as a
/// SOF-watcher does.
[[nodiscard]] inline sim::BitTime recessive_prefix(std::uint64_t word,
                                                   sim::BitTime count) {
  if (word == ~0ull) return count;
  return std::min(static_cast<sim::BitTime>(std::countr_one(word)), count);
}

}  // namespace mcan::can
