// Physical-layer fault injection for the wired-AND bus.
//
// The security argument of MichiCAN rests on CAN's error signalling and
// fault confinement behaving exactly as ISO 11898-1 specifies — the same
// machinery that bus-off attacks ("Silently Disabling ECUs", Rogers &
// Rasmussen) and bit-level peripheral conflicts (CANflict) weaponize.  The
// FaultInjector disturbs the resolved bus level *between* the wired-AND
// resolution and the nodes' sample points, which lets it model disturbances
// no protocol-compliant CanNode can produce:
//
//   (a) bit flips — dominant <-> recessive, either at a seedable random
//       bit-error rate (radiation, marginal transceivers, EMI bursts) or at
//       scheduled (frame, field, bit) positions for reproducible worst
//       cases.  Note that a recessive->dominant flip could be produced by a
//       glitching node, but dominant->recessive cannot: it corresponds to a
//       broken driver or a wiring fault, which is exactly why the injector
//       hooks the bus instead of attaching as a node;
//   (b) stuck-at windows — the bus held dominant (short circuit) or
//       recessive (severed harness / dead transceiver) for N bit times;
//   (c) per-node sample-point skew — a node's sample point drifts inside
//       the bit by `drift_per_bit` every bit, is pulled back by up to `sjw`
//       on every recessive->dominant edge (resynchronization) and snaps to
//       zero on a SOF edge after bus idle (hard synchronization).  Once the
//       accumulated phase error reaches half a bit the node samples the
//       *previous* bus level — the CANflict-style mis-sample.  Within CAN's
//       tolerance (drift * 10 bits <= sjw, sjw < 0.5) no mis-sample can
//       ever occur, which tests assert.
//
// Every injected fault is tagged in the bus event log
// (sim::EventKind::FaultInjected) so forensics can correlate protocol
// errors with their physical cause.  All randomness flows through sim::Rng:
// a fixed seed reproduces the exact fault schedule, which keeps campaign
// runs bit-identical across worker counts.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "can/types.hpp"
#include "sim/event_log.hpp"
#include "sim/rng.hpp"
#include "sim/types.hpp"

namespace mcan::obs {
class Registry;
}  // namespace mcan::obs

namespace mcan::can {

/// What kind of fault a FaultInjected event describes (Event::a).
enum class FaultKind : std::uint8_t {
  RandomFlip = 0,     // BER-driven bit flip; Event::b = resulting level
  ScheduledFlip = 1,  // scheduled (frame, field, bit) flip
  StuckBus = 2,       // start of a stuck-at window; Event::b = forced level
  SampleSlip = 3,     // a skewed node started mis-sampling; Event::b = node
};

[[nodiscard]] std::string_view to_string(FaultKind k) noexcept;

/// One scheduled bit flip, addressed frame-relative: `frame` counts SOF
/// edges on the wire since the start of the recording (retransmissions are
/// separate frames), `field`/`bit` name a position in the standard-frame
/// head layout (can/types.hpp kPos* constants).  The offset is applied to
/// the *raw* wire position after SOF; it is exact as long as no stuff bit
/// precedes the position (always true inside the leading ID bits of IDs
/// without 5-bit runs).  Field::Sof itself cannot be flipped: the injector
/// needs the SOF edge to establish frame-relative positions.
struct ScheduledFlip {
  std::uint64_t frame{0};
  Field field{Field::Id};
  int bit{0};  // offset within the field

  /// Raw wire offset from SOF this flip targets (dlc matters only for
  /// fields at or behind the data field).
  [[nodiscard]] int wire_position(int dlc = 8) const noexcept;
};

/// Hold the resolved bus level at `level` for `len` bit times starting at
/// absolute bus time `start`.
struct StuckWindow {
  sim::BitTime start{0};
  sim::BitTime len{0};
  sim::BitLevel level{sim::BitLevel::Dominant};
};

/// Clock-tolerance model for one node, keyed by CanNode::name().
struct SampleSkew {
  std::string node;
  /// Sample-point drift per bit, as a fraction of the nominal bit time.
  /// Positive = slow clock (samples ever later), negative = fast clock.
  double drift_per_bit{0.0};
  /// Resynchronization jump width: the phase correction applied on every
  /// recessive->dominant edge, as a fraction of the bit time.
  double sjw{0.125};
};

/// Declarative fault plan; the experiment layer embeds one per spec.
struct FaultSpec {
  /// Probability that any given resolved bit is flipped (0 = off).
  double bit_error_rate{0.0};
  std::vector<ScheduledFlip> flips;
  std::vector<StuckWindow> stuck;
  std::vector<SampleSkew> skews;
  /// RNG seed for the random-flip schedule; 0 = derive from the
  /// experiment's seed (the campaign-friendly default).
  std::uint64_t seed{0};

  [[nodiscard]] bool any() const noexcept {
    return bit_error_rate > 0.0 || !flips.empty() || !stuck.empty() ||
           !skews.empty();
  }
};

/// The bus-side injector.  WiredAndBus calls transform() once per bit on
/// the resolved level and deliver() once per attached node when any
/// sample-point skew is configured.
class FaultInjector {
 public:
  struct Stats {
    std::uint64_t random_flips{};
    std::uint64_t scheduled_flips{};
    std::uint64_t stuck_bits{};
    std::uint64_t sample_slips{};

    [[nodiscard]] std::uint64_t total() const noexcept {
      return random_flips + scheduled_flips + stuck_bits + sample_slips;
    }
  };

  explicit FaultInjector(FaultSpec spec, std::uint64_t derived_seed = 0);

  /// Disturb the resolved bus level for the current bit time.  Called by
  /// the bus after wired-AND resolution, before the trace sample and the
  /// nodes' sample points.  `log` may be null.
  [[nodiscard]] sim::BitLevel transform(sim::BitTime now, sim::BitLevel level,
                                        sim::EventLog* log);

  /// Level node `index` (named `name`) samples for the current bit, given
  /// the (already transformed) current and previous bus levels.  Applies
  /// the per-node sample-point skew model.  `log` may be null.
  [[nodiscard]] sim::BitLevel deliver(std::size_t index, std::string_view name,
                                      sim::BitLevel current,
                                      sim::BitLevel previous, sim::BitTime now,
                                      sim::EventLog* log);

  /// True when any per-node skew is configured (lets the bus skip the
  /// per-node deliver() path entirely otherwise).
  [[nodiscard]] bool has_skew() const noexcept { return !spec_.skews.empty(); }

  /// Batch-window contract: the number of bits from `now` the injector
  /// guarantees to leave undisturbed (so the bus may resolve them as one
  /// window).  0 = cannot batch here.  Scheduled flips and sample-point
  /// skew key off per-bit wire positions, so both veto every window while
  /// the frame tracker is inside a frame; a pending BER flip and upcoming
  /// stuck windows merely cap the window.
  [[nodiscard]] sim::BitTime batch_horizon(sim::BitTime now) const;

  /// Transparent prefix of the resolved `word` (mirrors
  /// CanNode::transparent_bits): with scheduled flips or skew configured
  /// the window stops before its first dominant bit, which may open a
  /// frame; otherwise all `count` bits pass.
  [[nodiscard]] sim::BitTime transparent_bits(std::uint64_t word,
                                              sim::BitTime count) const;

  /// Bulk-apply `count` resolved bus bits (LSB-first in `word`, 1 =
  /// recessive; mirrors CanNode::on_bus_word): leaves the frame tracker,
  /// the geometric flip gap and the skew states exactly as `count`
  /// undisturbed transform()/deliver() calls would.  Only valid within a
  /// window batch_horizon() and transparent_bits() allowed; count > 64
  /// only for an all-recessive word.
  void on_batch(std::uint64_t word, sim::BitTime count);

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] const FaultSpec& spec() const noexcept { return spec_; }

  /// Register the fault counters ("faults.*") into a metrics shard.
  void export_metrics(obs::Registry& reg) const;

 private:
  struct SkewState {
    bool configured{false};
    bool resolved{false};  // name lookup done
    double drift{0.0};
    double sjw{0.0};
    double phase{0.0};     // accumulated sample-point error in bits
    bool slipping{false};  // |phase| >= 0.5: currently mis-sampling
  };

  void track(sim::BitLevel out);
  [[nodiscard]] std::optional<sim::BitLevel> stuck_level(
      sim::BitTime now) const noexcept;

  FaultSpec spec_;
  sim::Rng rng_;
  Stats stats_;

  // Random-flip schedule: bits remaining until the next flip (geometric
  // gaps — one RNG draw per flip, not per bit).
  std::uint64_t next_flip_gap_{0};

  // Frame-relative tracking for scheduled flips, on post-fault levels.
  bool in_frame_{false};
  int pos_{0};                   // raw wire position since SOF
  std::uint64_t frames_seen_{0};  // SOF edges observed so far
  int recessive_run_{11};        // start as idle

  // Stuck-window bookkeeping (for one log entry per window).
  std::size_t last_logged_window_{static_cast<std::size_t>(-1)};

  std::vector<SkewState> skew_;  // indexed by bus node index
};

}  // namespace mcan::can
