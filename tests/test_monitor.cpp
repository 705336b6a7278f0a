// Direct unit tests of the Algorithm-1 bit monitor: synchronization,
// stuff-bit removal, FSM integration, counterattack arming and release.
// The monitor is driven with hand-crafted bit streams, without a bus.  A
// seeded differential test holds the word path (scan, bulk apply) to the
// per-bit handler.
#include "core/monitor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "can/bitstream.hpp"
#include "can/frame.hpp"
#include "sim/rng.hpp"

namespace mcan::core {
namespace {

using sim::BitLevel;

struct MonitorHarness {
  DetectionFsm fsm;
  mcu::PioController pio;
  BitMonitor monitor;
  sim::BitTime now{0};

  explicit MonitorHarness(const IdRangeSet& ranges, MonitorConfig cfg = {})
      : fsm(DetectionFsm::build(ranges)), monitor(fsm, pio, cfg) {}

  void idle(int bits) {
    for (int i = 0; i < bits; ++i) {
      monitor.on_bit(now++, BitLevel::Recessive);
    }
  }

  /// Feed a frame's wire bits, returning the per-bit TX-mux states.
  std::vector<bool> feed_frame(const can::CanFrame& f) {
    std::vector<bool> mux;
    for (const auto& b : can::wire_bits(f)) {
      monitor.on_bit(now++, b.level);
      mux.push_back(pio.tx_mux_enabled());
    }
    return mux;
  }
};

IdRangeSet own_id_only(can::CanId id) {
  IdRangeSet s;
  s.add(id);
  return s;
}

TEST(BitMonitor, RequiresElevenRecessiveBeforeSof) {
  MonitorHarness h{own_id_only(0x173)};
  // Dominant bits with no idle run: not a SOF.
  for (int i = 0; i < 5; ++i) h.monitor.on_bit(h.now++, BitLevel::Dominant);
  EXPECT_EQ(h.monitor.stats().frames_observed, 0u);
  h.idle(11);
  h.monitor.on_bit(h.now++, BitLevel::Dominant);
  EXPECT_EQ(h.monitor.stats().frames_observed, 1u);
}

TEST(BitMonitor, BenignFrameNoCounterattack) {
  MonitorHarness h{own_id_only(0x173)};
  h.idle(12);
  const auto mux = h.feed_frame(can::CanFrame::make(0x2A0, {0x11, 0x22}));
  for (const bool m : mux) EXPECT_FALSE(m);
  EXPECT_EQ(h.monitor.stats().attacks_detected, 0u);
  EXPECT_EQ(h.monitor.stats().counterattacks, 0u);
}

TEST(BitMonitor, MaliciousFrameArmsAtRtrAndReleasesAfterWindow) {
  MonitorHarness h{own_id_only(0x173)};
  h.idle(12);
  const auto frame = can::CanFrame::make(0x173, {0xDE, 0xAD});
  const auto wire = can::wire_bits(frame);
  const auto mux = h.feed_frame(frame);
  EXPECT_EQ(h.monitor.stats().attacks_detected, 1u);
  EXPECT_EQ(h.monitor.stats().counterattacks, 1u);

  // Find the raw index of the RTR bit: the mux must engage right there and
  // stay on for exactly attack_bits raw bits.
  std::size_t rtr_raw = 0;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    if (wire[i].field == can::Field::Rtr) {
      rtr_raw = i;
      break;
    }
  }
  int on_bits = 0;
  for (std::size_t i = 0; i < mux.size(); ++i) {
    if (mux[i]) {
      ++on_bits;
      EXPECT_GE(i, rtr_raw);
      EXPECT_LT(i, rtr_raw + 8u);
    }
  }
  EXPECT_EQ(on_bits, 7);  // MonitorConfig default window
}

TEST(BitMonitor, StuffBitsDoNotShiftTheWindow) {
  // ID 0x000 maximizes stuff bits inside the arbitration field; the arm
  // position counts *unstuffed* bits, so the window must still start at
  // the RTR wire position.
  IdRangeSet all;
  all.add(0x000, 0x0FF);
  MonitorHarness h{all};
  h.idle(12);
  const auto frame = can::CanFrame::make(0x000, {0x00});
  const auto wire = can::wire_bits(frame);
  const auto mux = h.feed_frame(frame);
  std::size_t rtr_raw = 0;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    if (wire[i].field == can::Field::Rtr && !wire[i].is_stuff) {
      rtr_raw = i;
      break;
    }
  }
  ASSERT_GT(rtr_raw, 12u);  // stuff bits pushed RTR beyond raw index 12
  EXPECT_TRUE(mux[rtr_raw + 1]);  // armed right after the RTR sample
  EXPECT_EQ(h.monitor.stats().counterattacks, 1u);
}

TEST(BitMonitor, DetectionBitPositionReported) {
  // D = upper half: one ID bit suffices.
  IdRangeSet d;
  d.add(0x400, 0x7FF);
  MonitorHarness h{d};
  h.idle(12);
  h.feed_frame(can::CanFrame::make(0x7A5, {0x01}));
  EXPECT_EQ(h.monitor.stats().attacks_detected, 1u);
  EXPECT_EQ(h.monitor.stats().detection_bit_sum, 1u);
}

TEST(BitMonitor, SelfTransmissionSuppressed) {
  MonitorHarness h{own_id_only(0x173)};
  bool transmitting = true;
  h.monitor.set_self_transmitting([&] { return transmitting; });
  h.idle(12);
  h.feed_frame(can::CanFrame::make(0x173, {0x00}));
  EXPECT_EQ(h.monitor.stats().suppressed_self, 1u);
  EXPECT_EQ(h.monitor.stats().counterattacks, 0u);

  transmitting = false;
  h.idle(12);
  h.feed_frame(can::CanFrame::make(0x173, {0x00}));
  EXPECT_EQ(h.monitor.stats().counterattacks, 1u);
}

TEST(BitMonitor, PreventionDisabledStillDetects) {
  MonitorConfig cfg;
  cfg.prevention_enabled = false;
  MonitorHarness h{own_id_only(0x173), cfg};
  h.idle(12);
  const auto mux = h.feed_frame(can::CanFrame::make(0x173, {0x42}));
  EXPECT_EQ(h.monitor.stats().attacks_detected, 1u);
  EXPECT_EQ(h.monitor.stats().counterattacks, 0u);
  for (const bool m : mux) EXPECT_FALSE(m);
}

TEST(BitMonitor, ResynchronizesAfterForeignErrorFrame) {
  MonitorHarness h{own_id_only(0x173)};
  h.idle(12);
  // A frame that dies in an error flag: SOF + a few bits + 6 dominant.
  for (const int bit : {0, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0}) {
    h.monitor.on_bit(h.now++, sim::from_bit(bit));
  }
  EXPECT_FALSE(h.monitor.counterattack_active());
  // Error delimiter + IFS re-idles the bus; the next frame is tracked.
  h.idle(12);
  h.feed_frame(can::CanFrame::make(0x173, {0x01}));
  EXPECT_EQ(h.monitor.stats().frames_observed, 2u);
  EXPECT_EQ(h.monitor.stats().counterattacks, 1u);
}

TEST(BitMonitor, BackToBackFramesAreBothObserved) {
  MonitorHarness h{own_id_only(0x173)};
  h.idle(12);
  h.feed_frame(can::CanFrame::make(0x2A0, {0x01}));
  h.idle(3);  // IFS only: ACK delim + EOF already supplied 8 recessive bits
  h.feed_frame(can::CanFrame::make(0x300, {0x02}));
  EXPECT_EQ(h.monitor.stats().frames_observed, 2u);
}

TEST(BitMonitor, WindowWidthConfigurable) {
  MonitorConfig cfg;
  cfg.attack_bits = 3;
  MonitorHarness h{own_id_only(0x173), cfg};
  h.idle(12);
  const auto mux = h.feed_frame(can::CanFrame::make(0x173, {0xFF}));
  int on_bits = 0;
  for (const bool m : mux) on_bits += m ? 1 : 0;
  EXPECT_EQ(on_bits, 3);
}

TEST(BitMonitor, CounterattackNeverTransmitsFrames) {
  // The monitor only pulls the TX line low; it never produces an SOF/ID
  // sequence of its own.  After the window the contribution is recessive.
  MonitorHarness h{own_id_only(0x173)};
  h.idle(12);
  h.feed_frame(can::CanFrame::make(0x173, {0x55, 0xAA}));
  EXPECT_EQ(h.pio.tx_contribution(), BitLevel::Recessive);
  EXPECT_FALSE(h.pio.tx_mux_enabled());
  // Exactly two mux toggles per counterattack: enable + disable.
  EXPECT_EQ(h.pio.tx_mux_toggles(), 2u);
}

TEST(BitMonitor, FsmBitsCountedForCpuModel) {
  MonitorHarness h{own_id_only(0x173)};
  h.idle(12);
  h.feed_frame(can::CanFrame::make(0x2A0, {0x00}));
  const auto& s = h.monitor.stats();
  EXPECT_GT(s.fsm_bits, 0u);
  EXPECT_GT(s.idle_bits, 0u);
  EXPECT_GT(s.track_bits, 0u);
}


TEST(BitMonitor, ExtendedFrameWithoutExtFsmEndsQuietly) {
  // Paper-mode monitor (no extended FSM): an extended frame is released at
  // the IDE bit and the monitor resynchronizes on the next frame.
  MonitorHarness h{own_id_only(0x173)};
  h.idle(12);
  can::CanFrame ext;
  ext.id = 0x00012345;
  ext.extended = true;
  ext.dlc = 2;
  const auto mux = h.feed_frame(ext);
  for (const bool m : mux) EXPECT_FALSE(m);
  EXPECT_EQ(h.monitor.stats().counterattacks, 0u);
  // Next (standard, malicious) frame is still caught.
  h.idle(12);
  h.feed_frame(can::CanFrame::make(0x173, {0x42}));
  EXPECT_EQ(h.monitor.stats().counterattacks, 1u);
}

TEST(BitMonitor, ExtendedGuardArmsAtExtendedRtr) {
  IdRangeSet ext_d;
  ext_d.add(0x0, 0x000FFFFF);  // low extended IDs are malicious
  const auto ext_fsm = DetectionFsm::build(ext_d, can::kExtIdBits);
  MonitorHarness h{own_id_only(0x173)};
  h.monitor.set_extended_fsm(&ext_fsm);
  h.idle(12);
  can::CanFrame ext;
  ext.id = 0x00000042;
  ext.extended = true;
  ext.dlc = 1;
  const auto wire = can::wire_bits(ext);
  const auto mux = h.feed_frame(ext);
  EXPECT_EQ(h.monitor.stats().counterattacks, 1u);
  // The window must engage at/after the extended RTR wire position.
  std::size_t rtr_raw = 0;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    if (wire[i].field == can::Field::Rtr && !wire[i].is_stuff) rtr_raw = i;
  }
  for (std::size_t i = 0; i < mux.size(); ++i) {
    if (mux[i]) {
      EXPECT_GE(i, rtr_raw);
    }
  }
}

TEST(BitMonitor, StuffErrorDuringExtendedTrackingResyncs) {
  IdRangeSet ext_d;
  ext_d.add(0x0, 0x000FFFFF);
  const auto ext_fsm = DetectionFsm::build(ext_d, can::kExtIdBits);
  MonitorHarness h{own_id_only(0x173)};
  h.monitor.set_extended_fsm(&ext_fsm);
  h.idle(12);
  // SOF + base + SRR + IDE(recessive) then six dominant bits: a foreign
  // error frame kills the extended frame mid-ID.
  const int prefix[] = {0, 1,0,1,0,1,0,1,0,1,0,1, 1, 1};
  for (const int b : prefix) h.monitor.on_bit(h.now++, sim::from_bit(b));
  for (int i = 0; i < 6; ++i) {
    h.monitor.on_bit(h.now++, BitLevel::Dominant);
  }
  EXPECT_FALSE(h.monitor.counterattack_active());
  h.idle(12);
  h.feed_frame(can::CanFrame::make(0x173, {0x01}));
  EXPECT_EQ(h.monitor.stats().counterattacks, 1u);
}

// --- word path vs per-bit handler ------------------------------------------

/// A random wire stream: standard and extended frames with flagged and
/// benign IDs, frames killed by a stuff error inside the ID, and truncated
/// frames followed by an error flag and delimiter.  A frame ends in 8
/// recessive bits (10 when nobody acknowledges), an error sequence in 8,
/// so the short idle gaps put the run before the next dominant edge on both
/// sides of the 11-recessive SOF threshold.
std::vector<BitLevel> random_wire(sim::Rng& rng, int frames) {
  std::vector<BitLevel> out;
  const auto push = [&](BitLevel level, std::uint64_t n) {
    out.insert(out.end(), n, level);
  };
  for (int f = 0; f < frames; ++f) {
    push(BitLevel::Recessive, rng.chance(0.8) ? rng.uniform(0, 6)
                                              : rng.uniform(7, 20));
    if (rng.chance(0.1)) push(BitLevel::Dominant, rng.uniform(1, 3));

    // Flagged standard IDs lie in 0x100..0x17F; flagged extended IDs are
    // either low (29-bit FSM) or carry a flagged base ID.
    const bool flagged = rng.chance(0.5);
    can::CanFrame frame;
    if (rng.chance(0.3)) {
      const auto base = static_cast<can::CanId>(
          flagged && rng.chance(0.5) ? rng.uniform(0x100, 0x17F)
                                     : rng.uniform(0x200, 0x7FF));
      frame.id = flagged && rng.chance(0.5)
                     ? static_cast<can::CanId>(rng.uniform(0, 0xFFFFF))
                     : (base << 18) |
                           static_cast<can::CanId>(rng.uniform(0, 0x3FFFF));
      frame.extended = true;
    } else {
      frame.id = static_cast<can::CanId>(
          flagged ? rng.uniform(0x100, 0x17F) : rng.uniform(0x180, 0x7FF));
    }
    frame.dlc = static_cast<std::uint8_t>(rng.uniform(0, 8));
    for (auto& b : frame.data) b = static_cast<std::uint8_t>(rng.next());

    const auto wire = can::wire_bits(frame);
    std::size_t len = wire.size();
    const bool stuff_error = rng.chance(0.15);
    if (stuff_error) {
      len = rng.uniform(1, 10);  // six equal levels starting inside the ID
    } else if (rng.chance(0.1)) {
      len = rng.uniform(1, len - 1);
    }
    const bool acked = rng.chance(0.8);
    for (std::size_t i = 0; i < len; ++i) {
      const bool ack = wire[i].field == can::Field::AckSlot;
      out.push_back(ack && acked ? BitLevel::Dominant : wire[i].level);
    }
    if (stuff_error) {
      push(out.back(), 5);
    }
    if (len < wire.size()) {
      push(BitLevel::Dominant, 6);  // error flag
      push(BitLevel::Recessive, 8);  // error delimiter
    }
  }
  return out;
}

/// One monitor with its own PIO and event log.  The self-transmission
/// oracle is a fixed function of the bit being handled, so both drivers
/// see the same answers as long as they query on the same bits.
struct Replica {
  mcu::PioController pio;
  sim::EventLog log;
  BitMonitor monitor;
  sim::BitTime now{0};

  Replica(const DetectionFsm& fsm, const DetectionFsm* ext, MonitorConfig cfg)
      : monitor(fsm, pio, cfg) {
    monitor.set_extended_fsm(ext);
    monitor.set_event_log(&log, "def");
    monitor.set_self_transmitting([this] { return now % 3 == 0; });
  }
  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  void step(const std::vector<BitLevel>& wire) {
    monitor.on_bit(now, wire[now]);
    ++now;
  }
};

struct PioSample {
  BitLevel level;
  std::uint64_t toggles;
  bool operator==(const PioSample&) const = default;
};

PioSample sample(const Replica& r) {
  return {r.pio.tx_contribution(), r.pio.tx_mux_toggles()};
}

void expect_same_events(const sim::EventLog& a, const sim::EventLog& b) {
  ASSERT_EQ(a.events().size(), b.events().size());
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    const auto& x = a.events()[i];
    const auto& y = b.events()[i];
    EXPECT_EQ(x.at, y.at) << "event " << i;
    EXPECT_EQ(x.kind, y.kind) << "event " << i;
    EXPECT_EQ(x.id, y.id) << "event " << i;
    EXPECT_EQ(x.a, y.a) << "event " << i;
    EXPECT_EQ(x.b, y.b) << "event " << i;
    EXPECT_EQ(x.node, y.node) << "event " << i;
  }
}

void expect_same_stats(const MonitorStats& a, const MonitorStats& b) {
  EXPECT_EQ(a.frames_observed, b.frames_observed);
  EXPECT_EQ(a.attacks_detected, b.attacks_detected);
  EXPECT_EQ(a.counterattacks, b.counterattacks);
  EXPECT_EQ(a.suppressed_self, b.suppressed_self);
  EXPECT_EQ(a.idle_bits, b.idle_bits);
  EXPECT_EQ(a.fsm_bits, b.fsm_bits);
  EXPECT_EQ(a.track_bits, b.track_bits);
  EXPECT_EQ(a.detection_bit_sum, b.detection_bit_sum);
}

TEST(BitMonitorWordPath, MatchesPerBitHandlerOnRandomStreams) {
  IdRangeSet std_d;
  std_d.add(0x100, 0x17F);
  IdRangeSet ext_d;
  ext_d.add(0x0, 0xFFFFF);
  const auto fsm = DetectionFsm::build(std_d);
  const auto ext_fsm = DetectionFsm::build(ext_d, can::kExtIdBits);

  struct Variant {
    const char* name;
    bool guard_extended;
    MonitorConfig cfg;
  };
  MonitorConfig no_prevention;
  no_prevention.prevention_enabled = false;
  MonitorConfig long_window;
  long_window.attack_bits = 20;  // lets windows batch inside the attack
  const Variant variants[] = {{"paper", false, {}},
                              {"guarded", true, {}},
                              {"detect-only", true, no_prevention},
                              {"long-window", false, long_window}};

  std::uint64_t adopted = 0;
  std::uint64_t replayed = 0;
  std::uint64_t cut_short = 0;
  for (const auto& v : variants) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      SCOPED_TRACE(std::string{v.name} + " seed " + std::to_string(seed));
      sim::Rng rng{seed};
      const auto wire = random_wire(rng, 150);
      const DetectionFsm* ext = v.guard_extended ? &ext_fsm : nullptr;

      // Reference: the per-bit handler, PIO sampled after every bit.
      Replica ref{fsm, ext, v.cfg};
      std::vector<PioSample> pio;
      while (ref.now < wire.size()) {
        ref.step(wire);
        pio.push_back(sample(ref));
      }

      // Word path, driven the way the bus drives it: scan a window, commit
      // a prefix no longer than the scan, step the next bit per bit.
      // Recessive stretches also go through all-recessive windows (the
      // bus's idle skip), up to prefix_bound() bits — unbounded while
      // SOF-watching, where no scan runs at all.
      Replica word{fsm, ext, v.cfg};
      while (word.now < wire.size()) {
        const sim::BitTime left = wire.size() - word.now;
        if (rng.chance(0.2)) {
          sim::BitTime run = 0;
          while (run < left && sim::is_recessive(wire[word.now + run])) ++run;
          run = std::min(run, word.monitor.prefix_bound());
          if (run > 0) {
            const sim::BitTime n = word.monitor.transparent_bits(
                word.now, ~0ull, rng.uniform(1, run));
            if (n > 0) {
              word.monitor.on_bus_word(word.now, ~0ull, n);
              word.now += n;
              EXPECT_EQ(sample(word), pio[word.now - 1]);
              continue;
            }
          }
        }
        const sim::BitTime count = std::min<sim::BitTime>(
            rng.uniform(1, 64), left);
        // Levels past `count` are another node's business: garbage here.
        std::uint64_t bits = rng.next();
        for (sim::BitTime i = 0; i < count; ++i) {
          const std::uint64_t m = std::uint64_t{1} << i;
          bits = sim::is_recessive(wire[word.now + i]) ? bits | m : bits & ~m;
        }
        const sim::BitTime bound = word.monitor.prefix_bound();
        const sim::BitTime scanned =
            word.monitor.transparent_bits(word.now, bits, count);
        EXPECT_LE(scanned, bound);
        if (scanned < count) ++cut_short;
        sim::BitTime commit = scanned;
        if (scanned > 1 && rng.chance(0.4)) {
          commit = rng.uniform(1, scanned - 1);
        }
        if (commit > 0) {
          ++(commit == scanned ? adopted : replayed);
          word.monitor.on_bus_word(word.now, bits, commit);
          word.now += commit;
          EXPECT_EQ(sample(word), pio[word.now - 1]);
        }
        if (word.now < wire.size()) {
          word.step(wire);
          EXPECT_EQ(sample(word), pio[word.now - 1]);
        }
      }

      expect_same_stats(word.monitor.stats(), ref.monitor.stats());
      expect_same_events(word.log, ref.log);
      EXPECT_GT(ref.monitor.stats().attacks_detected, 0u);
      EXPECT_GT(ref.monitor.stats().suppressed_self, 0u);
    }
  }
  // Both bulk-apply paths ran, and scans stopped on reaction bits.
  EXPECT_GT(adopted, 100u);
  EXPECT_GT(replayed, 100u);
  EXPECT_GT(cut_short, 100u);
}

}  // namespace
}  // namespace mcan::core
