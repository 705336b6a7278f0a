// Robustness and false-positive analysis under injected faults.
//
// Paper Sec. IV-E: "although MichiCAN could potentially flag a legitimate
// node as an attacker due to a bit flip, a node needs to encounter 32
// consecutive errors for the TEC to reach a level that would trigger a
// bus-off condition.  In case of sporadic errors, the likelihood of hitting
// this threshold is near zero."  These tests inject sporadic dominant
// glitches (the only disturbance a wired-AND bus physically allows) and
// check that no benign node is ever confined.
#include <gtest/gtest.h>

#include "attack/attacker.hpp"
#include "can/bus.hpp"
#include "can/periodic.hpp"
#include "core/michican_node.hpp"
#include "helpers.hpp"
#include "restbus/replay.hpp"
#include "restbus/vehicles.hpp"
#include "sim/rng.hpp"

namespace mcan {
namespace {

/// Injects single-bit dominant glitches at random times with a given rate.
class NoiseInjector final : public can::CanNode {
 public:
  NoiseInjector(double rate_per_bit, std::uint64_t seed)
      : rate_(rate_per_bit), rng_(seed) {}

  sim::BitLevel tx_level() override {
    return fire_ ? sim::BitLevel::Dominant : sim::BitLevel::Recessive;
  }
  void tick(sim::BitTime) override {
    fire_ = rng_.chance(rate_);
    if (fire_) ++count_;
  }
  void on_bus_bit(sim::BitLevel) override {}
  [[nodiscard]] std::string_view name() const override { return "noise"; }
  [[nodiscard]] std::uint64_t glitches() const noexcept { return count_; }

 private:
  double rate_;
  sim::Rng rng_;
  bool fire_{false};
  std::uint64_t count_{0};
};

TEST(FaultInjection, SporadicGlitchesNeverBusOffBenignNodes) {
  can::WiredAndBus bus{sim::BusSpeed{50'000}};
  const auto matrix =
      restbus::vehicle_matrix(restbus::Vehicle::D, 1)
          .without(0x173)
          .scaled_to_load(50e3, 0.25);
  can::BitController rb{"restbus"};
  restbus::attach_matrix_replay(rb, matrix, bus.speed());
  rb.attach_to(bus);

  const core::IvnConfig ivn{
      restbus::vehicle_matrix(restbus::Vehicle::D, 1).ecu_ids()};
  core::MichiCanNodeConfig cfg;
  cfg.own_id = 0x173;
  core::MichiCanNode def{"defender", ivn, cfg};
  def.attach_to(bus);

  NoiseInjector noise{1e-4, 77};  // ~1 glitch per 10k bits
  bus.attach(noise);

  bus.run_for(sim::Millis{2000.0});

  EXPECT_EQ(rb.stats().bus_off_entries, 0u);
  EXPECT_FALSE(def.controller().is_bus_off());
  // Some frames were corrupted and retransmitted, but traffic flows.
  EXPECT_GT(rb.stats().frames_sent, 50u);
  EXPECT_LT(rb.tec(), 128) << "the rest-bus replay went error-passive";
}

TEST(FaultInjection, GlitchInducedFalseDetectionIsHarmless) {
  // Force the worst case deterministically: a glitch flips a legitimate
  // ID's recessive bit to dominant *inside the arbitration field*, so the
  // monitor sees a malicious ID and counterattacks a benign transmission.
  // The benign ECU must shrug it off: one error, one retransmission.
  can::WiredAndBus bus{sim::BusSpeed{50'000}};
  const core::IvnConfig ivn{{0x100, 0x173, 0x300}};
  core::MichiCanNodeConfig cfg;
  cfg.own_id = 0x173;
  core::MichiCanNode def{"defender", ivn, cfg};
  def.attach_to(bus);

  can::BitController victim{"victim"};
  victim.attach_to(bus);
  int delivered = 0;
  def.controller().set_rx_callback(
      [&](const can::CanFrame&, sim::BitTime) { ++delivered; });

  // 0x100 = 00100000000b.  Flipping ID bit 4 (recessive -> dominant) yields
  // 0x000-prefix 0b00000...: the victim simply LOSES ARBITRATION to the
  // glitch and the monitor chases a ghost frame.  Flipping a later bit
  // (e.g. making the observed prefix 0x000xx) lands in the defender's DoS
  // range.  Either way the victim must survive.
  test::PulseInjector glitch;
  // The victim enqueues at t=0; integration takes 11 bits, SOF at bit 12,
  // ID bits at 13..23.  Glitch ID bit index 9 (raw bit 21: 0x100 has no
  // stuff bits before it).
  glitch.pulse(21, 1);
  bus.attach(glitch);

  victim.enqueue(can::CanFrame::make(0x100, {0x42}));
  bus.run(2000);

  EXPECT_EQ(delivered, 1);  // the retransmission made it
  EXPECT_FALSE(victim.is_bus_off());
  EXPECT_LE(victim.tec(), 8);  // at most one error charged, then -1 decay
}

TEST(FaultInjection, BurstGlitchesDelayButDoNotKill) {
  can::WiredAndBus bus{sim::BusSpeed{50'000}};
  can::BitController tx{"tx"};
  can::BitController rx{"rx"};
  tx.attach_to(bus);
  rx.attach_to(bus);
  int delivered = 0;
  rx.set_rx_callback([&](const can::CanFrame&, sim::BitTime) { ++delivered; });

  NoiseInjector noise{5e-3, 1234};  // heavy noise: 1 glitch per 200 bits
  bus.attach(noise);
  can::attach_periodic(tx, can::CanFrame::make(0x123, {0xAA, 0xBB}), 1000.0);
  bus.run(100'000);

  EXPECT_GT(delivered, 60);          // most cycles still deliver
  EXPECT_FALSE(tx.is_bus_off());     // errors decay faster than they build
  EXPECT_GT(tx.stats().tx_errors, 5u);
}

TEST(FaultInjection, DefenderSurvivesGlitchStormDuringAttack) {
  // Noise + active DoS at the same time: the defense must still win and
  // the defender must stay healthy.
  can::WiredAndBus bus{sim::BusSpeed{50'000}};
  const core::IvnConfig ivn{{0x100, 0x173, 0x300}};
  core::MichiCanNodeConfig cfg;
  cfg.own_id = 0x173;
  core::MichiCanNode def{"defender", ivn, cfg};
  def.attach_to(bus);
  attack::Attacker atk{"attacker", attack::Attacker::targeted_dos(0x064)};
  atk.attach_to(bus);
  NoiseInjector noise{2e-4, 99};
  bus.attach(noise);

  bus.run(50'000);
  EXPECT_GE(bus.log().count(sim::EventKind::BusOff, "attacker"), 2u);
  EXPECT_FALSE(def.controller().is_bus_off());
}

}  // namespace
}  // namespace mcan
