// CANnon-style bit-injection bus-off attack (paper Sec. VI-A) and the
// threat-model boundary it marks for MichiCAN.
#include "attack/cannon.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "can/bus.hpp"
#include "can/periodic.hpp"
#include "core/michican_node.hpp"
#include "obs/timeline.hpp"

namespace mcan::attack {
namespace {

using sim::BitTime;

struct CannonEnv {
  can::WiredAndBus bus{sim::BusSpeed{500'000}};
  can::BitController victim{"victim"};
  can::BitController peer{"peer"};
  can::BitController quiet{"quiet"};  // keeps ACKs alive once the victim
                                      // is confined

  explicit CannonEnv(double period_bits = 600.0) {
    victim.attach_to(bus);
    peer.attach_to(bus);
    quiet.attach_to(bus);
    can::attach_periodic(victim, can::CanFrame::make(0x123, {0xAA, 0xBB}),
                         period_bits);
  }
};

TEST(Cannon, SingleBitInjectionForcesVictimError) {
  CannonEnv env;
  CannonAttacker cannon{"cannon", {.victim_id = 0x123, .max_hits = 1}};
  env.bus.attach(cannon);
  env.bus.run(2000);
  EXPECT_EQ(cannon.hits(), 1);
  EXPECT_GE(env.victim.stats().tx_errors, 1u);
  // The frame is retransmitted and eventually delivered.
  EXPECT_GT(env.victim.stats().frames_sent, 0u);
}

TEST(Cannon, PersistentInjectionBusesOffVictim) {
  CannonEnv env{400.0};
  CannonAttacker cannon{"cannon", {.victim_id = 0x123}};
  env.bus.attach(cannon);
  env.bus.run(60'000);
  // The victim's own controller confines it — the attack works exactly
  // like MichiCAN's counterattack, but aimed at a legitimate ECU.
  EXPECT_GE(env.victim.stats().bus_off_entries, 1u);
}

TEST(Cannon, OtherTrafficIsUntouched) {
  CannonEnv env{400.0};
  can::attach_periodic(env.peer, can::CanFrame::make(0x300, {0x01}), 700.0);
  CannonAttacker cannon{"cannon", {.victim_id = 0x123}};
  env.bus.attach(cannon);
  env.bus.run(30'000);
  EXPECT_EQ(env.peer.stats().tx_errors, 0u);
  EXPECT_GT(env.peer.stats().frames_sent, 20u);
}

TEST(Cannon, OutsideMichiCanThreatModel) {
  // A MichiCAN defender cannot counterattack the injector: it transmits no
  // frame, so no malicious CAN ID ever appears during arbitration.  The
  // paper's answer is platform isolation (Fig. 3), not the counterattack.
  can::WiredAndBus bus{sim::BusSpeed{500'000}};
  const core::IvnConfig ivn{{0x123, 0x173, 0x300}};
  core::MichiCanNodeConfig cfg;
  cfg.own_id = 0x173;
  core::MichiCanNode def{"defender", ivn, cfg};
  def.attach_to(bus);
  can::BitController victim{"victim"};
  victim.attach_to(bus);
  can::attach_periodic(victim, can::CanFrame::make(0x123, {0xAA}), 400.0);

  CannonAttacker cannon{"cannon", {.victim_id = 0x123}};
  bus.attach(cannon);
  bus.run(60'000);

  EXPECT_GE(victim.stats().bus_off_entries, 1u);   // attack succeeds
  EXPECT_EQ(def.monitor().stats().counterattacks, 0u);
  EXPECT_EQ(def.controller().tec(), 0);
}

TEST(Cannon, IgnoresNonVictimIds) {
  CannonEnv env;
  can::attach_periodic(env.peer, can::CanFrame::make(0x300, {0x01}), 700.0);
  CannonAttacker cannon{"cannon", {.victim_id = 0x777}};  // nobody sends it
  env.bus.attach(cannon);
  env.bus.run(20'000);
  EXPECT_EQ(cannon.hits(), 0);
  EXPECT_EQ(env.victim.stats().tx_errors, 0u);
}

TEST(Cannon, EngineRecordingMatchesNaiveKernel) {
  // While idle the injector joins batch windows as a SOF-watcher — also
  // through the rest of every non-victim frame, where it has resynced to
  // wait for idle — so the engine must reproduce the naive recording.
  auto record = [](bool fast_path) {
    CannonEnv env{400.0};
    env.bus.set_fast_path(fast_path);
    can::attach_periodic(env.peer, can::CanFrame::make(0x300, {0x01}), 700.0);
    CannonAttacker cannon{"cannon", {.victim_id = 0x123}};
    env.bus.attach(cannon);
    env.bus.run(30'000);
    return std::pair{obs::to_jsonl(env.bus.log()),
                     env.bus.trace().render(0, env.bus.trace().size())};
  };
  const auto naive = record(false);
  EXPECT_EQ(naive, record(true));
}

TEST(Cannon, CustomInjectionPositionInDataField) {
  CannonEnv env;
  // Inject 2 bits starting at unstuffed position 22 (inside data byte 0).
  CannonAttacker cannon{"cannon",
                        {.victim_id = 0x123, .inject_bits = 2,
                         .inject_pos = 22, .max_hits = 3}};
  env.bus.attach(cannon);
  env.bus.run(10'000);
  EXPECT_EQ(cannon.hits(), 3);
  EXPECT_GE(env.victim.stats().tx_errors, 1u);
}

}  // namespace
}  // namespace mcan::attack
