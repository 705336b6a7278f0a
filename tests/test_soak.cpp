// Long mixed-scenario soak test: every node type on one bus for several
// simulated seconds, checking global invariants at the end.  This is the
// closest thing to the paper's full testbed (Fig. 5) running everything at
// once.
#include <gtest/gtest.h>

#include "attack/attacker.hpp"
#include "attack/cannon.hpp"
#include "baseline/frequency_ids.hpp"
#include "can/bus.hpp"
#include "can/periodic.hpp"
#include "core/michican_node.hpp"
#include "restbus/candump.hpp"
#include "restbus/replay.hpp"
#include "restbus/vehicles.hpp"

namespace mcan {
namespace {

TEST(Soak, FullTestbedFiveSimulatedSeconds) {
  can::WiredAndBus bus{sim::BusSpeed{125'000}};

  // Veh. D restbus (without the defender's own ID).
  const auto matrix = restbus::vehicle_matrix(restbus::Vehicle::D, 1);
  const core::IvnConfig ivn{matrix.ecu_ids()};
  // Both defender-owned IDs are transmitted by the defender nodes, not by
  // the replay (a second transmitter of a spoofed ID would collide with
  // the spoofer and destroy itself — the victim-collision physics of
  // test_victim_collisions.cpp).
  const auto light_id = ivn.ecus().front();
  can::BitController rb{"restbus"};
  restbus::attach_matrix_replay(
      rb, matrix.without(0x173).without(light_id).scaled_to_load(125e3, 0.30),
      bus.speed());
  rb.attach_to(bus);

  // Two MichiCAN defenders (distributed deployment): one full, one light.
  core::MichiCanNodeConfig full_cfg;
  full_cfg.own_id = 0x173;
  core::MichiCanNode defender{"defender", ivn, full_cfg};
  defender.attach_to(bus);
  can::attach_periodic(defender.controller(),
                       can::CanFrame::make_pattern(0x173, 8, 0x1234),
                       bus.speed().ms_to_bits(100.0), 25.0,
                       can::PayloadMode::Counter);

  core::MichiCanNodeConfig light_cfg;
  light_cfg.own_id = light_id;
  light_cfg.scenario = core::Scenario::Light;
  core::MichiCanNode light{"light", ivn, light_cfg};
  light.attach_to(bus);

  // A passive IDS and a candump logger watching everything.
  baseline::FrequencyIds ids{"ids", {}};
  ids.attach_to(bus);
  restbus::CandumpRecorder recorder;
  recorder.attach_to(bus);

  // Attackers: a persistent DoS flood and a periodic spoofer.
  attack::Attacker dos{"dos", attack::Attacker::targeted_dos(0x064)};
  dos.attach_to(bus);
  auto spoof_cfg = attack::Attacker::spoof(light_id);
  spoof_cfg.period_bits = 40'000;
  attack::Attacker spoofer{"spoofer", spoof_cfg};
  spoofer.attach_to(bus);

  bus.run_for(sim::Millis{5000.0});

  // --- invariants -----------------------------------------------------------
  // 1. The DoS attacker cycles through bus-off repeatedly.
  EXPECT_GE(bus.log().count(sim::EventKind::BusOff, "dos"), 10u);
  // 2. Both defenders keep clean transmit error counters.
  EXPECT_EQ(defender.controller().tec(), 0);
  EXPECT_FALSE(defender.controller().is_bus_off());
  EXPECT_FALSE(light.controller().is_bus_off());
  // 3. The light defender never counterattacks a DoS (not its job)...
  EXPECT_EQ(light.monitor().stats().counterattacks,
            bus.log().count(sim::EventKind::CounterattackStart, "light"));
  // ...but the spoof on its own ID is punished by it.
  EXPECT_GT(light.monitor().stats().counterattacks, 0u);
  // 4. The rest-bus replay is never confined, and traffic kept flowing.
  EXPECT_EQ(rb.stats().bus_off_entries, 0u);
  EXPECT_GT(rb.stats().frames_sent, 500u);
  // 5. The defender's own message kept its schedule (plus margin for the
  //    arbitration interference of the flood retransmissions).
  EXPECT_GT(defender.controller().stats().frames_sent, 35u);
  // 6. The passive IDS saw the attacks.
  EXPECT_TRUE(ids.alarmed());
  // 7. The logger recorded plenty of traffic, parse-clean.
  EXPECT_GT(recorder.trace().size(), 500u);
  const auto reparsed = restbus::parse_candump(recorder.dump());
  EXPECT_EQ(reparsed.size(), recorder.trace().size());
  // 8. No spoofed frame of the light defender's ID ever completed.
  for (const auto& e : recorder.trace()) {
    if (e.frame.id == light.own_id()) {
      ADD_FAILURE() << "spoofed frame slipped through at t=" << e.t_seconds;
    }
  }
}

}  // namespace
}  // namespace mcan
