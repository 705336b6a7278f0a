// Spoofing defense walkthrough: the paper's Experiment 1 as a narrative —
// an attacker fabricates the defender's own CAN ID 0x173 while real
// vehicle restbus traffic (Veh. D) runs in the background.
//
// Shows the per-phase mechanics of Sec. IV: synchronization on SOF,
// bit-by-bit FSM detection inside the arbitration field, the counterattack
// window after RTR, and CAN fault confinement walking the attacker through
// error-active -> error-passive -> bus-off.
#include <algorithm>
#include <iomanip>
#include <iostream>

#include "analysis/busoff_meter.hpp"
#include "analysis/forensics.hpp"
#include "attack/attacker.hpp"
#include "can/bus.hpp"
#include "core/michican_node.hpp"
#include "restbus/replay.hpp"
#include "restbus/vehicles.hpp"

int main() {
  using namespace mcan;

  can::WiredAndBus bus{sim::BusSpeed{50'000}};

  // Veh. D powertrain matrix: defines E and provides background traffic.
  const auto matrix = restbus::vehicle_matrix(restbus::Vehicle::D, 1);
  const core::IvnConfig ivn{matrix.ecu_ids()};
  std::cout << "IVN (Veh. D bus 1): " << ivn.ecus().size()
            << " legitimate CAN IDs, defender owns 0x173\n";

  core::MichiCanNodeConfig cfg;
  cfg.own_id = 0x173;
  core::MichiCanNode defender{"defender", ivn, cfg};
  defender.attach_to(bus);
  std::cout << "detection FSM: " << defender.fsm().node_count()
            << " nodes, detection ranges 𝔻 = "
            << ivn.detection_ranges(0x173).to_string() << "\n\n";

  const auto replayed = matrix.without(0x173).scaled_to_load(50e3, 0.12);
  can::BitController replay{"restbus"};  // one replay interface (PCAN-USB)
  restbus::attach_matrix_replay(replay, replayed, bus.speed());
  replay.attach_to(bus);

  attack::Attacker attacker{"attacker", attack::Attacker::spoof(0x173)};
  attacker.attach_to(bus);

  bus.run_for(sim::Millis{2000.0});

  // Narrate the first bus-off cycle from the event log.
  const auto cycles = analysis::busoff_cycles(bus.log(), "attacker");
  std::cout << "bus-off cycles completed in 2 s: " << cycles.size() << "\n";
  if (!cycles.empty()) {
    const auto& c = cycles.front();
    std::cout << "first cycle: attack SOF at bit " << c.attack_start
              << ", bus-off at bit " << c.bus_off << " ("
              << std::fixed << std::setprecision(1)
              << bus.speed().bits_to_ms(c.duration_bits) << " ms, "
              << c.retransmissions << " transmission attempts)\n";
  }

  const auto& mon = defender.monitor().stats();
  std::cout << "\nmonitor statistics:\n"
            << "  frames observed:    " << mon.frames_observed << "\n"
            << "  attacks detected:   " << mon.attacks_detected << "\n"
            << "  counterattacks:     " << mon.counterattacks << "\n"
            << "  mean detection bit: "
            << (mon.attacks_detected
                    ? static_cast<double>(mon.detection_bit_sum) /
                          static_cast<double>(mon.attacks_detected)
                    : 0.0)
            << " of 11\n"
            << "  own frames spared:  " << mon.suppressed_self << "\n";

  const auto& rb = replay.stats();
  std::cout << "\nrestbus health (must be unharmed):\n"
            << "  frames delivered: " << rb.frames_sent << "\n"
            << "  bus-off entries:  " << rb.bus_off_entries
            << (rb.bus_off_entries > 0 ? " (unexpected!)" : "") << "\n"
            << "defender TEC: " << defender.controller().tec()
            << " (the counterattack costs the defender nothing)\n";

  // A post-incident digest of the whole recording.
  const auto report = analysis::analyze(bus.log());
  const auto eradicated = static_cast<std::size_t>(
      std::count_if(report.episodes.begin(), report.episodes.end(),
                    [](const analysis::AttackEpisode& e) {
                      return e.eradicated;
                    }));
  std::cout << "\nforensics: " << report.episodes.size()
            << " attack episodes reconstructed, " << eradicated
            << " eradicated (the last one may still be in progress at the "
               "2 s cutoff)\n";

  // Show the waveform of one counterattack (SOF .. error frame).
  if (!cycles.empty()) {
    const auto from = cycles.front().attack_start;
    std::cout << "\nwaveform of the first destroyed frame "
              << "('_' dominant, '-' recessive):\n"
              << bus.trace().render(from, from + 40, 10) << "\n"
              << "|SOF + 11-bit ID ...|RTR|counterattack window|error "
                 "flag + delimiter|\n";
  }
  return cycles.empty() ? 1 : 0;
}
